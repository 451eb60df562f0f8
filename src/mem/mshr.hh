/**
 * @file
 * Miss Status Handling Register file.
 *
 * Classic CAM-style MSHRs used by the on-chip caches. The paper's point
 * is that these are too expensive to scale to the 100s of outstanding
 * DRAM-cache misses, which is why AstriFlash moves that bookkeeping into
 * the in-DRAM Miss Status Row (core/miss_status_row.hh). This model
 * provides the on-chip structure plus the occupancy statistics needed to
 * demonstrate the contrast.
 *
 * The file is a small vector searched linearly, the host's version of
 * the CAM: a core holds at most one entry at a time (SimCore
 * allocates and releases around each LLC miss), so a scan of the live
 * entries beats a hash table's node allocation and hashing.
 */

#ifndef ASTRIFLASH_MEM_MSHR_HH
#define ASTRIFLASH_MEM_MSHR_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/invariant.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

#include "address.hh"

namespace astriflash::mem {

/** Outcome of an MSHR allocation attempt. */
enum class MshrAlloc {
    New,    ///< A fresh entry was allocated for this line.
    Merged, ///< An entry for this line existed; request was merged.
    Full,   ///< No free entry; the cache must block.
};

/** Fixed-capacity MSHR file keyed by line (block) number. */
class MshrFile
{
  public:
    struct Stats {
        sim::Counter allocations;
        sim::Counter merges;
        sim::Counter fullStalls;
        sim::Counter frees;
        sim::Counter heldTicks;  ///< Total entry-hold time.
        sim::Histogram holdTime; ///< Per-entry allocate-to-release.
        std::uint64_t peakOccupancy = 0;
    };

    /**
     * @param name     Instance name.
     * @param entries  Number of MSHR entries (CAM size).
     * @param line_size Granularity of request coalescing.
     */
    MshrFile(std::string name, std::uint32_t entries,
             std::uint64_t line_size = kBlockSize);

    /**
     * Try to allocate (or merge into) an entry for @p addr.
     * @param now  Allocation tick; a fresh entry records it so the
     *             release can account the hold time. The paper's
     *             argument (§IV-B) is exactly this interval: a miss
     *             *response* frees the entry in nanoseconds, while
     *             holding it to fill completion pins it for the whole
     *             flash access.
     */
    MshrAlloc allocate(Addr addr, sim::Ticks now = 0);

    /**
     * Release the entry for @p addr.
     * @param now  Release tick (may be a declared future tick: the
     *             miss-response time); hold-time stats cover
     *             now - allocation tick.
     * @return Number of merged requests that were waiting (>=1), or 0
     *         if no entry existed.
     */
    std::uint32_t release(Addr addr, sim::Ticks now = 0);

    /** True if an entry for @p addr is outstanding. */
    bool contains(Addr addr) const;

    /** Current number of live entries. */
    std::uint32_t occupancy() const
    {
        return static_cast<std::uint32_t>(table.size());
    }

    /** True when every entry is in use. */
    bool full() const { return table.size() >= capacity; }

    std::uint32_t entries() const { return capacity; }
    const Stats &stats() const { return statsData; }

    /** Register this MSHR file's stats into @p reg. */
    void
    regStats(sim::StatRegistry &reg) const
    {
        reg.registerCounter("allocations", &statsData.allocations,
                            "fresh MSHR entries allocated");
        reg.registerCounter("merges", &statsData.merges,
                            "requests merged onto an existing entry");
        reg.registerCounter("full_stalls", &statsData.fullStalls,
                            "allocation attempts rejected by a full file");
        reg.registerCounter("frees", &statsData.frees,
                            "entries released at fill completion");
        reg.registerCounter("held_ticks", &statsData.heldTicks,
                            "total allocate-to-release hold time");
        reg.registerHistogram("hold_time", &statsData.holdTime,
                              "per-entry hold time in ticks");
        reg.registerUint("peak_occupancy", &statsData.peakOccupancy,
                         "maximum live entries over the run");
    }

    /**
     * Audit the CAM: bounded occupancy, one entry per line with at
     * least one waiter each, and allocations == frees + occupancy.
     */
    void
    checkInvariants(sim::InvariantChecker &chk) const
    {
        SIM_INVARIANT_MSG(chk, table.size() <= capacity,
                          "%zu entries exceed the %u-entry CAM",
                          table.size(), capacity);
        // A BlockNum cannot be misaligned by construction; what
        // remains is one entry per line, each with at least one
        // waiter.
        for (std::size_t i = 0; i < table.size(); ++i) {
            const Entry &entry = table[i];
            SIM_INVARIANT_MSG(chk, entry.waiters >= 1,
                              "entry %llx has no waiters",
                              static_cast<unsigned long long>(
                                  blockAddr(entry.block, line)));
            SIM_INVARIANT_MSG(chk, indexOf(entry.block) == i,
                              "line %llx holds two entries",
                              static_cast<unsigned long long>(
                                  blockAddr(entry.block, line)));
        }
        SIM_INVARIANT_MSG(
            chk,
            statsData.allocations.value() ==
                statsData.frees.value() + table.size(),
            "MSHR conservation: %llu allocs != %llu frees + %zu live",
            static_cast<unsigned long long>(
                statsData.allocations.value()),
            static_cast<unsigned long long>(statsData.frees.value()),
            table.size());
        SIM_INVARIANT(chk, statsData.peakOccupancy >= table.size());
        // Every free samples the hold-time histogram exactly once.
        SIM_INVARIANT_MSG(chk,
                          statsData.holdTime.count() ==
                              statsData.frees.value(),
                          "%llu frees but %llu hold-time samples",
                          static_cast<unsigned long long>(
                              statsData.frees.value()),
                          static_cast<unsigned long long>(
                              statsData.holdTime.count()));
    }

  private:
    struct Entry {
        BlockNum block;
        std::uint32_t waiters = 0;
        sim::Ticks allocatedAt = 0;
    };

    /** Index of the live entry for @p block, or table.size(). */
    std::size_t indexOf(BlockNum block) const;

    std::string fileName;
    std::uint32_t capacity;
    std::uint64_t line;
    /** Live entries in no particular order; release() swaps and pops. */
    std::vector<Entry> table;
    Stats statsData;
};

} // namespace astriflash::mem

#endif // ASTRIFLASH_MEM_MSHR_HH
