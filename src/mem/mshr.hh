/**
 * @file
 * Miss Status Handling Register file.
 *
 * Classic CAM-style MSHRs used by the on-chip caches. The paper's point
 * is that these are too expensive to scale to the 100s of outstanding
 * DRAM-cache misses, which is why AstriFlash moves that bookkeeping into
 * the in-DRAM Miss Status Row (core/miss_status_row.hh). This model
 * keeps the occupancy statistics needed to demonstrate the contrast.
 *
 * A core holds at most one entry at a time: SimCore takes it at the
 * LLC miss and gives it back at the memory system's answer before the
 * next access, so the file never merges and never fills. What is left
 * to model is the hold time, so the file is a recorder of
 * allocate-to-release intervals with no table and no block lookup. It
 * keeps the stat names of the CAM it replaced; merges and full stalls
 * stay 0.
 */

#ifndef ASTRIFLASH_MEM_MSHR_HH
#define ASTRIFLASH_MEM_MSHR_HH

#include <cstdint>

#include "sim/invariant.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

namespace astriflash::mem {

/** Hold-time recorder of one core's on-chip MSHR file. */
class MshrFile
{
  public:
    struct Stats {
        sim::Counter allocations;
        sim::Counter merges;     ///< Always 0: one miss per core.
        sim::Counter fullStalls; ///< Always 0: one miss per core.
        sim::Counter frees;
        sim::Counter heldTicks;  ///< Total entry-hold time.
        sim::Histogram holdTime; ///< Per-entry allocate-to-release.
        std::uint64_t peakOccupancy = 0;
    };

    /**
     * Record one entry held from @p from to @p to. The release tick
     * may be a declared future tick (the miss response), and one
     * before @p from charges zero, never an underflowed duration. The
     * paper's argument (§IV-B) is exactly this interval: a miss
     * *response* frees the entry in nanoseconds, while holding it to
     * fill completion pins it for the whole flash access.
     */
    void
    record(sim::Ticks from, sim::Ticks to)
    {
        lastHeld = to > from ? to - from : 0;
        statsData.allocations.inc();
        statsData.frees.inc();
        statsData.heldTicks.inc(lastHeld);
        statsData.holdTime.sample(lastHeld);
        statsData.peakOccupancy = 1;
    }

    /**
     * Host prefetch hint for the hold-time bucket of the last
     * recorded interval, where a core's next, similar one most likely
     * lands; see sim::Histogram::prefetch().
     */
    [[gnu::always_inline]] void
    prefetch() const
    {
        statsData.holdTime.prefetch(lastHeld);
    }

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
     * Audit the recorder: every allocation was freed and sampled once,
     * and nothing ever merged, stalled or overlapped.
     */
    void
    checkInvariants(sim::InvariantChecker &chk) const
    {
        SIM_INVARIANT_MSG(
            chk, statsData.allocations.value() == statsData.frees.value(),
            "MSHR conservation: %llu allocs != %llu frees",
            static_cast<unsigned long long>(
                statsData.allocations.value()),
            static_cast<unsigned long long>(statsData.frees.value()));
        SIM_INVARIANT_MSG(chk,
                          statsData.holdTime.count() ==
                              statsData.frees.value(),
                          "%llu frees but %llu hold-time samples",
                          static_cast<unsigned long long>(
                              statsData.frees.value()),
                          static_cast<unsigned long long>(
                              statsData.holdTime.count()));
        SIM_INVARIANT(chk, statsData.merges.value() == 0);
        SIM_INVARIANT(chk, statsData.fullStalls.value() == 0);
        SIM_INVARIANT(chk, statsData.peakOccupancy ==
                               (statsData.frees.value() != 0 ? 1u : 0u));
    }

  private:
    sim::Ticks lastHeld = 0;
    Stats statsData;
};

} // namespace astriflash::mem

#endif // ASTRIFLASH_MEM_MSHR_HH
