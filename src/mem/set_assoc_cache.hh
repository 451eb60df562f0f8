/**
 * @file
 * Generic set-associative tag array.
 *
 * One structural model serves three roles:
 *  - on-chip L1/L2/LLC tag arrays at 64 B block granularity,
 *  - the page-grained DRAM-cache tag check (tags-in-DRAM timing is
 *    charged by the frontside controller, the *contents* live here),
 *  - the capacity/miss-ratio sweeps behind Figure 1.
 */

#ifndef ASTRIFLASH_MEM_SET_ASSOC_CACHE_HH
#define ASTRIFLASH_MEM_SET_ASSOC_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/invariant.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

#include "address.hh"

namespace astriflash::mem {

/** Victim-selection policy within a set. */
enum class ReplacementPolicy {
    Lru,    ///< Least-recently-used (default; what the paper assumes).
    Fifo,   ///< Insertion order, ignores re-reference.
    Random, ///< Uniform random way.
};

/** Result of a cache lookup or fill. */
struct CacheLine {
    Addr tag_addr = 0; ///< Block/page-aligned address stored in the line.
    bool dirty = false;
};

/**
 * Set-associative cache tag/state array (no data payload).
 *
 * Addresses are truncated to @p line_size granularity. The array tracks
 * validity, dirtiness, and recency; it never stores data since the
 * simulator is timing-directed, not value-accurate.
 */
class SetAssocCache
{
  public:
    /** Aggregate statistics. */
    struct Stats {
        sim::Counter hits;
        sim::Counter misses;
        sim::Counter evictions;
        sim::Counter dirtyEvictions;
        sim::Counter fills;
        sim::Counter invalidations;

        /** Miss ratio over all lookups (0 if none). */
        double
        missRatio() const
        {
            const double total =
                static_cast<double>(hits.value() + misses.value());
            return total > 0.0
                ? static_cast<double>(misses.value()) / total : 0.0;
        }
    };

    /**
     * @param name        Instance name (diagnostics only).
     * @param capacity    Total bytes; must be sets*ways*line_size.
     * @param line_size   Block or page size in bytes (power of two,
     *                    at least 2).
     * @param ways        Associativity (>=1).
     * @param policy      Replacement policy.
     * @param seed        RNG seed for the Random policy.
     */
    SetAssocCache(std::string name, std::uint64_t capacity,
                  std::uint64_t line_size, std::uint32_t ways,
                  ReplacementPolicy policy = ReplacementPolicy::Lru,
                  std::uint64_t seed = 1);

    /**
     * Look up @p addr, updating recency on a hit.
     * @return true on hit.
     */
    bool access(Addr addr);

    /**
     * Look up @p addr for a store: like access() but marks dirty on hit.
     * @return true on hit.
     */
    bool accessWrite(Addr addr);

    /** Probe without touching recency or stats. */
    bool contains(Addr addr) const;

    /**
     * Insert @p addr (aligned internally), evicting a victim if the set
     * is full.
     * @param dirty  Whether the inserted line starts dirty.
     * @return The evicted line, if any.
     */
    std::optional<CacheLine> fill(Addr addr, bool dirty = false);

    /**
     * Remove @p addr if present.
     * @return The invalidated line (with dirtiness), if it was present.
     */
    std::optional<CacheLine> invalidate(Addr addr);

    /** Mark @p addr dirty if present. @return true if it was present. */
    bool markDirty(Addr addr);

    /** Drop every line (e.g. between measurement phases). */
    void flushAll();

    /** Number of valid lines currently held. */
    std::uint64_t validLines() const { return validCount; }

    std::uint64_t capacity() const { return totalCapacity; }
    std::uint64_t lineSize() const { return line; }
    std::uint32_t associativity() const { return waysPerSet; }
    std::uint64_t numSets() const { return sets; }
    const std::string &name() const { return cacheName; }

    const Stats &stats() const { return statsData; }
    Stats &stats() { return statsData; }

    /** Register this array's stats into @p reg. */
    void
    regStats(sim::StatRegistry &reg) const
    {
        reg.registerCounter("hits", &statsData.hits,
                            "lookups that found a valid line");
        reg.registerCounter("misses", &statsData.misses,
                            "lookups that found no valid line");
        reg.registerCounter("evictions", &statsData.evictions,
                            "valid lines displaced by fills");
        reg.registerCounter("dirty_evictions",
                            &statsData.dirtyEvictions,
                            "displaced lines needing writeback");
        reg.registerCounter("fills", &statsData.fills,
                            "lines installed into the array");
        reg.registerCounter("invalidations",
                            &statsData.invalidations,
                            "lines removed by explicit invalidation");
    }

    /**
     * Audit the array: the valid-line count matches the tag state,
     * every valid tag is line-aligned and in its proper set, empty
     * ways hold no state, no stamp is ahead of the clock, and the
     * fill/evict/invalidate traffic accounts for the live lines.
     */
    void
    checkInvariants(sim::InvariantChecker &chk) const
    {
        std::uint64_t valid = 0;
        for (std::uint64_t s = 0; s < sets; ++s) {
            const std::uint64_t *tags = &arr[s * 2 * waysPerSet];
            const std::uint64_t *meta = tags + waysPerSet;
            for (std::uint32_t w = 0; w < waysPerSet; ++w) {
                if (tags[w] == kInvalidTag) {
                    SIM_INVARIANT_MSG(chk, meta[w] == 0,
                                      "%s: empty way %u of set %llu "
                                      "holds state %llx",
                                      cacheName.c_str(), w,
                                      static_cast<unsigned long long>(s),
                                      static_cast<unsigned long long>(
                                          meta[w]));
                    continue;
                }
                ++valid;
                SIM_INVARIANT_MSG(chk, (tags[w] & (line - 1)) == 0,
                                  "%s: unaligned tag %llx",
                                  cacheName.c_str(),
                                  static_cast<unsigned long long>(
                                      tags[w]));
                SIM_INVARIANT_MSG(chk, setIndex(tags[w]) == SetIdx(s),
                                  "%s: tag %llx in wrong set %llu",
                                  cacheName.c_str(),
                                  static_cast<unsigned long long>(
                                      tags[w]),
                                  static_cast<unsigned long long>(s));
                SIM_INVARIANT_MSG(chk, (meta[w] >> 1) <= stamp,
                                  "%s: tag %llx stamped in the future",
                                  cacheName.c_str(),
                                  static_cast<unsigned long long>(
                                      tags[w]));
            }
        }
        SIM_INVARIANT_MSG(chk, valid == validCount,
                          "%s: %llu valid ways but counter says %llu",
                          cacheName.c_str(),
                          static_cast<unsigned long long>(valid),
                          static_cast<unsigned long long>(validCount));
        SIM_INVARIANT(chk, validCount <= sets * waysPerSet);
        SIM_INVARIANT(chk,
                      statsData.dirtyEvictions.value() <=
                          statsData.evictions.value());
        SIM_INVARIANT(chk,
                      statsData.evictions.value() +
                              statsData.invalidations.value() <=
                          statsData.fills.value() + validCount);
    }

  private:
    /** Tag word of an empty way: never line-aligned, as line >= 2. */
    static constexpr Addr kInvalidTag = ~Addr{0};
    /** Low bit of a meta word; the stamp sits above it. */
    static constexpr std::uint64_t kDirtyBit = 1;

    /** One set's tag words and, parallel to them, its meta words. */
    struct SetRef {
        std::uint64_t *tags;
        std::uint64_t *meta;
    };

    SetIdx setIndex(Addr addr) const;
    const std::uint64_t *setWords(SetIdx set) const;
    SetRef setAt(SetIdx set);
    std::uint32_t findWay(const std::uint64_t *tags, Addr aligned) const;
    std::uint32_t victimWay(SetRef set);
    /** Record a hit on the way whose meta word is @p meta. */
    void touch(std::uint64_t &meta, bool dirty) const;
    bool lookup(Addr addr, bool write);

    std::string cacheName;
    std::uint64_t totalCapacity;
    std::uint64_t line;
    std::uint32_t waysPerSet;
    std::uint64_t sets;
    ReplacementPolicy policy;
    Addr lineMask = 0;      // ~(line - 1)
    unsigned lineShift = 0; // log2(line)
    bool setsPow2 = false;  // set index by mask, not by modulo
    /**
     * Per set, contiguously: waysPerSet tag words (kInvalidTag when
     * the way is empty), then waysPerSet meta words, each
     * stamp << 1 | dirty. The stamp is the last use under LRU, the
     * fill time under FIFO, and unused under Random.
     */
    std::vector<std::uint64_t> arr;
    std::uint64_t stamp = 0;
    std::uint64_t validCount = 0;
    sim::Rng rng;
    Stats statsData;
};

} // namespace astriflash::mem

#endif // ASTRIFLASH_MEM_SET_ASSOC_CACHE_HH
