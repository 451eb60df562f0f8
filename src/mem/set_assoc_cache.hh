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

#include <cstddef>
#include <cstdint>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "sim/invariant.hh"
#include "sim/prefetch.hh"
#include "sim/stats.hh"

#include "address.hh"
#include "tag_slab.hh"

namespace astriflash::mem {

/** Result of a cache lookup or fill. */
struct CacheLine {
    Addr tag_addr = 0; ///< Block/page-aligned address stored in the line.
    bool dirty = false;
};

/**
 * Set-associative cache tag/state array (no data payload).
 *
 * Addresses are truncated to @p line_size granularity. The array tracks
 * validity, dirtiness, and recency, and evicts the least recently used
 * way, the policy the paper assumes; it never stores data since the
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
     * @param slab        Where the array lives, or null for its own
     *                    line-aligned heap block. A slab must outlive
     *                    the array.
     *
     * The associativity must stay below kMaxStamp, so that a clock
     * restarted by renumber() sits above every rank.
     *
     * Tags are 32 bits wide: an address whose line number above the
     * set bits reaches 2^32 - 1 is fatal, never aliased. That bounds
     * addresses at (2^32 - 1) lines x sets for power-of-two set
     * counts and at (2^32 - 1) lines otherwise: 16 TiB less one
     * page for a one-set array of 4 KB pages.
     */
    SetAssocCache(std::string name, std::uint64_t capacity,
                  std::uint64_t line_size, std::uint32_t ways,
                  TagSlab *slab = nullptr);

    /**
     * Slab bytes an array of this geometry takes, so an owner can size
     * a TagSlab exactly for the arrays it will hold.
     */
    static std::size_t storageBytes(std::uint64_t capacity,
                                    std::uint64_t line_size,
                                    std::uint32_t ways);

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
     * Set that @p addr maps to, from the geometry alone: unlike
     * locate(), any address is accepted, even one whose tag would not
     * fit.
     */
    std::uint64_t
    setOf(Addr addr) const
    {
        const std::uint64_t lineNum = addr >> lineShift;
        return setsPow2 ? lineNum & (sets - 1) : lineNum % sets;
    }

    /**
     * Host prefetch hint for the set @p addr maps to: touches every
     * host line of its tag and meta words, ways x 6 bytes. The set
     * comes from setOf(), never from locate(), so any address is
     * safe; no state changes. Always inlined: GCC 12 at -O2 drops the prefetches of
     * a helper it keeps out of line (DESIGN.md §9.4).
     */
    [[gnu::always_inline]] void
    prefetch(Addr addr) const
    {
        sim::prefetchRange(arr.data() + setOf(addr) * setStride,
                           std::size_t{waysPerSet} * kWayBytes);
    }

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
     * every valid tag belongs to its set, empty ways and the padding
     * after each set hold no state, every valid way holds a stamp in
     * 1..the clock of its set, the fill/evict/invalidate traffic
     * accounts for the live lines, and the remembered missed line is
     * absent.
     */
    void
    checkInvariants(sim::InvariantChecker &chk) const
    {
        std::uint64_t valid = 0;
        const std::size_t padWords =
            (setStride - std::size_t{waysPerSet} * kWayBytes) /
            sizeof(std::uint16_t);
        for (std::uint64_t s = 0; s < sets; ++s) {
            const std::uint32_t *tags = setWords(SetIdx(s));
            const auto *meta =
                reinterpret_cast<const std::uint16_t *>(tags + waysPerSet);
            for (std::size_t p = 0; p < padWords; ++p) {
                SIM_INVARIANT_MSG(chk, meta[waysPerSet + p] == 0,
                                  "%s: padding word %zu of set %llu "
                                  "holds %x",
                                  cacheName.c_str(), p,
                                  static_cast<unsigned long long>(s),
                                  unsigned{meta[waysPerSet + p]});
            }
            for (std::uint32_t w = 0; w < waysPerSet; ++w) {
                if (tags[w] == kInvalidTag) {
                    SIM_INVARIANT_MSG(chk, meta[w] == 0,
                                      "%s: empty way %u of set %llu "
                                      "holds state %x",
                                      cacheName.c_str(), w,
                                      static_cast<unsigned long long>(s),
                                      unsigned{meta[w]});
                    continue;
                }
                ++valid;
                const Addr a = addrOf(tags[w], SetIdx(s));
                SIM_INVARIANT_MSG(chk, locate(a).set == SetIdx(s),
                                  "%s: line %llx in wrong set %llu",
                                  cacheName.c_str(),
                                  static_cast<unsigned long long>(a),
                                  static_cast<unsigned long long>(s));
                // victimWay() finds an empty way as the least meta
                // word, which needs every valid one above 0.
                SIM_INVARIANT_MSG(chk, (meta[w] >> 1) >= 1,
                                  "%s: line %llx holds stamp 0",
                                  cacheName.c_str(),
                                  static_cast<unsigned long long>(a));
                SIM_INVARIANT_MSG(chk, (meta[w] >> 1) <= clock(s),
                                  "%s: line %llx stamped in the future",
                                  cacheName.c_str(),
                                  static_cast<unsigned long long>(a));
            }
        }
        SIM_INVARIANT_MSG(chk, valid == validCount,
                          "%s: %llu valid ways but counter says %llu",
                          cacheName.c_str(),
                          static_cast<unsigned long long>(valid),
                          static_cast<unsigned long long>(validCount));
        SIM_INVARIANT(chk, validCount <= sets * waysPerSet);
        SIM_INVARIANT(chk, stamp <= kMaxStamp);
        for (const std::uint32_t c : clocks)
            SIM_INVARIANT(chk, c <= kMaxStamp);
        SIM_INVARIANT(chk,
                      statsData.dirtyEvictions.value() <=
                          statsData.evictions.value());
        SIM_INVARIANT(chk,
                      statsData.evictions.value() +
                              statsData.invalidations.value() <=
                          statsData.fills.value() + validCount);
        if (missLine != kNoLine) {
            const Addr a = addrOf(missSlot.tag, missSlot.set);
            SIM_INVARIANT_MSG(chk, (a >> lineShift) == missLine,
                              "%s: remembered slot names line %llx, "
                              "not the missed one",
                              cacheName.c_str(),
                              static_cast<unsigned long long>(a));
            SIM_INVARIANT_MSG(chk, !contains(a),
                              "%s: remembered miss %llx is resident",
                              cacheName.c_str(),
                              static_cast<unsigned long long>(a));
        }
    }

    /**
     * Largest stamp a 16-bit meta word holds; renumber() keeps every
     * clock at or below it.
     */
    static constexpr std::uint32_t kMaxStamp = 0x7fff;
    /**
     * Sets that share one clock: set s ticks clock s / kClockSets. A
     * clock that would pass kMaxStamp renumbers only its own sets, so
     * a renumbering ranks at most 1 024 sets per 2^15 - ways calls to
     * them, however large the array. One clock for the half million
     * sets of a large DRAM-cache page array would rank them all every
     * 2^15 calls.
     */
    static constexpr std::uint64_t kClockSets = 1024;

  private:
    /** Tag word of an empty way; locate() rejects any address with it. */
    static constexpr std::uint32_t kInvalidTag = ~std::uint32_t{0};
    /** Low bit of a meta word; the stamp sits above it. */
    static constexpr std::uint16_t kDirtyBit = 1;
    /** Bytes of one way: its 32-bit tag word and 16-bit meta word. */
    static constexpr std::size_t kWayBytes =
        sizeof(std::uint32_t) + sizeof(std::uint16_t);
    /**
     * missLine when no miss is remembered; a line number is at most
     * 2^63 - 1 since lines are at least 2 bytes.
     */
    static constexpr std::uint64_t kNoLine = ~std::uint64_t{0};

    /** Where an address lives: its set and its tag word there. */
    struct Slot {
        SetIdx set;
        std::uint32_t tag;
    };

    /**
     * Allocator starting the array on a 64-byte host cache line, so
     * that the set stride (strideOf()) decides which host lines a set
     * touches. The line comes from @ref slab when one is given, else
     * from the heap.
     */
    template <typename T>
    struct LineAligned {
        using value_type = T;
        static constexpr std::align_val_t kAlign{TagSlab::kSpanAlign};

        TagSlab *slab = nullptr;

        LineAligned() = default;
        explicit LineAligned(TagSlab *from) : slab(from) {}
        template <typename U>
        LineAligned(const LineAligned<U> &other) : slab(other.slab)
        {
        }

        T *
        allocate(std::size_t n)
        {
            if (slab)
                return static_cast<T *>(slab->allocate(n * sizeof(T)));
            return static_cast<T *>(
                ::operator new(n * sizeof(T), kAlign));
        }

        void
        deallocate(T *p, std::size_t)
        {
            // A slab span lives as long as the slab. Otherwise the
            // vector owning the array is the RAII owner here.
            if (!slab)
                // aflint-allow-next-line(AF002)
                ::operator delete(p, kAlign);
        }

        friend bool
        operator==(const LineAligned &a, const LineAligned &b)
        {
            return a.slab == b.slab;
        }
    };

    /** One set's tag words and, parallel to them, its meta words. */
    struct SetRef {
        std::uint32_t *tags;
        std::uint16_t *meta;
    };

    /**
     * Bytes from one set to the next for @p ways ways: the set's
     * kWayBytes x ways rounded up to a power of two under 64 bytes,
     * else to a multiple of 32, so that no set touches more host
     * lines than its bytes need.
     */
    static std::size_t strideOf(std::uint32_t ways);

    /** Set and tag of @p addr; fatal if the tag does not fit. */
    Slot locate(Addr addr) const;
    /** Line-aligned address of the tag @p tag held in @p set. */
    Addr addrOf(std::uint32_t tag, SetIdx set) const;
    [[noreturn]] void tagOverflow(Addr addr) const;
    const std::uint32_t *setWords(SetIdx set) const;
    SetRef setAt(SetIdx set);
    std::uint32_t findWay(const std::uint32_t *tags,
                          std::uint32_t tag) const;
    std::uint32_t victimWay(SetRef set) const;
    /**
     * Advance the clock of @p set, renumbering first if it would pass
     * kMaxStamp. @return The clock's new value.
     */
    std::uint32_t tick(SetIdx set);
    /** Value of the clock that set @p s ticks. */
    std::uint32_t
    clock(std::uint64_t s) const
    {
        return sets <= kClockSets ? stamp : clocks[s / kClockSets];
    }
    /**
     * Rewrite the valid stamps of clock @p c's sets to their ranks
     * within each set and restart the clock at the associativity. A
     * victim depends only on the order of the valid stamps in its set,
     * which the ranks keep, so no later hit, victim or stat changes.
     */
    void renumber(std::uint64_t c);
    /** Record a hit at clock value @p now on the way of meta word @p meta. */
    static void
    touch(std::uint16_t &meta, bool dirty, std::uint32_t now)
    {
        meta = static_cast<std::uint16_t>(now << 1 |
                                          (meta & kDirtyBit) | dirty);
    }
    bool lookup(Addr addr, bool write);
    /** Remember that the line of @p addr, at @p slot, just missed. */
    void
    rememberMiss(Addr addr, Slot slot)
    {
        missLine = addr >> lineShift;
        missSlot = slot;
    }

    std::string cacheName;
    std::uint64_t totalCapacity;
    std::uint64_t line;
    std::uint32_t waysPerSet;
    std::uint64_t sets;
    unsigned lineShift = 0; // log2(line)
    unsigned setShift = 0;  // log2(sets) if setsPow2, else 0
    bool setsPow2 = false;  // set index by mask, not by modulo
    std::size_t setStride;  // strideOf(waysPerSet)
    /**
     * Per set, in setStride bytes: waysPerSet 32-bit tag words
     * (kInvalidTag when the way is empty), then waysPerSet 16-bit meta
     * words, each stamp << 1 | dirty, then zero padding. A tag is the
     * line number above the set bits, or the whole line number when
     * the set count is not a power of two. The stamp is the way's last
     * use.
     */
    std::vector<std::byte, LineAligned<std::byte>> arr;
    /** The clock of an array of at most kClockSets sets. */
    std::uint32_t stamp = 0;
    std::uint64_t validCount = 0;
    /**
     * Line number and slot of the last line a lookup or markDirty()
     * found absent, or kNoLine. Only fill() makes a line resident,
     * and a fill of this line forgets it, so while it is set the line
     * is absent and fill() may skip locate() and the tag scan.
     */
    std::uint64_t missLine = kNoLine;
    Slot missSlot{};
    Stats statsData;
    /**
     * The clocks of an array of more than kClockSets sets, one per
     * kClockSets sets, the last for what remains; empty otherwise.
     */
    std::vector<std::uint32_t> clocks;
};

} // namespace astriflash::mem

#endif // ASTRIFLASH_MEM_SET_ASSOC_CACHE_HH
