/**
 * @file
 * Translation Lookaside Buffer model.
 *
 * AstriFlash keeps virtual memory, so TLB behaviour matters in two
 * places: (1) the AstriFlash-noDP ablation, where a TLB miss can force
 * a page-table walk whose leaf PTE lives in flash, and (2) the OS-Swap
 * baseline, where page migration forces broadcast shootdowns. The TLB
 * itself is a plain set-associative tag array over virtual page
 * numbers; walk routing is decided by the system model.
 */

#ifndef ASTRIFLASH_MEM_TLB_HH
#define ASTRIFLASH_MEM_TLB_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/stats.hh"
#include "sim/ticks.hh"

#include "address.hh"
#include "set_assoc_cache.hh"

namespace astriflash::mem {

/** Two-level (L1 + L2) TLB with simple inclusive fill. */
class Tlb
{
  public:
    struct Config {
        std::uint32_t l1Entries = 48;
        std::uint32_t l1Ways = 48;    ///< L1 is fully associative.
        std::uint32_t l2Entries = 1280;
        std::uint32_t l2Ways = 5;
        sim::Ticks l2Latency = sim::nanoseconds(3);
        std::uint64_t pageSize = kPageSize;
    };

    struct Stats {
        sim::Counter l1Hits;
        sim::Counter l2Hits;
        sim::Counter misses;      ///< Full TLB misses (walk needed).
        sim::Counter shootdowns;  ///< Invalidations from remote cores.
    };

    /**
     * @param slab  Where both levels' tag arrays live, or null for the
     *              heap; see SetAssocCache.
     */
    Tlb(std::string name, const Config &config, TagSlab *slab = nullptr);

    /** Slab bytes both levels of a TLB of @p config take. */
    static std::size_t storageBytes(const Config &config);

    /** Lookup result. */
    struct Result {
        bool miss = false;        ///< Needs a page-table walk.
        sim::Ticks latency = 0;   ///< L1 hit is free; L2 adds latency.
    };

    /** Translate the page containing @p vaddr. */
    Result lookup(Addr vaddr);

    /**
     * Host prefetch hint for both levels' sets of the page holding
     * @p vaddr; see SetAssocCache::prefetch().
     */
    [[gnu::always_inline]] void
    prefetch(Addr vaddr) const
    {
        l1.prefetch(vaddr);
        l2.prefetch(vaddr);
    }

    /** Install a translation after a walk. */
    void fill(Addr vaddr);

    /** Invalidate one page (TLB shootdown target). */
    void invalidate(Addr vaddr);

    /** Invalidate everything (context switch without ASID). */
    void flushAll();

    const Stats &stats() const { return statsData; }

    /** Register this TLB's stats into @p reg. */
    void
    regStats(sim::StatRegistry &reg) const
    {
        reg.registerCounter("l1_hits", &statsData.l1Hits,
                            "translations served by the L1 TLB");
        reg.registerCounter("l2_hits", &statsData.l2Hits,
                            "translations served by the L2 TLB");
        reg.registerCounter("misses", &statsData.misses,
                            "translations requiring a page-table walk");
        reg.registerCounter("shootdowns", &statsData.shootdowns,
                            "pages invalidated by remote shootdowns");
    }
    const Config &config() const { return cfg; }

    /** Audit both levels' tag arrays. */
    void
    checkInvariants(sim::InvariantChecker &chk) const
    {
        l1.checkInvariants(chk);
        l2.checkInvariants(chk);
    }

  private:
    Config cfg;
    SetAssocCache l1;
    SetAssocCache l2;
    Stats statsData;
};

} // namespace astriflash::mem

#endif // ASTRIFLASH_MEM_TLB_HH
