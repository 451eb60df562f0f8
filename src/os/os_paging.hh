/**
 * @file
 * OS demand-paging baseline (OS-Swap, §II-C / §III-A).
 *
 * Models the traditional path the paper argues against: every DRAM
 * miss takes a page fault (OS entry, storage stack, NVMe submit), an
 * OS context switch to overlap the flash access, a page install on
 * arrival, and — when the install evicts a mapped victim — a broadcast
 * TLB shootdown. Shootdowns serialize on a global "bus" (IPI
 * broadcast + kernel lock), which is exactly why OS-Swap stops scaling
 * with core count (Fig. 2): the shootdown rate grows with cores while
 * the serialization point does not.
 */

#ifndef ASTRIFLASH_OS_OS_PAGING_HH
#define ASTRIFLASH_OS_OS_PAGING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "flash/fabric.hh"
#include "mem/address_map.hh"
#include "mem/set_assoc_cache.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

namespace astriflash::os {

/** Software-path cost parameters (literature-derived defaults). */
struct OsCosts {
    /** Fault entry + page-cache check + storage stack + NVMe submit
     *  (~3-10 µs in [9,49,50,65]; we charge the lean end). */
    sim::Ticks pageFault = sim::microseconds(3);
    /** OS context switch (~5 µs with scheduling [39,65,72]). */
    sim::Ticks contextSwitch = sim::microseconds(5);
    /** Shootdown initiator latency: base + per-core broadcast term
     *  (>10 µs at high core counts [4,46]). */
    sim::Ticks shootdownBase = sim::microseconds(2);
    sim::Ticks shootdownPerCore = sim::nanoseconds(250);
    /** IPI handling time stolen from every remote core. */
    sim::Ticks remoteInterrupt = sim::microseconds(1);
    /** Kernel page install + page-table update. */
    sim::Ticks install = sim::microseconds(1);
};

/**
 * Global TLB-shootdown serialization point.
 *
 * Broadcasts from all cores funnel through one logical resource
 * (kernel mmu lock + IPI fabric); each broadcast also steals
 * remoteInterrupt ticks from every other core.
 */
class TlbShootdownBus
{
  public:
    struct Stats {
        sim::Counter shootdowns;
        sim::Histogram initiatorLatency; ///< Ticks, incl. bus queueing.
    };

    TlbShootdownBus(const OsCosts &costs, std::uint32_t cores)
        : costs(costs), nCores(cores), stolen(cores, 0)
    {
    }

    /**
     * Issue a shootdown from @p initiator at @p now.
     * @return the tick the initiator may proceed.
     */
    sim::Ticks broadcast(sim::Ticks now, std::uint32_t initiator);

    /**
     * Drain the interruption time stolen from @p core by remote
     * shootdowns since the last call (the core adds it to its clock).
     */
    sim::Ticks takeStolen(std::uint32_t core);

    const Stats &stats() const { return statsData; }

    /** Register this bus's stats into @p reg. */
    void
    regStats(sim::StatRegistry &reg) const
    {
        reg.registerCounter("shootdowns", &statsData.shootdowns,
                            "TLB shootdown broadcasts issued");
        reg.registerHistogram("initiator_latency",
                              &statsData.initiatorLatency,
                              "initiator-side shootdown cost in ticks");
    }

  private:
    OsCosts costs;
    std::uint32_t nCores;
    sim::Ticks busBusyUntil = 0;
    std::vector<sim::Ticks> stolen;
    Stats statsData;
};

/** Result of an OS page fault. */
struct FaultResult {
    /** Tick the faulting thread's core may switch away (fault entry +
     *  I/O submit + context-switch-out complete). */
    sim::Ticks switchedOut = 0;
    /** Tick the faulting thread becomes runnable again (page
     *  installed, mappings fixed, shootdown done). */
    sim::Ticks runnable = 0;
};

/** OS-managed DRAM page cache over flash (the swap path). */
class OsPagingModel
{
  public:
    struct Stats {
        sim::Counter faults;
        sim::Counter evictions;
        sim::Counter dirtyWritebacks;
        sim::Histogram faultToRunnable; ///< Ticks.
    };

    /**
     * @param capacity  Bytes of DRAM used as the OS page cache.
     */
    OsPagingModel(std::string name, std::uint64_t capacity,
                  const OsCosts &costs, std::uint32_t cores,
                  flash::FlashFabric &flash,
                  const mem::AddressMap &amap);

    /** True if @p pa 's page is resident. */
    bool pageResident(mem::Addr pa) const;

    /** Touch a resident page (recency + dirtiness). */
    void touch(mem::Addr pa, bool write);

    /**
     * Handle a page fault for @p pa raised by @p core at @p now.
     * The caller parks the thread until FaultResult::runnable.
     */
    FaultResult pageFault(mem::Addr pa, bool write, sim::Ticks now,
                          std::uint32_t core);

    /** Warmup: install a page with no timing. */
    void prewarmPage(mem::Addr pa);

    /** Mark @p pa's page dirty if resident (LLC writeback landed). */
    void markDirty(mem::Addr pa) { pageCache.markDirty(pa); }

    /** Zero all statistics (end of warmup). */
    void
    resetStats()
    {
        statsData = Stats{};
    }

    TlbShootdownBus &bus() { return shootdownBus; }
    const Stats &stats() const { return statsData; }
    const OsCosts &costs() const { return costsData; }

    /**
     * Register paging stats into @p reg, with "bus" and "page_cache"
     * children.
     */
    void
    regStats(sim::StatRegistry &reg) const
    {
        reg.registerCounter("faults", &statsData.faults,
                            "page faults taken through the OS path");
        reg.registerCounter("evictions", &statsData.evictions,
                            "resident pages evicted by reclaim");
        reg.registerCounter("dirty_writebacks",
                            &statsData.dirtyWritebacks,
                            "evicted pages written back to flash");
        reg.registerHistogram("fault_to_runnable",
                              &statsData.faultToRunnable,
                              "fault entry to thread-runnable ticks");
        shootdownBus.regStats(reg.subRegistry("bus"));
        pageCache.regStats(reg.subRegistry("page_cache"));
    }

    /**
     * Audit the page cache's tag state and the fault/evict ledger.
     */
    void
    checkInvariants(sim::InvariantChecker &chk) const
    {
        pageCache.checkInvariants(chk);
        SIM_INVARIANT(chk,
                      statsData.dirtyWritebacks.value() <=
                          statsData.evictions.value());
        SIM_INVARIANT(chk,
                      statsData.faultToRunnable.count() ==
                          statsData.faults.value());
    }

  private:
    std::string modelName;
    OsCosts costsData;
    flash::FlashFabric &flashDev;
    const mem::AddressMap &addrMap;
    mem::SetAssocCache pageCache;
    TlbShootdownBus shootdownBus;
    Stats statsData;
};

} // namespace astriflash::os

#endif // ASTRIFLASH_OS_OS_PAGING_HH
