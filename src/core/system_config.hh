/**
 * @file
 * Evaluated system configurations (§V-B).
 */

#ifndef ASTRIFLASH_CORE_SYSTEM_CONFIG_HH
#define ASTRIFLASH_CORE_SYSTEM_CONFIG_HH

#include <cstdint>

#include "cpu/ooo_config.hh"
#include "flash/flash_config.hh"
#include "mem/tlb.hh"
#include "os/os_paging.hh"
#include "sim/ticks.hh"
#include "workload/workload.hh"

#include "dram_cache.hh"
#include "sched_model.hh"

namespace astriflash::core {

/** The seven configurations from §V-B. */
enum class SystemKind {
    DramOnly,        ///< Ideal: all data served from DRAM.
    AstriFlash,      ///< Full proposal, 100 ns thread switches.
    AstriFlashIdeal, ///< Free thread switches.
    AstriFlashNoPS,  ///< FIFO scheduling instead of priority+aging.
    AstriFlashNoDP,  ///< No DRAM partitioning: PTEs can live in flash.
    OsSwap,          ///< Traditional OS demand paging.
    FlashSync,       ///< FlatFlash-style synchronous flash access.
};

/** Printable configuration name. */
const char *systemKindName(SystemKind kind);

/** True for any of the four AstriFlash variants. */
constexpr bool
isAstriFlash(SystemKind kind)
{
    return kind == SystemKind::AstriFlash ||
           kind == SystemKind::AstriFlashIdeal ||
           kind == SystemKind::AstriFlashNoPS ||
           kind == SystemKind::AstriFlashNoDP;
}

/** Full system parameterization. */
struct SystemConfig {
    SystemKind kind = SystemKind::AstriFlash;
    std::uint32_t cores = 4;

    workload::Kind workloadKind = workload::Kind::Tatp;
    workload::WorkloadConfig workload;

    /** DRAM-cache capacity as a fraction of the dataset (§II-A). */
    double dramCacheRatio = 0.03;

    DramCacheConfig dramCache; ///< capacityBytes derived at build.
    flash::FlashConfig flash;  ///< geometry derived at build.
    cpu::OoOConfig core;
    SchedulerModel::Config sched;
    os::OsCosts osCosts;
    mem::Tlb::Config tlb;

    /** User-level thread switch cost (100 ns; 0 in -Ideal). */
    sim::Ticks threadSwitch = sim::nanoseconds(100);
    /**
     * Forward-progress bit (§IV-C3): a rescheduled thread's faulting
     * access completes synchronously so it retires at least one
     * instruction. Disabling this exposes the livelock the mechanism
     * exists to prevent (a rescheduled thread can find its page
     * evicted again and bounce forever under cache thrash).
     */
    bool forwardProgressBit = true;
    /** Page-walk cost when page tables are DRAM-resident. */
    sim::Ticks walkCached = sim::nanoseconds(40);

    /** Open-loop arrivals (tail-latency methodology). 0 = closed loop
     *  (max-throughput methodology). System-wide mean gap. */
    sim::Ticks meanInterarrival = 0;

    /** Jobs completed across all cores before stats reset. */
    std::uint64_t warmupJobs = 2000;
    /** Jobs measured after warmup. */
    std::uint64_t measureJobs = 20000;

    /** Core burst quantum: bounds cross-core timing skew. */
    sim::Ticks quantum = sim::microseconds(2);

    /** Hard wall on simulated time (runaway protection). */
    sim::Ticks maxSimTicks = sim::milliseconds(10000);

    /**
     * Gap between whole-system invariant sweeps while checks are
     * armed (see sim/invariant.hh); 0 disables periodic sweeps. A
     * final sweep always runs at quiesce. Sweeps happen between run
     * events, never from a scheduled event, so an otherwise-drained
     * queue still terminates the simulation.
     */
    sim::Ticks invariantInterval = sim::microseconds(200);

    std::uint64_t seed = 1;

    /**
     * Nonzero: permute same-tick event tie-breaking with this seed
     * (determinism shake-out, tools/detshake). Requires a checks
     * build — the perturbation hook is compiled out of plain Release.
     * 0 (the default) is the exact production ordering.
     */
    std::uint64_t tieBreakSeed = 0;

    /**
     * No-op, kept only because the host-time benchmark still sets it
     * (bench/astribench). Every run executes on the calling thread
     * whatever its value (DESIGN.md §19).
     */
    unsigned hostJobs = 1;

    /** Apply the per-kind knob settings (switch cost, policy, DP). */
    void applyKindDefaults();
};

} // namespace astriflash::core

#endif // ASTRIFLASH_CORE_SYSTEM_CONFIG_HH
