/**
 * @file
 * Full-system assembly and measurement harness.
 *
 * Builds one of the seven §V-B configurations: cores (with TLBs,
 * cache hierarchies, ASO engines and schedulers), the DRAM cache with
 * its controllers, the flash device, the flat-DRAM partition, and the
 * OS paging model for the baseline. Drives closed-loop (maximum
 * throughput) or open-loop Poisson (tail latency) job streams and
 * collects the paper's metrics: throughput, service-time and
 * response-time distributions.
 */

#ifndef ASTRIFLASH_CORE_SYSTEM_HH
#define ASTRIFLASH_CORE_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "flash/fabric.hh"
#include "mem/address_map.hh"
#include "mem/dram.hh"
#include "mem/page_table.hh"
#include "sim/causality.hh"
#include "sim/event_queue.hh"
#include "sim/invariant.hh"
#include "sim/parallel_engine.hh"
#include "sim/stats.hh"
#include "workload/workload.hh"

#include "dram_cache.hh"
#include "sim_core.hh"
#include "system_config.hh"

namespace astriflash::core {

/**
 * End-of-run measurement summary.
 *
 * The latency metrics are carried as full distributions rather than a
 * fixed menu of pre-derived scalars: callers query any quantile via
 * serviceUs()/responseUs() (or work on the Histograms directly), so
 * bench code no longer re-implements percentile math.
 */
struct RunResults {
    std::uint64_t jobs = 0;          ///< Jobs measured.
    sim::Ticks measureTicks = 0;     ///< Measurement window length.
    double throughputJobsPerSec = 0; ///< Aggregate.

    /** Service time = started -> finished (includes flash waits,
     *  excludes job-queue time), in ticks. */
    sim::Histogram service;
    /** Response time = arrival -> finished, in ticks. */
    sim::Histogram response;

    /** Service-time quantile @p q (e.g. 0.99) in microseconds. */
    double
    serviceUs(double q) const
    {
        return static_cast<double>(service.percentile(q)) /
               sim::kMicrosecond;
    }

    /** Response-time quantile @p q in microseconds. */
    double
    responseUs(double q) const
    {
        return static_cast<double>(response.percentile(q)) /
               sim::kMicrosecond;
    }

    double avgServiceUs() const { return service.mean() / sim::kMicrosecond; }
    double avgResponseUs() const { return response.mean() / sim::kMicrosecond; }

    double dramCacheHitRatio = 0;
    double avgExecBetweenMissesUs = 0; ///< Calibration check (5-25 µs).
    std::uint64_t flashReads = 0;
    std::uint64_t flashWrites = 0;
    std::uint64_t gcBlockedReads = 0;
    std::uint64_t shootdowns = 0;
    std::uint64_t peakOutstandingMisses = 0;

    /** Whole-system invariant sweeps completed (0 if checks off). */
    std::uint64_t invariantSweeps = 0;
    /** Individual invariant conditions evaluated across sweeps. */
    std::uint64_t invariantChecks = 0;
    /** Invariant violations found (always 0 unless fail-fast is off). */
    std::uint64_t invariantViolations = 0;
};

/** One simulated machine. */
class System
{
  public:
    explicit System(const SystemConfig &config);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Run warmup + measurement; returns the measured summary. */
    RunResults run();

    /**
     * Component-tree statistics registry. Every simulated component
     * registers under a stable dotted namespace (e.g.
     * "dcache.bc.msr.occupancy", "core0.sched.scheduled_new"); dump
     * it as text or JSON via sim::StatRegistry after run().
     */
    sim::StatRegistry &statsRegistry() { return statsTree; }
    const sim::StatRegistry &statsRegistry() const { return statsTree; }

    /**
     * Component invariant hooks, registered at construction under the
     * same dotted names as the stats tree. Sweeps run between event
     * bursts every SystemConfig::invariantInterval ticks while checks
     * are armed, and once at quiesce. Tests can setFailFast(false) to
     * collect violations instead of panicking.
     */
    sim::InvariantRegistry &invariantRegistry() { return invariants; }

    /**
     * Causality auditor certifying the channel lookahead manifest
     * and FIFO/monotonicity contracts (DESIGN.md §14). Armed with
     * the checks gate; registered as the "causality" invariant
     * component.
     */
    sim::CausalityAuditor &causalityAuditor() { return auditor; }
    const sim::CausalityAuditor &causalityAuditor() const
    {
        return auditor;
    }

    /**
     * Replace the built-in generators with an external job source
     * (e.g. a workload::TraceReader). Must be set before run(); the
     * source is shared across cores and called in a deterministic
     * order.
     */
    using JobSource = std::function<workload::Job(std::uint32_t core)>;
    void setJobSource(JobSource source) { jobSource = std::move(source); }

    const SystemConfig &config() const { return cfg; }
    sim::EventQueue &eventQueue() { return eq; }

    /** Events executed on the system's event queue. */
    std::uint64_t eventsExecuted() const { return eq.executed(); }

    /**
     * Run-loop telemetry from the last run() (zeroes before the
     * first): rounds and events executed. Deliberately NOT in the
     * stats tree: host bookkeeping must never move golden bytes, the
     * same rule the causality auditor follows.
     */
    const sim::ParallelEngine::Stats &
    engineStats() const
    {
        return engineStatsData;
    }
    DramCache *dramCache() { return dcache.get(); }
    flash::FlashFabric &flash() { return *flashDev; }
    const mem::AddressMap &addressMap() const { return *amap; }
    os::OsPagingModel *osPaging() { return osModel.get(); }
    SimCore &coreAt(std::uint32_t i) { return *cores[i]; }

    // --- Interface used by SimCore -------------------------------

    /** Physical (flash BAR) address of a dataset-relative address. */
    mem::Addr dataPa(mem::Addr va) const;

    /** Leaf-PTE physical address for a data virtual address (noDP). */
    mem::Addr leafPtePa(mem::Addr va) const;

    /** Flat-partition DRAM access (DRAM-only backend, PTE traffic). */
    sim::Ticks flatDramAccess(mem::Addr pa, bool write, sim::Ticks t);

    /** A dirty block left the LLC: mark its page dirty in the backing
     *  page store so evictions write back to flash. */
    void noteLlcWriteback(mem::Addr pa);

    /**
     * Pull a new job for @p core (closed loop) or from its arrival
     * queue. Returns false when the measurement target is reached.
     */
    bool supplyJob(std::uint32_t core, sim::Ticks now,
                   workload::Job &job);

    /** A job finished: record metrics, advance the phase machine. */
    void jobFinished(const workload::Job &job, sim::Ticks now);

    /** True once the measured-job target has been reached. */
    bool measurementDone() const { return phase == Phase::Done; }

    /** True while jobs count toward statistics. */
    bool measuring() const { return phase == Phase::Measure; }

  private:
    enum class Phase { Warmup, Measure, Done };

    void buildMemorySystem();
    void prewarm();
    void scheduleNextArrival();
    void beginMeasurement(sim::Ticks now);

    /** Build the component stat tree (end of construction). */
    void registerStats();

    /** Register every component's invariant hook (construction). */
    void registerInvariants();

    SystemConfig cfg;
    /** Declared before the event queue and every channel owner so it
     *  outlives all components that hold hooks into it. */
    sim::CausalityAuditor auditor;
    sim::EventQueue eq;
    sim::ParallelEngine::Stats engineStatsData;

    std::unique_ptr<mem::AddressMap> amap;
    std::unique_ptr<mem::PageTableModel> ptModel;
    std::unique_ptr<flash::FlashFabric> flashDev;
    std::unique_ptr<DramCache> dcache;
    std::unique_ptr<mem::Dram> flatDram;
    std::unique_ptr<os::OsPagingModel> osModel;
    std::vector<std::unique_ptr<workload::Workload>> gens; // per core
    std::vector<std::unique_ptr<SimCore>> cores;
    JobSource jobSource; ///< Optional external generator override.

    // Open-loop arrival machinery.
    std::unique_ptr<workload::PoissonArrivals> arrivals;
    std::uint32_t nextArrivalCore = 0;
    std::uint64_t arrivalsIssued = 0;

    Phase phase = Phase::Warmup;
    std::uint64_t completedJobs = 0;
    std::uint64_t measuredJobs = 0;
    sim::Ticks measureStart = 0;
    sim::Ticks measureEnd = 0;

    sim::Histogram serviceHist;  ///< Ticks.
    sim::Histogram responseHist; ///< Ticks.
    std::uint64_t measuredMisses = 0;

    sim::StatRegistry statsTree;
    sim::InvariantRegistry invariants;
};

} // namespace astriflash::core

#endif // ASTRIFLASH_CORE_SYSTEM_HH
