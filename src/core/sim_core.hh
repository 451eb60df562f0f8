/**
 * @file
 * Timing model of one core executing user-level threads.
 *
 * Each core runs jobs pulled from its scheduler, consuming op streams:
 * compute intervals advance the local clock; memory accesses traverse
 * the TLB, the private cache hierarchy, and the configuration's memory
 * backend. The switch-on-miss control path (§IV-C) is charged
 * explicitly: miss response, ROB flush, handler entry, user-level
 * thread switch. The OS-Swap and Flash-Sync baselines reuse the same
 * execution engine with their respective miss paths.
 *
 * Execution is burst-based: a core processes ops synchronously until a
 * switch point or the configured quantum, then re-schedules itself,
 * bounding cross-core timing skew to the quantum.
 */

#ifndef ASTRIFLASH_CORE_SIM_CORE_HH
#define ASTRIFLASH_CORE_SIM_CORE_HH

#include <memory>
#include <optional>

#include "mem/address_map.hh"
#include "mem/cache_hierarchy.hh"
#include "mem/dram.hh"
#include "mem/page_table.hh"
#include "mem/tlb.hh"
#include "os/os_paging.hh"
#include "sim/sim_object.hh"
#include "workload/workload.hh"

#include "dram_cache.hh"
#include "sched_model.hh"
#include "system_config.hh"

namespace astriflash::core {

class System;

/** One simulated core plus its private memory-side state. */
class SimCore : public sim::SimObject
{
  public:
    struct Stats {
        sim::Counter jobsCompleted;
        sim::Counter switchOnMiss;   ///< Thread switches taken.
        sim::Counter syncMissStalls; ///< Forward-progress sync waits.
        sim::Counter osFaults;
        sim::Counter walkFlashStalls; ///< noDP PTE-from-flash walks.
        sim::Ticks busyTicks = 0;     ///< Executing (not idle).
    };

    SimCore(sim::EventQueue &eq, std::string name, std::uint32_t id,
            System &system);

    /** Begin executing (schedules the first run event). */
    void start();

    /** Wake the core if idle (new arrival or page ready). */
    void kick();

    /**
     * Notification that @p page will be ready at @p when (from the
     * DRAM cache fill path or the OS install path).
     */
    void pageReady(mem::PageNum page, sim::Ticks when);

    SchedulerModel &scheduler() { return sched; }
    const SchedulerModel &scheduler() const { return sched; }
    mem::Tlb &tlb() { return tlbModel; }
    mem::CacheHierarchy &hierarchy() { return hier; }
    const Stats &stats() const { return statsData; }
    std::uint32_t id() const { return coreId; }

    /** Zero per-core statistics (end of warmup). */
    void resetStats() { statsData = Stats{}; }

    /**
     * Register this core's stats into @p reg, with "sched", "tlb",
     * "hier", and "aso" children for the owned structures and the
     * store counts.
     */
    void regStats(sim::StatRegistry &reg) const;

  private:
    /** Outcome of one memory access at the system level. */
    struct MemOutcome {
        enum class Kind {
            Done,   ///< Data ready at doneAt; continue the job.
            Parked, ///< Job halted on a miss; core free at freeAt.
        } kind = Kind::Done;
        sim::Ticks doneAt = 0;
        sim::Ticks freeAt = 0;
        /** Tick the memory system answered the core — data for Done,
         *  the miss *response* for Parked. The LLC MSHR entry is held
         *  exactly this long (§IV-B: the miss response exists to
         *  reclaim it ns after the probe instead of pinning it for
         *  the full flash access). */
        sim::Ticks respondedAt = 0;
        mem::PageNum page{0}; ///< Parked: page the job waits on.
    };

    /**
     * Fixed same-tick arbitration slot for this core's events
     * (DESIGN.md §14). Cores arbitrate by id, and a core's page-ready
     * delivery precedes its execution resume, so same-tick core events
     * never share a (tick, priority) pair and their order can never
     * depend on scheduling luck. The band sits above Default: memory-
     * system and arrival events at the same tick complete before any
     * core resumes.
     */
    sim::EventPriority
    eventPrio(bool delivery) const
    {
        return static_cast<sim::EventPriority>(
            static_cast<int>(sim::EventPriority::Default) + 1 +
            static_cast<int>(coreId) * 2 + (delivery ? 0 : 1));
    }

    /** Main execution event: run the current job for up to a quantum. */
    void run();

    /** Schedule run() @p delta ticks from now, with its warm hook. */
    void scheduleRun(sim::Ticks delta);

    /**
     * Warm hook of the run() events (EventQueue::Warm, DESIGN.md
     * §9.4): hints the current job's next memory op.
     */
    static void warm(void *self);

    /** Pick the next runnable job; returns false if the core idles. */
    bool pickJob(sim::Ticks now);

    /**
     * Execute one memory access of the current job at local time @p t.
     * May park the job (switch-on-miss / page fault).
     */
    MemOutcome memAccess(mem::Addr va, bool write, sim::Ticks t);

    /** TLB miss service; may stall on flash in the noDP config. */
    sim::Ticks pageWalk(mem::Addr va, sim::Ticks t);

    /** Count a store whose access hit / missed (the "aso" stats). */
    void storeHit();
    void storeAborted();

    /** Finish the current job at @p t. */
    void completeJob(sim::Ticks t);

    std::uint32_t coreId;
    System &sys;
    SchedulerModel sched;
    mem::Tlb tlbModel;
    mem::CacheHierarchy hier;

    std::optional<workload::Job> current;
    /**
     * Monotone local time cursor: the last local tick this core
     * simulated through. A core bursts ahead of the global clock, so
     * a wake (page ready, new arrival) can fire at a global tick the
     * core has already lived past — it was busy switching out until
     * the cursor. run() clamps its start time here; resuming earlier
     * would be local time travel and breaks the scheduler's
     * park-order invariant (DESIGN.md §14).
     */
    sim::Ticks localCursor = 0;
    bool idle = true;
    bool blockedOnPendingFull = false;
    /** Set when resuming a previously-missed job: the next access
     *  completes synchronously (forward-progress bit, §IV-C3). */
    bool forceProgress = false;
    Stats statsData;
    /**
     * The "aso" stats: counts of the memory ops and stores that ASO
     * post-retirement speculation (§IV-C4) would rename and buffer.
     * They span warm-up and measurement, so resetStats() leaves them.
     */
    struct {
        sim::Counter renames;
        sim::Counter storesDispatched;
        sim::Counter storesCompleted;
        sim::Counter storesAborted;
    } asoData;
};

} // namespace astriflash::core

#endif // ASTRIFLASH_CORE_SIM_CORE_HH
