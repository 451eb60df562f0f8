#include "sim_core.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/trace_events.hh"

#include "system.hh"

namespace astriflash::core {

namespace {

/**
 * Ops hintAccess() scans for a memory op. Jobs alternate compute and
 * memory ops, so the next memory op is at most two ops on.
 */
constexpr std::size_t kHintScan = 4;

/** Backs the "aso" leaves that are 0 by construction. */
const sim::Counter kNeverCounted;

/**
 * Host prefetch hints for the first memory op of @p job at or after
 * op @p from, if one is near: the TLB sets of its virtual address and
 * the hierarchy sets of its physical one. Reads only (DESIGN.md §9.4).
 */
[[gnu::always_inline]] inline void
hintAccess(const workload::Job &job, std::size_t from, const mem::Tlb &tlb,
           const mem::CacheHierarchy &hier, const System &sys)
{
    const std::size_t end = std::min(job.ops.size(), from + kHintScan);
    for (std::size_t i = from; i < end; ++i) {
        const workload::Op &op = job.ops[i];
        if (op.type != workload::Op::Type::Compute) {
            tlb.prefetch(op.addr);
            hier.prefetch(sys.dataPa(op.addr));
            return;
        }
    }
}

} // namespace

SimCore::SimCore(sim::EventQueue &eq, std::string name, std::uint32_t id,
                 System &system)
    : sim::SimObject(eq, std::move(name)), coreId(id), sys(system),
      sched(system.config().sched),
      tlbModel(SimObject::name() + ".tlb", system.config().tlb,
               &system.tagSlab()),
      hier(SimObject::name(), mem::defaultHierarchyConfig(),
           &system.tagSlab())
{
}

void
SimCore::start()
{
    idle = false;
    scheduleRun(0);
}

void
SimCore::kick()
{
    if (idle) {
        idle = false;
        scheduleRun(0);
    }
}

void
SimCore::scheduleRun(sim::Ticks delta)
{
    scheduleIn(delta, [this] { run(); }, eventPrio(false),
               {&SimCore::warm, this});
}

void
SimCore::warm(void *self)
{
    const auto *core = static_cast<const SimCore *>(self);
    if (core->current)
        hintAccess(*core->current, core->current->nextOp, core->tlbModel,
                   core->hier, core->sys);
}

void
SimCore::pageReady(mem::PageNum page, sim::Ticks when)
{
    const sim::Ticks now = curTick();
    const sim::Ticks delta = when > now ? when - now : 0;
    scheduleIn(
        delta,
        [this, page] {
            sched.pageReady(page, curTick());
            kick();
        },
        eventPrio(true));
}

bool
SimCore::pickJob(sim::Ticks now)
{
    for (;;) {
        std::optional<workload::Job> next;
        if (blockedOnPendingFull) {
            // Overflow rule (§IV-D1): the core only resumes once the
            // oldest halted work becomes runnable.
            next = sched.pickPendingReady();
            if (!next)
                return false;
            blockedOnPendingFull = false;
        } else {
            // Keep the new-job queue primed so the policy genuinely
            // chooses between new and pending work (closed loop).
            if (sched.newCount() == 0) {
                workload::Job fresh;
                if (sys.supplyJob(coreId, now, fresh))
                    sched.enqueueNew(std::move(fresh));
            }
            next = sched.pickNext(now);
            if (!next)
                return false;
        }
        current = std::move(*next);
        break;
    }
    workload::Job &job = *current;
    if (job.started == 0) {
        job.started = now;
        sim::traceEvent(sim::TracePoint::JobStart, now, coreId, 0,
                        job.id);
    }
    if (job.pendingSince != 0) {
        sim::traceEvent(sim::TracePoint::ThreadResume, now, coreId, 0,
                        job.id);
    }
    // A job with pendingSince set is resuming after a miss: arm the
    // forward-progress bit so its faulting access retires (§IV-C3).
    forceProgress =
        job.pendingSince != 0 && sys.config().forwardProgressBit;
    return true;
}

sim::Ticks
SimCore::pageWalk(mem::Addr va, sim::Ticks t)
{
    const SystemConfig &cfg = sys.config();
    // Upper levels hit the on-chip caches / flat DRAM partition.
    sim::Ticks done = t + cfg.walkCached;
    if (cfg.kind == SystemKind::AstriFlashNoDP) {
        // Without DRAM partitioning the leaf PTE lives in the cached
        // flash address space. The walker fetches PTEs through the
        // data-cache hierarchy (hot PTE blocks stay on chip); a cold
        // walk blocks on flash because walks are serialized (§IV-A).
        const mem::Addr pte_pa = sys.leafPtePa(va);
        const auto h = hier.access(pte_pa, false);
        done += h.latency;
        if (h.llcMiss) {
            const bool resident =
                sys.dramCache()->pageResident(pte_pa);
            done = sys.dramCache()->accessSync(pte_pa, false, done);
            hier.fillFromMemory(pte_pa, false);
            if (!resident)
                statsData.walkFlashStalls.inc();
        }
    }
    tlbModel.fill(va);
    return done;
}

void
SimCore::storeHit()
{
    // The store's DRAM-cache (or on-chip) access completed.
    asoData.storesDispatched.inc();
    asoData.storesCompleted.inc();
}

void
SimCore::storeAborted()
{
    // The committed store missed the DRAM cache: ASO would roll back
    // to it (§IV-C4); the flush cost covers that.
    asoData.storesDispatched.inc();
    asoData.storesAborted.inc();
}

SimCore::MemOutcome
SimCore::memAccess(mem::Addr pa, bool write, sim::Ticks t)
{
    const SystemConfig &cfg = sys.config();
    MemOutcome mo;

    switch (cfg.kind) {
      case SystemKind::DramOnly:
        mo.doneAt = sys.flatDramAccess(pa, write, t);
        mo.respondedAt = mo.doneAt;
        return mo;

      case SystemKind::FlashSync: {
        // The core synchronously waits out the flash access — and the
        // MSHR entry is pinned for the whole flash latency.
        const bool resident = sys.dramCache()->pageResident(pa);
        mo.doneAt = sys.dramCache()->accessSync(pa, write, t);
        mo.respondedAt = mo.doneAt;
        if (!resident)
            statsData.syncMissStalls.inc();
        return mo;
      }

      case SystemKind::AstriFlash:
      case SystemKind::AstriFlashIdeal:
      case SystemKind::AstriFlashNoPS:
      case SystemKind::AstriFlashNoDP: {
        if (forceProgress) {
            // Forward-progress bit set: FC completes the access
            // synchronously even on a miss.
            const bool resident = sys.dramCache()->pageResident(pa);
            mo.doneAt = sys.dramCache()->accessSync(pa, write, t);
            mo.respondedAt = mo.doneAt;
            if (!resident)
                statsData.syncMissStalls.inc();
            forceProgress = false;
            return mo;
        }
        const DcAccess res =
            sys.dramCache()->access(pa, write, t, coreId);
        if (res.hit) {
            mo.doneAt = res.ready;
            mo.respondedAt = mo.doneAt;
            return mo;
        }
        // Switch-on-miss: the miss signal reaches the core, the ROB
        // is flushed, the PC vectors to the handler, and the user-
        // level scheduler switches threads.
        if (write)
            storeAborted();
        mo.kind = MemOutcome::Kind::Parked;
        mo.respondedAt = res.ready; // miss response frees the MSHR
        mo.freeAt = res.ready + cfg.core.robFlushCost() +
                    cfg.core.handlerEntryCost() + cfg.threadSwitch;
        mo.page = mem::pageNumber(pa);
        statsData.switchOnMiss.inc();
        return mo;
      }

      case SystemKind::OsSwap: {
        os::OsPagingModel *os_model = sys.osPaging();
        if (os_model->pageResident(pa)) {
            os_model->touch(pa, write);
            mo.doneAt = sys.flatDramAccess(pa, write, t);
            mo.respondedAt = mo.doneAt;
            return mo;
        }
        statsData.osFaults.inc();
        const os::FaultResult fr =
            os_model->pageFault(pa, write, t, coreId);
        pageReady(mem::pageNumber(pa), fr.runnable);
        mo.kind = MemOutcome::Kind::Parked;
        mo.respondedAt = fr.switchedOut; // fault handler owns it now
        mo.freeAt = fr.switchedOut;
        mo.page = mem::pageNumber(pa);
        return mo;
      }
    }
    ASTRI_PANIC("unhandled system kind");
}

void
SimCore::completeJob(sim::Ticks t)
{
    workload::Job &job = *current;
    job.finished = t;
    job.service = t - job.started;
    statsData.jobsCompleted.inc();
    sim::traceEvent(sim::TracePoint::JobFinish, t, coreId, 0, job.id);
    sys.jobFinished(job, t);
    current.reset();
}

void
SimCore::run()
{
    idle = false;
    const SystemConfig &cfg = sys.config();
    // Never restart behind the local cursor: the core was busy
    // (switching out, completing) until then, even if the waking
    // event fired at an earlier global tick.
    sim::Ticks t = std::max(curTick(), localCursor);

    // Absorb interruption time stolen by remote TLB shootdowns.
    if (cfg.kind == SystemKind::OsSwap)
        t += sys.osPaging()->bus().takeStolen(coreId);

    if (!current) {
        if (!pickJob(t)) {
            localCursor = t;
            idle = true;
            return;
        }
        if (cfg.kind == SystemKind::OsSwap &&
            current->pendingSince != 0) {
            t += cfg.osCosts.contextSwitch; // switch back in
        }
    }

    const sim::Ticks burst_start = t;
    while (true) {
        if (t - burst_start >= cfg.quantum) {
            // Yield to keep cross-core timing skew bounded.
            statsData.busyTicks += t - burst_start;
            localCursor = t;
            const sim::Ticks now = curTick();
            scheduleRun(t > now ? t - now : 0);
            return;
        }

        workload::Job &job = *current;
        if (job.done()) {
            completeJob(t);
            if (!pickJob(t)) {
                statsData.busyTicks += t - burst_start;
                localCursor = t;
                idle = true;
                return;
            }
            if (cfg.kind == SystemKind::OsSwap &&
                current->pendingSince != 0) {
                t += cfg.osCosts.contextSwitch;
            }
            continue;
        }

        const workload::Op &op = job.ops[job.nextOp];
        if (op.type == workload::Op::Type::Compute) {
            t += op.compute;
            ++job.nextOp;
            continue;
        }

        const bool write = op.type == workload::Op::Type::Store;
        // One op ahead: the next access's sets load while this one
        // walks its own.
        hintAccess(job, std::size_t{job.nextOp} + 1, tlbModel, hier, sys);
        // Roughly one renamed destination per access interval
        // (§IV-C4 sizes four per store); retries count again.
        asoData.renames.inc();

        const auto tr = tlbModel.lookup(op.addr);
        t += tr.latency;
        if (tr.miss)
            t = pageWalk(op.addr, t);

        const mem::Addr pa = sys.dataPa(op.addr);
        const auto h = hier.access(pa, write);
        t += h.latency;
        if (!h.llcMiss) {
            if (write)
                storeHit();
            ++job.nextOp;
            continue;
        }
        sim::traceEvent(sim::TracePoint::LlcMiss, t, coreId, pa,
                        job.id);
        for (mem::Addr wb : hier.writebacks())
            sys.noteLlcWriteback(wb);

        // MSHR hold time: the entry is logically held from the LLC
        // miss until the memory system answers (data, or the
        // AstriFlash miss response), a future tick recorded at once —
        // the file never stalls the timing model. Its histogram
        // bucket loads while the memory system works.
        hier.mshrs().prefetch();
        const MemOutcome mo = memAccess(pa, write, t);
        hier.mshrs().record(t, mo.respondedAt);
        if (mo.kind == MemOutcome::Kind::Done) {
            hier.fillFromMemory(pa, write);
            for (mem::Addr wb : hier.writebacks())
                sys.noteLlcWriteback(wb);
            if (write)
                storeHit();
            t = mo.doneAt;
            ++job.nextOp;
            continue;
        }

        // Parked on a miss: the job resumes at this op later.
        workload::Job halted = std::move(*current);
        current.reset();
        ++halted.misses;
        sim::traceEvent(sim::TracePoint::ThreadPark, t, coreId,
                        mem::pageAddr(mo.page), halted.id);
        sched.parkOnMiss(std::move(halted), mo.page, t);
        if (sched.pendingFull()) {
            sched.notePendingOverflow();
            blockedOnPendingFull = true;
        }
        t = mo.freeAt;
        if (!pickJob(t)) {
            statsData.busyTicks += t - burst_start;
            localCursor = t;
            idle = true;
            return;
        }
        if (cfg.kind == SystemKind::OsSwap &&
            current->pendingSince != 0) {
            t += cfg.osCosts.contextSwitch;
        }
    }
}

void
SimCore::regStats(sim::StatRegistry &reg) const
{
    reg.registerCounter("jobs_completed", &statsData.jobsCompleted,
                        "jobs run to completion on this core");
    reg.registerCounter("switch_on_miss", &statsData.switchOnMiss,
                        "DRAM-cache misses that switched threads");
    reg.registerCounter("sync_miss_stalls", &statsData.syncMissStalls,
                        "misses served synchronously (core stalled)");
    reg.registerCounter("os_faults", &statsData.osFaults,
                        "page faults taken through the OS path");
    reg.registerCounter("walk_flash_stalls",
                        &statsData.walkFlashStalls,
                        "page-table walks that touched flash");
    reg.registerUint("busy_ticks", &statsData.busyTicks,
                     "ticks spent executing jobs");
    sched.regStats(reg.subRegistry("sched"));
    tlbModel.regStats(reg.subRegistry("tlb"));
    hier.regStats(reg.subRegistry("hier"));
    sim::StatRegistry &aso = reg.subRegistry("aso");
    aso.registerCounter("renames", &asoData.renames,
                        "memory ops issued, resumed retries included");
    aso.registerCounter("stores_dispatched", &asoData.storesDispatched,
                        "stores issued (completed + aborted)");
    aso.registerCounter("stores_completed", &asoData.storesCompleted,
                        "stores whose access completed");
    aso.registerCounter("stores_aborted", &asoData.storesAborted,
                        "stores that missed the DRAM cache and "
                        "switched threads");
    // No store outlives its access, so nothing is ever rolled back or
    // stalled on; the leaves stay for the stats schema (DESIGN.md §7).
    aso.registerCounter("renames_rolled_back", &kNeverCounted,
                        "always 0: no rename is younger than an "
                        "aborting store");
    aso.registerCounter("sb_full_stalls", &kNeverCounted,
                        "always 0: at most one store is in flight");
    aso.registerCounter("prf_stalls", &kNeverCounted,
                        "always 0: no store holds registers past its "
                        "access");
}

} // namespace astriflash::core
