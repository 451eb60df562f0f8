#include "sim_core.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/trace_events.hh"

#include "system.hh"

namespace astriflash::core {

SimCore::SimCore(sim::EventQueue &eq, std::string name, std::uint32_t id,
                 System &system)
    : sim::SimObject(eq, std::move(name)), coreId(id), sys(system),
      sched(system.config().sched),
      tlbModel(SimObject::name() + ".tlb", system.config().tlb),
      hier(SimObject::name(), mem::defaultHierarchyConfig()),
      asoEngine(system.config().core)
{
    // The runtime installs the scheduler handler through the verified
    // privileged path at process start (§IV-C2).
    handlerRegs.setHandler(0x1000, /*privileged=*/true);
}

void
SimCore::start()
{
    idle = false;
    scheduleIn(0, [this] { run(); }, eventPrio(false));
}

void
SimCore::kick()
{
    if (idle) {
        idle = false;
        scheduleIn(0, [this] { run(); }, eventPrio(false));
    }
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
    if (job.pendingSince != 0 && sys.config().forwardProgressBit) {
        forceProgress = true;
        handlerRegs.armForwardProgress(job.id);
    } else {
        forceProgress = false;
    }
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
SimCore::storeHit(mem::Addr pa)
{
    // The store retires into the SB and its DRAM-cache (or on-chip)
    // access completes: the ASO engine frees its snapshot.
    if (asoEngine.dispatchStore(pa) == cpu::AsoDispatch::Ok)
        asoEngine.completeOldestStore();
}

void
SimCore::storeAborted(mem::Addr pa)
{
    // The committed store missed the DRAM cache: roll back (§IV-C4).
    if (asoEngine.dispatchStore(pa) == cpu::AsoDispatch::Ok)
        asoEngine.abortOldestStore();
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
            handlerRegs.clearForwardProgress();
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
            storeAborted(pa);
        handlerRegs.recordMiss(current->id);
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
            scheduleIn(t > now ? t - now : 0, [this] { run(); },
                       eventPrio(false));
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
        // Register pressure model: roughly one renamed destination
        // per access interval (§IV-C4 sizes four per store).
        asoEngine.writeReg(
            static_cast<std::uint32_t>(renameCursor++ %
                                       cfg.core.archRegs));

        const auto tr = tlbModel.lookup(op.addr);
        t += tr.latency;
        if (tr.miss)
            t = pageWalk(op.addr, t);

        const mem::Addr pa = sys.dataPa(op.addr);
        const auto h = hier.access(pa, write);
        t += h.latency;
        if (!h.llcMiss) {
            if (write)
                storeHit(pa);
            ++job.nextOp;
            continue;
        }
        sim::traceEvent(sim::TracePoint::LlcMiss, t, coreId, pa,
                        job.id);
        for (mem::Addr wb : hier.writebacks())
            sys.noteLlcWriteback(wb);

        // MSHR occupancy accounting around the memory access: the
        // entry is logically held from the LLC miss until the memory
        // system answers (data, or the AstriFlash miss response). The
        // release declares that future tick immediately — the file
        // never stalls the timing model, it measures hold times.
        hier.mshrs().allocate(pa, t);
        const MemOutcome mo = memAccess(pa, write, t);
        hier.mshrs().release(pa, mo.respondedAt);
        if (mo.kind == MemOutcome::Kind::Done) {
            hier.fillFromMemory(pa, write);
            for (mem::Addr wb : hier.writebacks())
                sys.noteLlcWriteback(wb);
            if (write)
                storeHit(pa);
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
    asoEngine.regStats(reg.subRegistry("aso"));
}

} // namespace astriflash::core
