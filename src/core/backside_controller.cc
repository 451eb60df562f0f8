#include "backside_controller.hh"

#include <bit>

#include "sim/logging.hh"
#include "sim/trace_events.hh"

namespace {
constexpr std::uint32_t kNoCore =
    astriflash::sim::TraceRecord::kNoCore;
} // namespace

namespace astriflash::core {

BacksideController::BacksideController(
    sim::EventQueue &eq, std::string name,
    const DramCacheConfig &config, const mem::AddressMap &amap,
    flash::Backend &flash_dev,
    sim::BoundedChannel<MissRequest> &in_channel,
    sim::BoundedChannel<FlashCmdMsg> &to_flash,
    sim::BoundedChannel<InstallComplete> &to_fc,
    sim::BoundedChannel<BcNotice> &to_fc_rsp,
    sim::BoundedChannel<InstallGrant> &from_fc_ctl,
    std::uint32_t msr_sets, std::uint32_t msr_entries_per_set,
    std::uint32_t evict_entries)
    : sim::SimObject(eq, std::move(name)), cfg(config), addrMap(amap),
      flashDev(flash_dev), inbox(in_channel), toFlash(to_flash),
      toFc(to_fc), toFcRsp(to_fc_rsp), fromFcCtl(from_fc_ctl),
      msrTable(SimObject::name() + ".msr", msr_sets,
               msr_entries_per_set),
      evictBuf(SimObject::name() + ".evictbuf", evict_entries),
      flashReadEstimate(flash_dev.readEstimate())
{
    const sim::ClockDomain clk(cfg.controllerFreqHz);
    bcOpTicks = clk.cycles(cfg.bc.cyclesPerOp);
}

void
BacksideController::bindChannels()
{
    // Every inbound channel drains inside the push that filled it:
    // the whole miss chain runs nested in the producer's call, exactly
    // like the pre-split facade pump. The submit path is bc-owned, so
    // startMiss's issued-assertions can rely on the command channel's
    // drain and that seam honestly declares zero lookahead.
    toFlash.setDrainHook([this] { pumpFlash(); });
    inbox.setDrainHook([this] { pumpInbox(); });
    fromFcCtl.setDrainHook([this] { pumpCtl(); });
}

void
BacksideController::pumpInbox()
{
    while (!inbox.empty())
        serviceHead();
}

void
BacksideController::serviceHead()
{
    ASTRI_ASSERT_MSG(!inbox.empty(),
                     "%s: serviceHead() with an empty miss channel",
                     name().c_str());
    auto &st = inbox.front();
    const MissRequest req = st.msg;
    const sim::Ticks accept = st.acceptedAt;

    BcNotice ack;
    ack.kind = BcNotice::Kind::MissAck;
    ack.page = req.page;

    if (!req.subPage && evictBuf.contains(req.page)) {
        // The page is parked in the evict buffer awaiting writeback;
        // serve the request from there. (Footprint sub-page refetches
        // target a resident page, which cannot be parked here.)
        ack.reply.kind = BcReply::Kind::EvictBufferHit;
        ack.reply.ready = accept + bcOp();
        inbox.dropFront(ack.reply.ready);
        toFcRsp.push(ack, ack.reply.ready);
        return;
    }

    ack.reply.kind = BcReply::Kind::MissStarted;
    ack.reply.merged = pending.count(req.page) != 0;
    ack.reply.ready = startMiss(req, accept);
    if (req.hasWaiter)
        pending[req.page].waiters.push_back(req.waiter);
    // Merged requests ride the original transaction's slot and only
    // pay the BC's dequeue + MSR search; a new miss holds its slot
    // until the page's install completes, making the channel depth
    // the BC's outstanding-transaction window. Either way the BC
    // consumes the request after its dequeue + MSR-search ops.
    const sim::Ticks consumed = accept + 2 * bcOp();
    inbox.dropFront(consumed, ack.reply.merged
                                  ? consumed
                                  : pending[req.page].dataReady);
    toFcRsp.push(ack, consumed);
}

sim::Ticks
BacksideController::startMiss(const MissRequest &req, sim::Ticks now)
{
    const mem::PageNum page = req.page;
    auto it = pending.find(page);
    if (it != pending.end()) {
        it->second.anyWrite = it->second.anyWrite || req.write;
        // Widen a not-yet-issued fetch to cover this request; an
        // in-flight transfer cannot grow, in which case an uncovered
        // block sub-page-misses again after the install.
        if (!it->second.issued)
            it->second.fetchMask |= req.wantMask;
        sim::traceEvent(sim::TracePoint::MsrDedup, now, kNoCore,
                        pageByteAddr(page), it->second.waiters.size());
        return it->second.dataReady;
    }

    PendingMiss miss;
    miss.anyWrite = req.write;
    if (cfg.footprintEnabled) {
        // Footprint history is fc-owned; the producer snapshotted the
        // page's recorded footprint into the request at push time.
        miss.fetchMask = req.histValid
            ? (req.histMask | req.wantMask) : ~0ull;
    } else {
        miss.fetchMask = ~0ull;
    }

    // BC: one op to dequeue the request, one CAS-equivalent op to
    // search the MSR.
    const sim::Ticks bc_start = now + 2 * bcOp();
    const MsrAlloc alloc = msrTable.allocate(page);
    switch (alloc) {
      case MsrAlloc::Duplicate:
        // pending and the MSR mirror each other; a duplicate here is
        // an invariant violation.
        ASTRI_PANIC("MSR holds %llx but pending table does not",
                    static_cast<unsigned long long>(
                        pageByteAddr(page)));
      case MsrAlloc::SetFull: {
        // BC waits for an entry in this set to free; the request sits
        // in the BC queue. dataReady is a conservative estimate used
        // only by forced-synchronous requesters.
        miss.issued = false;
        miss.dataReady = bc_start + flashReadEstimate;
        pending.emplace(page, std::move(miss));
        msrStalled.push_back(page);
        sim::traceEvent(sim::TracePoint::MsrStall, bc_start, kNoCore,
                        pageByteAddr(page),
                        msrTable.setOccupancy(page));
        break;
      }
      case MsrAlloc::New: {
        sim::traceEvent(sim::TracePoint::MsrInsert, bc_start, kNoCore,
                        pageByteAddr(page), msrTable.occupancy());
        const std::uint64_t fetch_bytes =
            static_cast<std::uint64_t>(
                std::popcount(miss.fetchMask)) * mem::kBlockSize;
        pending.emplace(page, std::move(miss));
        // The command channel's drain submits the read and reports
        // back through flashReadIssued(), which stamps dataReady and
        // schedules the arrival.
        toFlash.push(
            FlashCmdMsg{
                flash::FlashCommand{flash::FlashCommand::Op::Read,
                                    addrMap.flashPage(
                                        pageByteAddr(page)),
                                    mem::Bytes(fetch_bytes)},
                page},
            bc_start);
        ASTRI_ASSERT_MSG(pending[page].issued,
                         "flash read for %llx was not issued by the "
                         "command channel drain",
                         static_cast<unsigned long long>(
                             pageByteAddr(page)));
        break;
      }
    }
    if (pending.size() > statsData.peakOutstanding)
        statsData.peakOutstanding = pending.size();
    return pending[page].dataReady;
}

void
BacksideController::pumpFlash()
{
    while (!toFlash.empty()) {
        auto &st = toFlash.front();
        const FlashCmdMsg msg = st.msg;
        const sim::Ticks issued = st.acceptedAt;
        const flash::FlashCommandResult res =
            flashDev.submit(msg.cmd, issued);
        // The slot drains when the device finishes the read or
        // accepts the write, so the depth models the device command
        // queue; the declared zero lookahead matches the synchronous
        // submit (the seam never leaves this domain).
        toFlash.dropFront(issued, res.complete);
        if (msg.cmd.op == flash::FlashCommand::Op::Read)
            flashReadIssued(msg.page, issued, res.complete);
    }
}

void
BacksideController::flashReadIssued(mem::PageNum page,
                                    sim::Ticks issued_at,
                                    sim::Ticks complete_at)
{
    auto it = pending.find(page);
    ASTRI_ASSERT_MSG(it != pending.end() && !it->second.issued,
                     "read completion for %llx without an un-issued "
                     "pending miss",
                     static_cast<unsigned long long>(
                         pageByteAddr(page)));
    const std::uint64_t fetch_bytes =
        static_cast<std::uint64_t>(
            std::popcount(it->second.fetchMask)) * mem::kBlockSize;
    sim::traceEvent(sim::TracePoint::FlashReadIssue, issued_at,
                    kNoCore, pageByteAddr(page), fetch_bytes);
    it->second.issued = true;
    it->second.dataReady = complete_at + bcOp() + installEstimate();
    scheduleIn(complete_at > curTick() ? complete_at - curTick() : 0,
               [this, page] { pageArrived(page); });
}

sim::Ticks
BacksideController::installEstimate() const
{
    // Closed-row activate plus streaming the 4 KB page.
    return cfg.dram.closedRowLatency() +
           cfg.dram.tBurst * (cfg.pageBytes / mem::kBlockSize - 1) +
           bcOp();
}

void
BacksideController::pageArrived(mem::PageNum page)
{
    const sim::Ticks now = curTick();
    sim::traceEvent(sim::TracePoint::FlashReadDone, now, kNoCore,
                    pageByteAddr(page));

    auto pit = pending.find(page);
    ASTRI_ASSERT_MSG(pit != pending.end(),
                     "arrival for page %llx with no pending miss",
                     static_cast<unsigned long long>(
                         pageByteAddr(page)));
    const std::uint64_t fetch_mask = pit->second.fetchMask;
    const std::uint64_t fetch_bytes =
        static_cast<std::uint64_t>(std::popcount(fetch_mask)) *
        mem::kBlockSize;
    statsData.flashBytesRead.inc(
        fetch_bytes > cfg.pageBytes ? cfg.pageBytes : fetch_bytes);

    // Securing a frame needs the tag array, the DRAM model, and the
    // footprint masks — all fc-owned. Request the install across the
    // seam; the grant comes back on the ctl channel and finishes the
    // miss in finishInstall().
    BcNotice n;
    n.kind = BcNotice::Kind::InstallReq;
    n.page = page;
    n.fetchMask = fetch_mask;
    n.dirty = pit->second.anyWrite;
    toFcRsp.push(n, now);
}

void
BacksideController::pumpCtl()
{
    const sim::Ticks lat = fromFcCtl.contract().minLatency;
    while (!fromFcCtl.empty()) {
        const auto &st = fromFcCtl.front();
        const InstallGrant grant = st.msg;
        const sim::Ticks at = st.acceptedAt;
        fromFcCtl.dropFront(at + lat);
        // Finish the miss at the grant's accept tick: the whole
        // install chain is one nested call at the arrival tick,
        // byte-identical to the pre-split controller.
        finishInstall(grant, at);
    }
}

void
BacksideController::finishInstall(const InstallGrant &grant,
                                  sim::Ticks now)
{
    auto pit = pending.find(grant.page);
    ASTRI_ASSERT_MSG(pit != pending.end(),
                     "install grant for page %llx with no pending miss",
                     static_cast<unsigned long long>(
                         pageByteAddr(grant.page)));
    statsData.fills.inc();

    // A displaced victim parks in the evict buffer and drains to
    // flash off the critical path.
    if (grant.hasVictim) {
        if (evictBuf.full()) {
            // Backpressure: force-drain the oldest entry now (the
            // install stalls behind the BC's emergency writeback).
            drainEvictBuffer(now);
        }
        const bool ok =
            evictBuf.insert(grant.victim, grant.victimDirty, now);
        ASTRI_ASSERT(ok);
        sim::traceEvent(sim::TracePoint::PageEvict, now, kNoCore,
                        pageByteAddr(grant.victim),
                        grant.victimDirty ? 1 : 0);
        // Lazy drain keeps writes off the read path.
        const sim::Ticks drain_at = now + bcOp() * 4;
        scheduleIn(drain_at > curTick() ? drain_at - curTick() : 0,
                   [this] { drainEvictBuffer(curTick()); });
    }

    const sim::Ticks ready = grant.installComplete + bcOp();
    statsData.missPenalty.sample(ready > now ? ready - now : 0);
    sim::traceEvent(sim::TracePoint::PageFill, ready, kNoCore,
                    pageByteAddr(grant.page),
                    ready > now ? ready - now : 0);

    // Free the MSR entry and unblock any set-conflicted misses.
    msrTable.free(grant.page);
    retryMsrStalled(now);

    auto waiters = std::move(pit->second.waiters);
    pending.erase(pit);
    toFc.push(InstallComplete{grant.page, ready, std::move(waiters)},
              now);
}

void
BacksideController::retryMsrStalled(sim::Ticks now)
{
    for (auto it = msrStalled.begin(); it != msrStalled.end();) {
        const mem::PageNum page = *it;
        auto pit = pending.find(page);
        if (pit == pending.end() || pit->second.issued) {
            it = msrStalled.erase(it);
            continue;
        }
        const MsrAlloc alloc = msrTable.allocate(page);
        if (alloc == MsrAlloc::SetFull) {
            ++it;
            continue;
        }
        ASTRI_ASSERT(alloc == MsrAlloc::New);
        sim::traceEvent(sim::TracePoint::MsrInsert, now + bcOp(),
                        kNoCore, pageByteAddr(page),
                        msrTable.occupancy());
        const std::uint64_t fetch_bytes =
            static_cast<std::uint64_t>(
                std::popcount(pit->second.fetchMask)) * mem::kBlockSize;
        toFlash.push(
            FlashCmdMsg{
                flash::FlashCommand{flash::FlashCommand::Op::Read,
                                    addrMap.flashPage(
                                        pageByteAddr(page)),
                                    mem::Bytes(fetch_bytes)},
                page},
            now + bcOp());
        ASTRI_ASSERT(pit->second.issued);
        it = msrStalled.erase(it);
    }
}

void
BacksideController::drainEvictBuffer(sim::Ticks now)
{
    if (evictBuf.empty())
        return;
    const EvictBuffer::Entry e = evictBuf.pop();
    sim::traceEvent(sim::TracePoint::EvictDrain, now, kNoCore,
                    pageByteAddr(e.page), e.dirty ? 1 : 0);
    if (e.dirty) {
        toFlash.push(
            FlashCmdMsg{
                flash::FlashCommand{flash::FlashCommand::Op::Write,
                                    addrMap.flashPage(
                                        pageByteAddr(e.page)),
                                    mem::Bytes{0}},
                e.page},
            now);
        statsData.dirtyWritebacks.inc();
    }
}

void
BacksideController::resetStats()
{
    statsData = Stats{};
    // Misses in flight across the reset still count toward the
    // measurement window's peak.
    statsData.peakOutstanding = pending.size();
}

void
BacksideController::regStats(sim::StatRegistry &reg) const
{
    reg.registerCounter("fills", &statsData.fills,
                        "pages installed into the cache");
    reg.registerCounter("dirty_writebacks", &statsData.dirtyWritebacks,
                        "dirty victims programmed to flash");
    reg.registerCounter("flash_bytes_read", &statsData.flashBytesRead,
                        "refill bytes transferred from flash");
    reg.registerHistogram("miss_penalty", &statsData.missPenalty,
                          "miss-to-page-ready latency in ticks");
    reg.registerUint("peak_outstanding", &statsData.peakOutstanding,
                     "maximum concurrent outstanding misses");
    msrTable.regStats(reg.subRegistry("msr"));
    evictBuf.regStats(reg.subRegistry("evictbuf"));
}

void
BacksideController::checkInvariants(sim::InvariantChecker &chk) const
{
    // The MSR and the pending table mirror each other: exactly the
    // issued misses hold entries.
    std::uint32_t issued = 0;
    // Audit-only walk; every element is checked independently, so
    // iteration order cannot matter (baselined AF015).
    for (const auto &[page, miss] : pending) {
        SIM_INVARIANT_MSG(chk, !miss.waiters.empty() || miss.issued,
                          "un-issued miss %llx has no waiters",
                          static_cast<unsigned long long>(
                              pageByteAddr(page)));
        if (miss.issued) {
            ++issued;
            SIM_INVARIANT_MSG(chk, msrTable.contains(page),
                              "issued miss %llx lost its MSR entry",
                              static_cast<unsigned long long>(
                                  pageByteAddr(page)));
        }
    }
    SIM_INVARIANT_MSG(chk, msrTable.occupancy() == issued,
                      "MSR holds %u entries but %u misses are issued",
                      msrTable.occupancy(), issued);

    // The stall queue holds exactly the un-issued pending pages.
    std::unordered_map<mem::PageNum, int> stalled;
    for (const mem::PageNum page : msrStalled) {
        SIM_INVARIANT_MSG(chk, ++stalled[page] == 1,
                          "page %llx queued twice behind a full MSR set",
                          static_cast<unsigned long long>(
                              pageByteAddr(page)));
        const auto it = pending.find(page);
        SIM_INVARIANT_MSG(chk,
                          it != pending.end() && !it->second.issued,
                          "stall queue holds %llx which is not an "
                          "un-issued pending miss",
                          static_cast<unsigned long long>(
                              pageByteAddr(page)));
    }
    SIM_INVARIANT_MSG(chk,
                      stalled.size() == pending.size() - issued,
                      "%zu stalled pages but %zu un-issued misses",
                      stalled.size(), pending.size() - issued);

    SIM_INVARIANT(chk, statsData.peakOutstanding >= pending.size());
    // Every install freed exactly one MSR entry in the same event.
    // The MSR counter is cumulative while fills resets at measurement
    // start, so lifetime frees bound the windowed fill count.
    SIM_INVARIANT_MSG(chk,
                      msrTable.stats().frees.value() >=
                          statsData.fills.value(),
                      "%llu fills outnumber %llu MSR frees",
                      static_cast<unsigned long long>(
                          statsData.fills.value()),
                      static_cast<unsigned long long>(
                          msrTable.stats().frees.value()));
}

void
BacksideController::auditShared(sim::InvariantChecker &chk,
                                const mem::SetAssocCache &tags) const
{
    if (cfg.footprintEnabled) {
        // Footprint mode legitimately refetches absent blocks of
        // resident pages, so residency and pending can coexist.
        return;
    }
    // Cross-domain audit at a quiesce point: a full-page miss cannot
    // coexist with a resident copy. The tag array is fc-owned and
    // passed by const reference — the BC never holds it.
    // Audit-only, order-insensitive walk (baselined AF015).
    for (const auto &[page, miss] : pending) {
        (void)miss;
        SIM_INVARIANT_MSG(chk,
                          !tags.contains(pageByteAddr(page)),
                          "page %llx is both resident and pending",
                          static_cast<unsigned long long>(
                              pageByteAddr(page)));
    }
}

} // namespace astriflash::core
