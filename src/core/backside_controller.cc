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
    sim::EventQueue &eq, const std::string &cache_name,
    const std::string &shard_tag, const DramCacheConfig &config,
    const mem::AddressMap &amap, flash::FlashFabric &flash_dev,
    mem::Dram &dram, mem::SetAssocCache &tags,
    FootprintState &footprint, const PageReadyFn &page_ready,
    std::uint32_t msr_sets, std::uint32_t msr_entries_per_set,
    std::uint32_t evict_entries)
    : sim::SimObject(eq, cache_name + ".bc" + shard_tag), cfg(config),
      addrMap(amap), flashDev(flash_dev), dramModel(dram),
      pageTags(tags), setRowStride(dcSetRowStride(config)),
      fp(footprint), pageReady(page_ready),
      bcOpTicks(sim::ClockDomain(config.controllerFreqHz)
                    .cycles(config.bc.cyclesPerOp)),
      flashReadEstimate(flash_dev.readEstimate()),
      inbox(cache_name + ".fc_to_bc" + shard_tag,
            config.channels.fcToBcDepth),
      toFlash(cache_name + ".bc_to_flash" + shard_tag,
              config.channels.bcToFlashDepth),
      msrTable(SimObject::name() + ".msr", msr_sets,
               msr_entries_per_set),
      evictBuf(SimObject::name() + ".evictbuf", evict_entries)
{
}

BcReply
BacksideController::request(const MissRequest &req, sim::Ticks now)
{
    BcReply rep;
    rep.accepted = inbox.push(now);

    if (!req.subPage && evictBuf.contains(req.page)) {
        // The page is parked in the evict buffer awaiting writeback;
        // serve the request from there. (Footprint sub-page refetches
        // target a resident page, which cannot be parked here.)
        rep.kind = BcReply::Kind::EvictBufferHit;
        rep.ready = rep.accepted + bcOp();
        inbox.pop(rep.ready);
        return rep;
    }

    rep.kind = BcReply::Kind::MissStarted;
    rep.merged = pending.count(req.page) != 0;
    rep.ready = startMiss(req, rep.accepted);
    if (req.hasWaiter)
        pending[req.page].waiters.push_back(req.waiter);
    // Merged requests ride the original transaction's slot and only
    // pay the BC's dequeue + MSR search; a new miss holds its slot
    // until the page's install completes, so the channel depth bounds
    // the BC's outstanding-transaction window.
    inbox.pop(rep.merged ? rep.accepted + 2 * bcOp()
                         : pending[req.page].dataReady);
    return rep;
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
        // Seed the fetch from the page's recorded footprint.
        const auto hist = fp.history.find(page);
        miss.fetchMask = hist != fp.history.end()
            ? (hist->second | req.wantMask) : ~0ull;
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
        pending.emplace(page, std::move(miss));
        issueRead(page, bc_start);
        break;
      }
    }
    if (pending.size() > statsData.peakOutstanding)
        statsData.peakOutstanding = pending.size();
    return pending[page].dataReady;
}

std::pair<sim::Ticks, sim::Ticks>
BacksideController::submitFlash(const flash::FlashCommand &cmd,
                                sim::Ticks now)
{
    const sim::Ticks accept = toFlash.push(now);
    const sim::Ticks complete = flashDev.submit(cmd, accept).complete;
    toFlash.pop(complete);
    return {accept, complete};
}

void
BacksideController::issueRead(mem::PageNum page, sim::Ticks now)
{
    auto it = pending.find(page);
    ASTRI_ASSERT_MSG(it != pending.end() && !it->second.issued,
                     "flash read for %llx without an un-issued "
                     "pending miss",
                     static_cast<unsigned long long>(
                         pageByteAddr(page)));
    const std::uint64_t fetch_bytes =
        static_cast<std::uint64_t>(
            std::popcount(it->second.fetchMask)) * mem::kBlockSize;
    const auto [issued, complete] = submitFlash(
        flash::FlashCommand{flash::FlashCommand::Op::Read,
                            addrMap.flashPage(pageByteAddr(page)),
                            mem::Bytes(fetch_bytes)},
        now);
    sim::traceEvent(sim::TracePoint::FlashReadIssue, issued, kNoCore,
                    pageByteAddr(page), fetch_bytes);
    it->second.issued = true;
    it->second.dataReady = complete + bcOp() + installEstimate();
    scheduleIn(complete > curTick() ? complete - curTick() : 0,
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
    std::uint64_t fetch_bytes =
        static_cast<std::uint64_t>(std::popcount(fetch_mask)) *
        mem::kBlockSize;
    if (fetch_bytes > cfg.pageBytes)
        fetch_bytes = cfg.pageBytes;
    statsData.flashBytesRead.inc(fetch_bytes);
    const mem::Addr page_addr = pageByteAddr(page);
    if (cfg.footprintEnabled)
        fp.fetched[page] |= fetch_mask;

    // Secure a frame: fill the tag array.
    const auto victim = pageTags.fill(page_addr, pit->second.anyWrite);
    mem::PageNum vpage{0};
    if (victim) {
        vpage = pageNum(victim->tag_addr);
        if (cfg.footprintEnabled) {
            // Record the victim's footprint for its next residency
            // and drop its residency masks.
            const auto t = fp.touched.find(vpage);
            if (t != fp.touched.end() && t->second != 0)
                fp.history[vpage] = t->second;
            fp.touched.erase(vpage);
            fp.fetched.erase(vpage);
        }
    }

    // Install: stream the fetched blocks into the frame.
    const auto install = dramModel.access(
        pageTags.setOf(page_addr) * setRowStride, now, true, fetch_bytes);
    statsData.fills.inc();

    // A displaced victim parks in the evict buffer and drains to
    // flash off the critical path.
    if (victim) {
        if (evictBuf.full()) {
            // Backpressure: force-drain the oldest entry now (the
            // install stalls behind the BC's emergency writeback).
            drainEvictBuffer(now);
        }
        const bool ok = evictBuf.insert(vpage, victim->dirty, now);
        ASTRI_ASSERT(ok);
        sim::traceEvent(sim::TracePoint::PageEvict, now, kNoCore,
                        pageByteAddr(vpage), victim->dirty ? 1 : 0);
        // Lazy drain keeps writes off the read path.
        const sim::Ticks drain_at = now + bcOp() * 4;
        scheduleIn(drain_at > curTick() ? drain_at - curTick() : 0,
                   [this] { drainEvictBuffer(curTick()); });
    }

    const sim::Ticks ready = install.complete + bcOp();
    statsData.missPenalty.sample(ready > now ? ready - now : 0);
    sim::traceEvent(sim::TracePoint::PageFill, ready, kNoCore,
                    page_addr, ready > now ? ready - now : 0);

    // Free the MSR entry and unblock any set-conflicted misses.
    msrTable.free(page);
    retryMsrStalled(now);

    const std::vector<WaiterCookie> waiters =
        std::move(pit->second.waiters);
    pending.erase(pit);
    if (pageReady)
        pageReady(page, ready, waiters);
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
        issueRead(page, now + bcOp());
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
        submitFlash(
            flash::FlashCommand{flash::FlashCommand::Op::Write,
                                addrMap.flashPage(pageByteAddr(e.page)),
                                mem::Bytes{0}},
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

    // A full-page miss cannot coexist with a resident copy; footprint
    // mode legitimately refetches absent blocks of resident pages.
    if (cfg.footprintEnabled)
        return;
    // Audit-only, order-insensitive walk (baselined AF015).
    for (const auto &[page, miss] : pending) {
        (void)miss;
        SIM_INVARIANT_MSG(chk,
                          !pageTags.contains(pageByteAddr(page)),
                          "page %llx is both resident and pending",
                          static_cast<unsigned long long>(
                              pageByteAddr(page)));
    }
}

} // namespace astriflash::core
