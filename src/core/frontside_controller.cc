#include "frontside_controller.hh"

#include <utility>

namespace astriflash::core {

FrontsideController::FrontsideController(std::string name,
                                         const DramCacheConfig &config,
                                         mem::Dram &dram,
                                         mem::SetAssocCache &tags,
                                         FootprintState &footprint)
    : fcName(std::move(name)), cfg(config), dramModel(dram),
      pageTags(tags), setRowStride(dcSetRowStride(config)),
      fp(footprint)
{
    const sim::ClockDomain clk(cfg.controllerFreqHz);
    fcOpTicks = clk.cycles(cfg.fc.cyclesPerOp);
}

FrontsideController::Probe
FrontsideController::probe(mem::Addr pa, bool write, sim::Ticks now,
                           bool sync)
{
    Probe p;
    p.start = now;
    p.bit = dcBlockBit(pa);
    p.miss.page = mem::pageNumber(pa, cfg.pageBytes);
    p.miss.write = write;
    // RAS to open the set's row + CAS for the 64 B tag column + one
    // FC cycle for the compare.
    const mem::Addr row = pageTags.setOf(pa) * setRowStride;
    p.ready = dramModel.access(row, now, false, mem::kBlockSize)
                  .complete +
              fcOp();
    const bool hit =
        write ? pageTags.accessWrite(pa) : pageTags.access(pa);
    if (sync)
        statsData.syncAccesses.inc();

    if (!hit) {
        // Tag miss: the backside decides evict-buffer hit vs miss.
        p.miss.wantMask = p.bit;
        return p;
    }
    if (cfg.footprintEnabled) {
        const mem::PageNum page = p.miss.page;
        fp.touched[page] |= p.bit;
        if (!(fp.fetched[page] & p.bit)) {
            // Sub-page miss: the resident page was only partially
            // transferred and this block is absent; fetch the
            // remainder through the normal switch-on-miss path.
            statsData.subPageMisses.inc();
            p.miss.subPage = true;
            p.miss.wantMask = ~fp.fetched[page];
            return p;
        }
    }
    // Data CAS in the (now open) row.
    const auto data = dramModel.access(row + mem::kBlockSize, p.ready,
                                       write, mem::kBlockSize);
    statsData.hits.inc();
    statsData.hitLatency.sample(data.complete - now);
    p.hit = true;
    p.ready = data.complete;
    return p;
}

DcAccess
FrontsideController::finishMiss(const Probe &p, const BcReply &rep)
{
    if (rep.kind == BcReply::Kind::EvictBufferHit) {
        // The page was parked awaiting writeback; the backside served
        // the request from there at BC speed.
        statsData.hits.inc();
        statsData.hitLatency.sample(rep.ready - p.start);
        return DcAccess{true, rep.ready};
    }
    if (rep.merged)
        statsData.missesMerged.inc();
    else
        statsData.misses.inc();
    if (cfg.footprintEnabled && !p.miss.subPage)
        fp.touched[p.miss.page] |= p.bit; // the block will be used
    // Miss response: the FC replies as soon as the channel accepted
    // the request so on-chip MSHRs can be reclaimed.
    return DcAccess{false, rep.accepted + fcOp()};
}

sim::Ticks
FrontsideController::finishSyncMiss(const Probe &p, const BcReply &rep)
{
    if (rep.kind == BcReply::Kind::EvictBufferHit) {
        statsData.hits.inc();
        return rep.ready;
    }
    if (rep.merged)
        statsData.missesMerged.inc();
    else
        statsData.misses.inc();
    if (cfg.footprintEnabled && !p.miss.subPage)
        fp.touched[p.miss.page] |= p.bit; // the block will be used
    // The requester spins until the page is installed, then reads it.
    return rep.ready + cfg.dram.tCas + cfg.dram.tBurst;
}

void
FrontsideController::regStats(sim::StatRegistry &reg) const
{
    reg.registerCounter("hits", &statsData.hits,
                        "frontside accesses served from the cache");
    reg.registerCounter("misses", &statsData.misses,
                        "accesses starting a new outstanding miss");
    reg.registerCounter("misses_merged", &statsData.missesMerged,
                        "accesses merged onto an in-flight miss");
    reg.registerCounter("sync_accesses", &statsData.syncAccesses,
                        "forced-synchronous (forward-progress) accesses");
    reg.registerCounter("sub_page_misses", &statsData.subPageMisses,
                        "footprint mispredictions on resident pages");
    reg.registerHistogram("hit_latency", &statsData.hitLatency,
                          "FC hit path latency in ticks");
}

void
FrontsideController::checkInvariants(sim::InvariantChecker &chk) const
{
    // Sync evict-buffer hits count a hit without a latency sample, so
    // samples can only undershoot the hit counter.
    SIM_INVARIANT_MSG(chk,
                      statsData.hitLatency.count() <=
                          statsData.hits.value(),
                      "%llu hit-latency samples for %llu hits",
                      static_cast<unsigned long long>(
                          statsData.hitLatency.count()),
                      static_cast<unsigned long long>(
                          statsData.hits.value()));
    // Every sub-page miss also counted as a (new or merged) miss.
    SIM_INVARIANT_MSG(chk,
                      statsData.subPageMisses.value() <=
                          statsData.misses.value() +
                              statsData.missesMerged.value(),
                      "%llu sub-page misses exceed the %llu total "
                      "misses",
                      static_cast<unsigned long long>(
                          statsData.subPageMisses.value()),
                      static_cast<unsigned long long>(
                          statsData.misses.value() +
                          statsData.missesMerged.value()));
    // Footprint residency masks exist only for resident pages.
    if (cfg.footprintEnabled) {
        // Audit-only, order-insensitive walk (baselined AF015).
        // Pages displaced during prewarm keep their seeded mask by
        // design (FootprintState::prewarmEvicted) — exempt exactly
        // those, nothing else.
        for (const auto &[page, mask] : fp.fetched) {
            (void)mask;
            SIM_INVARIANT_MSG(chk,
                              pageTags.contains(
                                  mem::pageAddr(page, cfg.pageBytes)) ||
                                  fp.prewarmEvicted.count(page) != 0,
                              "fetched mask for non-resident %llx",
                              static_cast<unsigned long long>(
                                  mem::pageAddr(page, cfg.pageBytes)));
        }
    } else {
        SIM_INVARIANT(chk, fp.fetched.empty());
        SIM_INVARIANT(chk, fp.touched.empty());
        SIM_INVARIANT(chk, fp.history.empty());
    }
}

} // namespace astriflash::core
