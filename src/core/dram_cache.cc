#include "dram_cache.hh"

#include "sim/logging.hh"

namespace astriflash::core {

DramCache::DramCache(sim::EventQueue &eq, std::string name,
                     const DramCacheConfig &config,
                     flash::Backend &flash,
                     const mem::AddressMap &amap)
    : sim::SimObject(eq, std::move(name)), cfg(config),
      dramModel(SimObject::name() + ".dram", config.dram),
      pageTags(SimObject::name() + ".tags", config.capacityBytes,
               config.pageBytes, config.ways),
      fcCtl(SimObject::name() + ".fc", cfg, dramModel, pageTags,
            footprint, fcToBc, bcToFc, bcToFcRsp, fcToBcCtl)
{
    // Bad user configuration, not an invariant: SIM_CHECK compiles
    // out in plain Release, so both checks are always-on. shards=0
    // would SIGFPE in the slice division below, and a shard whose
    // MSR or evict-buffer slice is empty panics mid-run on its first
    // miss or victim.
    const std::uint32_t shards = cfg.bc.shards;
    if (shards == 0)
        ASTRI_FATAL("%s: at least one BC shard required",
                    SimObject::name().c_str());
    if (cfg.bc.msrSets < shards || cfg.bc.evictBufferEntries < shards) {
        ASTRI_FATAL("%s: %u BC shards leave a shard without capacity "
                    "(%u MSR sets, %u evict-buffer entries; each "
                    "shard needs at least one of each)",
                    SimObject::name().c_str(), shards, cfg.bc.msrSets,
                    cfg.bc.evictBufferEntries);
    }

    // Capacity conservation: the per-shard slices of the cache-wide
    // MSR and evict-buffer capacities must sum exactly to the
    // configured totals under any shard count — sharding repartitions
    // buffering, it never creates or destroys it.
    std::uint64_t msr_set_sum = 0;
    std::uint64_t evict_sum = 0;
    for (std::uint32_t i = 0; i < shards; ++i) {
        msr_set_sum += shardSlice(cfg.bc.msrSets, shards, i);
        evict_sum += shardSlice(cfg.bc.evictBufferEntries, shards, i);
    }
    SIM_CHECK_MSG(msr_set_sum == cfg.bc.msrSets &&
                      evict_sum == cfg.bc.evictBufferEntries,
                  "%s: shard slices sum to %llu MSR sets / %llu evict "
                  "entries, configured %u / %u",
                  SimObject::name().c_str(),
                  static_cast<unsigned long long>(msr_set_sum),
                  static_cast<unsigned long long>(evict_sum),
                  cfg.bc.msrSets, cfg.bc.evictBufferEntries);

    fcToBc.reserve(shards);
    bcToFlash.reserve(shards);
    bcToFc.reserve(shards);
    bcToFcRsp.reserve(shards);
    fcToBcCtl.reserve(shards);
    bcCtls.reserve(shards);
    // The lookahead manifest (DESIGN.md §14), in BC operations: the
    // consumer of a fc_to_bc request, bc_to_fc install completion,
    // bc_to_fc_rsp notice or fc_to_bc_ctl grant spends at least one op
    // before acting on it; bc_to_flash commands go to the device the
    // moment the channel accepts them, so that seam declares zero.
    // fc_to_bc and bc_to_flash are fed at skewed core-local clocks
    // through the FC's synchronous probe, so only bc_to_fc — pushed
    // exclusively by the arrival event handler — declares monotone
    // push ticks. The rsp channel mixes probe-clocked acks with
    // event-clocked install requests and the ctl channel answers
    // them, so neither declares monotonicity.
    const sim::ClockDomain clk(cfg.controllerFreqHz);
    const sim::Ticks op = clk.cycles(cfg.bc.cyclesPerOp);
    const sim::ChannelContract miss_contract{op, false};
    const sim::ChannelContract flash_contract{0, false};
    const sim::ChannelContract install_contract{op, true};
    const sim::ChannelContract rsp_contract{op, false};
    const sim::ChannelContract ctl_contract{op, false};
    for (std::uint32_t i = 0; i < shards; ++i) {
        const std::string tag = shardTag(i);
        fcToBc.push_back(
            std::make_unique<sim::BoundedChannel<MissRequest>>(
                SimObject::name() + ".fc_to_bc" + tag,
                cfg.channels.fcToBcDepth, miss_contract));
        bcToFlash.push_back(
            std::make_unique<sim::BoundedChannel<FlashCmdMsg>>(
                SimObject::name() + ".bc_to_flash" + tag,
                cfg.channels.bcToFlashDepth, flash_contract));
        bcToFc.push_back(
            std::make_unique<sim::BoundedChannel<InstallComplete>>(
                SimObject::name() + ".bc_to_fc" + tag,
                cfg.channels.bcToFcDepth, install_contract));
        bcToFcRsp.push_back(
            std::make_unique<sim::BoundedChannel<BcNotice>>(
                SimObject::name() + ".bc_to_fc_rsp" + tag,
                cfg.channels.bcToFcRspDepth, rsp_contract));
        fcToBcCtl.push_back(
            std::make_unique<sim::BoundedChannel<InstallGrant>>(
                SimObject::name() + ".fc_to_bc_ctl" + tag,
                cfg.channels.fcToBcCtlDepth, ctl_contract));
    }
    for (std::uint32_t i = 0; i < shards; ++i) {
        bcCtls.push_back(std::make_unique<BacksideController>(
            eq,
            SimObject::name() + ".bc" + shardTag(i), cfg, amap, flash,
            *fcToBc[i], *bcToFlash[i], *bcToFc[i], *bcToFcRsp[i],
            *fcToBcCtl[i], shardSlice(cfg.bc.msrSets, shards, i),
            cfg.bc.msrEntriesPerSet,
            shardSlice(cfg.bc.evictBufferEntries, shards, i)));
    }

    // Each controller drains its own inbound channels.
    for (auto &bc : bcCtls)
        bc->bindChannels();
    fcCtl.bindChannels();
}

std::string
DramCache::shardTag(std::uint32_t shard) const
{
    // Unsharded names collapse to the pre-sharding spellings so the
    // golden stat namespaces stay byte-identical.
    return cfg.bc.shards == 1 ? std::string{}
                              : std::to_string(shard);
}

DcAccess
DramCache::access(mem::Addr pa, bool write, sim::Ticks now,
                  WaiterCookie waiter)
{
    return fcCtl.access(pa, write, now, waiter);
}

sim::Ticks
DramCache::accessSync(mem::Addr pa, bool write, sim::Ticks now)
{
    return fcCtl.accessSync(pa, write, now);
}

bool
DramCache::pageResident(mem::Addr pa) const
{
    return pageTags.contains(pa);
}

void
DramCache::prewarmPage(mem::Addr pa)
{
    auto victim = pageTags.fill(mem::pageBase(pa, cfg.pageBytes),
                                false);
    if (cfg.footprintEnabled) {
        footprint.fetched[mem::pageNumber(pa, cfg.pageBytes)] = ~0ull;
        if (victim) {
            // Set-conflict displacement during prewarm leaks the
            // victim's just-seeded mask (see FootprintState).
            footprint.prewarmEvicted.insert(
                mem::pageNumber(victim->tag_addr, cfg.pageBytes));
        }
    }
}

void
DramCache::resetStats()
{
    fcCtl.resetStats();
    for (auto &bc : bcCtls)
        bc->resetStats();
}

DramCache::BcTotals
DramCache::bcTotals() const
{
    BcTotals totals;
    for (const auto &bc : bcCtls) {
        totals.fills += bc->stats().fills.value();
        totals.dirtyWritebacks += bc->stats().dirtyWritebacks.value();
        totals.flashBytesRead += bc->stats().flashBytesRead.value();
        totals.peakOutstanding += bc->stats().peakOutstanding;
    }
    return totals;
}

void
DramCache::regStats(sim::StatRegistry &reg) const
{
    fcCtl.regStats(reg.subRegistry("fc"));
    for (std::uint32_t i = 0; i < shardCount(); ++i)
        bcCtls[i]->regStats(reg.subRegistry("bc" + shardTag(i)));
    dramModel.regStats(reg.subRegistry("dram"));
    pageTags.regStats(reg.subRegistry("tags"));
    for (std::uint32_t i = 0; i < shardCount(); ++i) {
        const std::string tag = shardTag(i);
        fcToBc[i]->regStats(reg.subRegistry("fc_to_bc" + tag));
        bcToFlash[i]->regStats(reg.subRegistry("bc_to_flash" + tag));
        bcToFc[i]->regStats(reg.subRegistry("bc_to_fc" + tag));
    }
}

void
DramCache::checkInvariants(sim::InvariantChecker &chk) const
{
    fcCtl.checkInvariants(chk);
    fcCtl.auditShared(chk, pageTags);
    for (const auto &bc : bcCtls) {
        bc->checkInvariants(chk);
        bc->auditShared(chk, pageTags);
    }
}

} // namespace astriflash::core
