#include "os_paging.hh"

#include "sim/logging.hh"

namespace astriflash::os {

sim::Ticks
TlbShootdownBus::broadcast(sim::Ticks now, std::uint32_t initiator)
{
    statsData.shootdowns.inc();
    const sim::Ticks start = now > busBusyUntil ? now : busBusyUntil;
    const sim::Ticks duration =
        costs.shootdownBase + costs.shootdownPerCore * nCores;
    busBusyUntil = start + duration;
    // Every remote core services the IPI.
    for (std::uint32_t c = 0; c < nCores; ++c) {
        if (c != initiator)
            stolen[c] += costs.remoteInterrupt;
    }
    statsData.initiatorLatency.sample(busBusyUntil - now);
    return busBusyUntil;
}

sim::Ticks
TlbShootdownBus::takeStolen(std::uint32_t core)
{
    ASTRI_ASSERT(core < stolen.size());
    const sim::Ticks t = stolen[core];
    stolen[core] = 0;
    return t;
}

OsPagingModel::OsPagingModel(std::string name, std::uint64_t capacity,
                             const OsCosts &costs, std::uint32_t cores,
                             flash::FlashFabric &flash,
                             const mem::AddressMap &amap)
    : modelName(std::move(name)), costsData(costs), flashDev(flash),
      addrMap(amap),
      pageCache(modelName + ".pagecache", capacity, mem::kPageSize, 16),
      shootdownBus(costs, cores)
{
}

bool
OsPagingModel::pageResident(mem::Addr pa) const
{
    return pageCache.contains(pa);
}

void
OsPagingModel::touch(mem::Addr pa, bool write)
{
    if (write)
        pageCache.accessWrite(pa);
    else
        pageCache.access(pa);
}

FaultResult
OsPagingModel::pageFault(mem::Addr pa, bool write, sim::Ticks now,
                         std::uint32_t core)
{
    statsData.faults.inc();
    FaultResult res;

    // Fault entry, page-cache check, storage stack, NVMe submit.
    const sim::Ticks submitted = now + costsData.pageFault;
    // The OS switches the faulting thread out to overlap the I/O.
    res.switchedOut = submitted + costsData.contextSwitch;

    // The flash read proceeds concurrently with the switch.
    const auto read = flashDev.submit(
        flash::FlashCommand{flash::FlashCommand::Op::Read,
                            addrMap.flashPage(mem::pageBase(pa)),
                            mem::Bytes{0}},
        submitted);

    // Install on arrival; evicting a mapped victim forces a global
    // TLB shootdown before the new mapping is visible.
    sim::Ticks installed = read.complete + costsData.install;
    auto victim = pageCache.fill(pa, write);
    if (victim) {
        statsData.evictions.inc();
        if (victim->dirty) {
            statsData.dirtyWritebacks.inc();
            flashDev.submit(
                flash::FlashCommand{
                    flash::FlashCommand::Op::Write,
                    addrMap.flashPage(victim->tag_addr),
                    mem::Bytes{0}},
                installed);
        }
        installed = shootdownBus.broadcast(installed, core);
    }
    res.runnable = installed;
    statsData.faultToRunnable.sample(res.runnable - now);
    return res;
}

void
OsPagingModel::prewarmPage(mem::Addr pa)
{
    pageCache.fill(mem::pageBase(pa), false);
}

} // namespace astriflash::os
