#include "fabric.hh"

#include "sim/logging.hh"

namespace astriflash::flash {

FlashFabric::FlashFabric(const std::string &name,
                         const FlashConfig &dev_cfg,
                         const FlashFabricConfig &fabric_cfg,
                         std::uint64_t preload_pages)
    : kind(fabric_cfg.backend)
{
    const std::uint32_t m = fabric_cfg.devices;
    if (m == 0)
        ASTRI_FATAL("%s: fabric needs at least one device", name.c_str());
    devs.reserve(m);
    for (std::uint32_t j = 0; j < m; ++j) {
        // Round-robin striping hands device j the logical pages
        // congruent to j mod M; of `preload_pages` dataset pages that
        // is floor/ceil(preload / M) depending on j.
        const std::uint64_t dev_preload =
            preload_pages / m + (j < preload_pages % m ? 1 : 0);
        ASTRI_ASSERT_MSG(dev_preload <= dev_cfg.userPages(),
                         "%s: device %u preload %llu exceeds per-device "
                         "capacity %llu",
                         name.c_str(), j,
                         static_cast<unsigned long long>(dev_preload),
                         static_cast<unsigned long long>(
                             dev_cfg.userPages()));
        devs.emplace_back(m == 1 ? name
                                 : name + ".dev" + std::to_string(j),
                          dev_cfg, dev_preload, kind);
    }
}

std::uint64_t
FlashFabric::userPages() const
{
    std::uint64_t total = 0;
    for (const FlashDevice &dev : devs)
        total += dev.userPages();
    return total;
}

std::uint64_t
FlashFabric::readsCompleted() const
{
    std::uint64_t total = 0;
    for (const FlashDevice &dev : devs)
        total += dev.readsCompleted();
    return total;
}

std::uint64_t
FlashFabric::writesAccepted() const
{
    std::uint64_t total = 0;
    for (const FlashDevice &dev : devs)
        total += dev.writesAccepted();
    return total;
}

std::uint64_t
FlashFabric::gcBlockedReadCount() const
{
    std::uint64_t total = 0;
    for (const FlashDevice &dev : devs)
        total += dev.gcBlockedReadCount();
    return total;
}

std::uint64_t
FlashFabric::hostWrites() const
{
    std::uint64_t total = 0;
    for (const FlashDevice &dev : devs)
        total += dev.hostWrites();
    return total;
}

std::uint64_t
FlashFabric::mediaWrites() const
{
    std::uint64_t total = 0;
    for (const FlashDevice &dev : devs)
        total += dev.mediaWrites();
    return total;
}

std::uint32_t
FlashFabric::wearSpread() const
{
    std::uint32_t worst = 0;
    for (const FlashDevice &dev : devs) {
        const std::uint32_t spread = dev.wearSpread();
        worst = spread > worst ? spread : worst;
    }
    return worst;
}

void
FlashFabric::resetStats()
{
    for (FlashDevice &dev : devs)
        dev.resetStats();
}

void
FlashFabric::regStats(sim::StatRegistry &reg) const
{
    if (devs.size() == 1) {
        devs.front().regStats(reg);
        return;
    }
    for (std::size_t j = 0; j < devs.size(); ++j)
        devs[j].regStats(reg.subRegistry("dev" + std::to_string(j)));
}

void
FlashFabric::checkInvariants(sim::InvariantChecker &chk) const
{
    for (const FlashDevice &dev : devs)
        dev.checkInvariants(chk);
}

} // namespace astriflash::flash
