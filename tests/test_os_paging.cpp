/**
 * @file
 * Tests for the OS demand-paging baseline model.
 */

#include <gtest/gtest.h>

#include "flash/fabric.hh"
#include "mem/address_map.hh"
#include "os/os_paging.hh"

using namespace astriflash;
using namespace astriflash::os;
using namespace astriflash::sim;
using astriflash::mem::kPageSize;

namespace {

struct OsRig {
    mem::AddressMap amap{64 << 20, 128 << 20};
    flash::FlashConfig fcfg = flash::FlashConfig::forCapacity(
        256 << 20);
    flash::FlashFabric flash{"flash", fcfg, flash::FlashFabricConfig{},
                             (128 << 20) / kPageSize};
    OsCosts costs;
    OsPagingModel os{"os", 1 << 20, costs, 4, flash, amap};

    mem::Addr pa(std::uint64_t page) const
    {
        return amap.flashRange().base + page * kPageSize;
    }
};

} // namespace

TEST(TlbShootdownBus, SerializesBroadcasts)
{
    OsCosts costs;
    TlbShootdownBus bus(costs, 16);
    const Ticks first = bus.broadcast(0, 0);
    const Ticks expect_duration =
        costs.shootdownBase + costs.shootdownPerCore * 16;
    EXPECT_EQ(first, expect_duration);
    // A concurrent broadcast from another core queues behind.
    const Ticks second = bus.broadcast(0, 1);
    EXPECT_EQ(second, 2 * expect_duration);
    EXPECT_EQ(bus.stats().shootdowns.value(), 2u);
}

TEST(TlbShootdownBus, StealsTimeFromRemoteCores)
{
    OsCosts costs;
    TlbShootdownBus bus(costs, 4);
    bus.broadcast(0, 2);
    EXPECT_EQ(bus.takeStolen(0), costs.remoteInterrupt);
    EXPECT_EQ(bus.takeStolen(2), 0u); // initiator pays differently
    // Draining resets.
    EXPECT_EQ(bus.takeStolen(0), 0u);
}

TEST(TlbShootdownBus, LatencyGrowsWithCoreCount)
{
    OsCosts costs;
    TlbShootdownBus small(costs, 4);
    TlbShootdownBus big(costs, 64);
    EXPECT_LT(small.broadcast(0, 0), big.broadcast(0, 0));
}

TEST(OsPaging, FaultCostsComposeSoftwareAndFlash)
{
    OsRig rig;
    const auto fr = rig.os.pageFault(rig.pa(1), false, 0, 0);
    // Switch-out = fault path + context switch.
    EXPECT_EQ(fr.switchedOut,
              rig.costs.pageFault + rig.costs.contextSwitch);
    // Runnable only after the ~50 us flash read + install.
    EXPECT_GT(fr.runnable, microseconds(45));
    EXPECT_TRUE(rig.os.pageResident(rig.pa(1)));
    EXPECT_EQ(rig.os.stats().faults.value(), 1u);
}

TEST(OsPaging, EvictionTriggersShootdown)
{
    OsRig rig;
    const std::uint64_t frames = (1 << 20) / kPageSize; // 256 pages
    Ticks t = 0;
    for (std::uint64_t p = 0; p < frames; ++p) {
        rig.os.prewarmPage(rig.pa(p));
    }
    const auto fr = rig.os.pageFault(rig.pa(frames + 1), false, t, 0);
    EXPECT_EQ(rig.os.stats().evictions.value(), 1u);
    EXPECT_EQ(rig.os.bus().stats().shootdowns.value(), 1u);
    EXPECT_GT(fr.runnable, microseconds(50));
}

TEST(OsPaging, DirtyEvictionWritesBackToFlash)
{
    OsRig rig;
    const std::uint64_t frames = (1 << 20) / kPageSize;
    for (std::uint64_t p = 0; p < frames; ++p)
        rig.os.prewarmPage(rig.pa(p));
    rig.os.touch(rig.pa(0), true); // dirty it
    // Fault in new pages until page 0 is the LRU victim.
    Ticks t = 0;
    std::uint64_t before = rig.flash.writesAccepted();
    for (std::uint64_t p = frames; p < 2 * frames; ++p) {
        rig.os.pageFault(rig.pa(p), false, t, 0);
        t += microseconds(100);
        if (!rig.os.pageResident(rig.pa(0)))
            break;
    }
    EXPECT_FALSE(rig.os.pageResident(rig.pa(0)));
    EXPECT_GT(rig.flash.writesAccepted(), before);
    EXPECT_GE(rig.os.stats().dirtyWritebacks.value(), 1u);
}

TEST(OsPaging, ResetStatsZeroes)
{
    OsRig rig;
    rig.os.pageFault(rig.pa(1), false, 0, 0);
    rig.os.resetStats();
    EXPECT_EQ(rig.os.stats().faults.value(), 0u);
}
