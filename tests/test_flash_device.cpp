/**
 * @file
 * Tests for the SSD timing model: latency composition, plane/channel
 * queueing, read priority over programs, GC interference.
 */

#include <gtest/gtest.h>

#include <string>

#include "flash/flash_device.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

using namespace astriflash::flash;
using namespace astriflash::sim;

namespace {

FlashConfig
fastCfg()
{
    FlashConfig c;
    c.channels = 2;
    c.diesPerChannel = 1;
    c.planesPerDie = 2;
    c.blocksPerPlane = 16;
    c.pagesPerBlock = 4;
    c.tRead = microseconds(40);
    c.tProgram = microseconds(600);
    c.tErase = milliseconds(3);
    c.tChannelXfer = microseconds(3);
    c.tController = microseconds(5);
    c.gcFreeBlockLow = 2;
    return c;
}

} // namespace

TEST(FlashDevice, UnloadedReadLatency)
{
    FlashDevice dev("d", fastCfg());
    const auto r = dev.read(Lpn(0), 0);
    // controller + tR + transfer = 5 + 40 + 3 us.
    EXPECT_EQ(r.complete, microseconds(48));
    EXPECT_EQ(r.queueing, 0u);
    EXPECT_FALSE(r.blockedByGc);
}

TEST(FlashDevice, SamePlaneReadsSerialize)
{
    FlashDevice dev("d", fastCfg());
    const auto a = dev.read(Lpn(0), 0); // plane 0
    const auto b = dev.read(Lpn(4), 0); // lpn 4 -> plane 0 again
    EXPECT_GT(b.queueing, 0u);
    EXPECT_GE(b.complete, a.complete + microseconds(40));
}

TEST(FlashDevice, DifferentPlanesOverlap)
{
    FlashDevice dev("d", fastCfg());
    const auto a = dev.read(Lpn(0), 0); // plane 0, channel 0
    const auto b = dev.read(Lpn(1), 0); // plane 1, channel 1
    EXPECT_EQ(a.complete, b.complete);
    EXPECT_EQ(b.queueing, 0u);
}

TEST(FlashDevice, ChannelTransferSerializes)
{
    FlashDevice dev("d", fastCfg());
    // Planes 0 and 2 share channel 0.
    const auto a = dev.read(Lpn(0), 0);
    const auto b = dev.read(Lpn(2), 0);
    // Array reads overlap; the 3 us transfers share the channel.
    EXPECT_EQ(b.complete, a.complete + microseconds(3));
}

TEST(FlashDevice, ReadsPreemptQueuedPrograms)
{
    // Preload half the capacity so plain writes have spare blocks and
    // do not trigger GC (GC legitimately blocks reads; tested below).
    const FlashConfig cfg = fastCfg();
    FlashDevice dev("d", cfg, cfg.userPages() / 2);
    // Queue a program on plane 0, then read from it immediately.
    dev.write(Lpn(0), 0);
    const auto r = dev.read(Lpn(4), microseconds(1)); // plane 0
    // The read must NOT wait out the 600 us program.
    EXPECT_LT(r.complete, microseconds(100));
}

TEST(FlashDevice, WriteAckIsTransferOnly)
{
    const FlashConfig wcfg = fastCfg();
    FlashDevice dev("d", wcfg, wcfg.userPages() / 2);
    const Ticks acked = dev.write(Lpn(0), 0);
    // controller + channel transfer; the program is asynchronous.
    EXPECT_EQ(acked, microseconds(8));
}

TEST(FlashDevice, GcBlocksReadsOnItsPlane)
{
    FlashDevice dev("d", fastCfg());
    // Preload half capacity; hammer one plane's lpns to force GC.
    std::uint64_t gc_writes = 0;
    Ticks t = 0;
    while (dev.ftl().stats().gcInvocations.value() == 0 &&
           gc_writes < 10000) {
        dev.write(Lpn(0 + 4 * (gc_writes % 8)), t);
        t += microseconds(10);
        ++gc_writes;
    }
    ASSERT_GT(dev.ftl().stats().gcInvocations.value(), 0u);
    // A read right after the GC-triggering write sees the plane busy.
    const auto r = dev.read(Lpn(0), t);
    EXPECT_TRUE(r.blockedByGc);
    EXPECT_GT(r.queueing, microseconds(100));
    EXPECT_EQ(dev.stats().gcBlockedReads.value(), 1u);
}

TEST(FlashDevice, LatencyHistogramsPopulate)
{
    FlashDevice dev("d", fastCfg());
    for (std::uint64_t i = 0; i < 32; ++i)
        dev.read(Lpn(i % 16), i * microseconds(100));
    EXPECT_EQ(dev.stats().reads.value(), 32u);
    EXPECT_GE(dev.stats().readLatency.percentile(0.5),
              microseconds(47));
}

TEST(FlashDevice, ResetStatsKeepsFtlCounters)
{
    FlashDevice dev("d", fastCfg());
    dev.read(Lpn(0), 0);
    dev.write(Lpn(0), 0);
    dev.resetStats();
    EXPECT_EQ(dev.stats().reads.value(), 0u);
    EXPECT_EQ(dev.stats().writes.value(), 0u);
    EXPECT_EQ(dev.ftl().stats().hostWrites.value(), 1u); // cumulative
}

TEST(FlashDevice, FtlAndZnsKindsTimeAlike)
{
    // One device model serves both kinds: the same seeded stream
    // (two thirds writes over the full preload, so GC runs
    // constantly) completes identically on each, and only the FTL's
    // stat names differ.
    FlashDevice ftl("ftl", fastCfg(), ~std::uint64_t{0},
                    BackendKind::Ftl);
    FlashDevice zns("zns", fastCfg(), ~std::uint64_t{0},
                    BackendKind::Zns);
    Rng rng(11);
    Ticks now = 0;
    for (int i = 0; i < 20000; ++i) {
        const FlashCommand cmd{rng.chance(2.0 / 3.0)
                                   ? FlashCommand::Op::Write
                                   : FlashCommand::Op::Read,
                               Lpn(rng.uniformInt(ftl.userPages())),
                               astriflash::mem::Bytes{0}};
        const FlashCommandResult a = ftl.submit(cmd, now);
        const FlashCommandResult b = zns.submit(cmd, now);
        ASSERT_EQ(a.complete, b.complete) << "command " << i;
        ASSERT_EQ(a.queueing, b.queueing) << "command " << i;
        ASSERT_EQ(a.blockedByGc, b.blockedByGc) << "command " << i;
        now += microseconds(rng.uniformInt(0, 40));
    }
    EXPECT_GT(ftl.ftl().stats().erases.value(), 0u);
    EXPECT_EQ(ftl.hostWrites(), zns.hostWrites());
    EXPECT_EQ(ftl.mediaWrites(), zns.mediaWrites());
    EXPECT_EQ(ftl.wearSpread(), zns.wearSpread());
    EXPECT_EQ(ftl.gcBlockedReadCount(), zns.gcBlockedReadCount());

    StatRegistry ftl_reg;
    StatRegistry zns_reg;
    ftl.regStats(ftl_reg.subRegistry("flash"));
    zns.regStats(zns_reg.subRegistry("flash"));
    const std::string ftl_names = ftl_reg.describe();
    const std::string zns_names = zns_reg.describe();
    EXPECT_NE(ftl_names.find("flash.ftl.flash_programs:"),
              std::string::npos);
    EXPECT_NE(zns_names.find("flash.log.zone_appends:"),
              std::string::npos);
    EXPECT_EQ(zns_names.find("flash.ftl."), std::string::npos);
}
