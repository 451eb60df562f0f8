/**
 * @file
 * Tests for the flash translation layer: static preload, out-of-place
 * writes, garbage collection, and wear leveling.
 */

#include <gtest/gtest.h>

#include <set>

#include "flash/ftl.hh"
#include "sim/invariant.hh"
#include "sim/rng.hh"

using namespace astriflash::flash;

namespace {

FlashConfig
tinyCfg()
{
    FlashConfig c;
    c.channels = 2;
    c.diesPerChannel = 1;
    c.planesPerDie = 2; // 4 planes total
    c.blocksPerPlane = 8;
    c.pagesPerBlock = 4;
    c.overprovisionRatio = 0.25;
    c.gcFreeBlockLow = 2;
    return c;
}

} // namespace

TEST(Ftl, GeometryMath)
{
    const FlashConfig c = tinyCfg();
    EXPECT_EQ(c.totalPlanes(), 4u);
    EXPECT_EQ(c.rawBytes(), 4ull * 8 * 4 * 4096);
    EXPECT_EQ(c.userPages(), (4ull * 8 * 4 * 3) / 4); // 75%
}

TEST(Ftl, StaticTranslationIsStriped)
{
    Ftl ftl("f", tinyCfg());
    const PhysPage p0 = ftl.translate(Lpn(0));
    const PhysPage p1 = ftl.translate(Lpn(1));
    EXPECT_EQ(p0.plane, 0u);
    EXPECT_EQ(p1.plane, 1u);
    // Same within-plane slot for consecutive stripes.
    EXPECT_EQ(p0.block, p1.block);
    EXPECT_EQ(p0.page, p1.page);
    // Consistent across calls.
    const PhysPage again = ftl.translate(Lpn(0));
    EXPECT_EQ(again.block, p0.block);
    EXPECT_EQ(again.page, p0.page);
}

TEST(Ftl, WriteRemapsOutOfPlace)
{
    Ftl ftl("f", tinyCfg());
    const PhysPage before = ftl.translate(Lpn(5));
    GcWork gc;
    const PhysPage after = ftl.write(Lpn(5), &gc);
    EXPECT_EQ(after.plane, before.plane); // plane-affine writes
    EXPECT_TRUE(after.block != before.block ||
                after.page != before.page);
    const PhysPage now = ftl.translate(Lpn(5));
    EXPECT_EQ(now.block, after.block);
    EXPECT_EQ(now.page, after.page);
}

TEST(Ftl, RewritesInvalidateOldLocations)
{
    Ftl ftl("f", tinyCfg());
    GcWork gc;
    // Rewriting the same lpn repeatedly must not leak valid pages.
    for (int i = 0; i < 50; ++i)
        ftl.write(Lpn(4), &gc); // lpn 4 -> plane 0
    EXPECT_EQ(ftl.stats().hostWrites.value(), 50u);
    // All written copies except the live one are invalid; the FTL
    // must have GC'd rather than run out of space (plane 0 has
    // 8 blocks x 4 pages = 32 page slots).
    EXPECT_GE(ftl.stats().erases.value(), 1u);
}

TEST(Ftl, GcRelocatesOnlyValidPages)
{
    const FlashConfig gcfg = tinyCfg();
    const std::uint64_t preload = gcfg.userPages() / 2;
    Ftl ftl("f", gcfg, preload);
    GcWork gc;
    std::uint32_t total_reloc = 0;
    for (int i = 0; i < 200; ++i) {
        ftl.write(Lpn((i * 4) % preload), &gc);
        total_reloc += gc.relocatedPages;
    }
    // Write amplification stays sane when rewriting a small set.
    EXPECT_LT(ftl.stats().writeAmplification(), 3.0);
    EXPECT_EQ(ftl.stats().gcRelocations.value(), total_reloc);
}

TEST(Ftl, PreloadSmallerThanCapacityLeavesFreeBlocks)
{
    const FlashConfig c = tinyCfg();
    Ftl ftl("f", c, c.userPages() / 2);
    EXPECT_EQ(ftl.preloadedPages(), c.userPages() / 2);
    // Every plane keeps free pages for writes.
    for (std::uint32_t p = 0; p < c.totalPlanes(); ++p)
        EXPECT_GT(ftl.freePagesInPlane(p), 0u);
}

TEST(Ftl, WearLevelingBoundsEraseSpread)
{
    FlashConfig c = tinyCfg();
    c.blocksPerPlane = 16;
    Ftl ftl("f", c, c.userPages() / 4);
    GcWork gc;
    // Hammer a few lpns; tie-break by erase count should spread wear.
    for (int i = 0; i < 3000; ++i)
        ftl.write(Lpn(i % 8), &gc);
    EXPECT_GE(ftl.stats().erases.value(), 10u);
    // Spread stays well below the total erase count.
    EXPECT_LT(ftl.eraseCountSpread(),
              ftl.stats().erases.value() / 2 + 2);
}

TEST(Ftl, WriteAmplificationReported)
{
    const FlashConfig wcfg = tinyCfg();
    Ftl ftl("f", wcfg, wcfg.userPages() / 2);
    GcWork gc;
    ftl.write(Lpn(0), &gc);
    EXPECT_DOUBLE_EQ(ftl.stats().writeAmplification(), 1.0);
}

TEST(Ftl, FullPreloadOverwriteKeepsRunning)
{
    // The whole user capacity preloaded, at 7% overprovisioning: 238
    // pages over four planes of 16 x 4-page blocks leave planes 2 and
    // 3 with a partly filled preload block. Writes continue in that
    // block's tail instead of stranding it, so seeded overwrites
    // clean steadily instead of running a plane out of free blocks.
    FlashConfig c = tinyCfg();
    c.blocksPerPlane = 16;
    c.overprovisionRatio = 0.07;
    Ftl ftl("f", c);
    ASSERT_EQ(ftl.preloadedPages(), 238u);
    astriflash::sim::Rng rng(7);
    GcWork gc;
    for (int i = 0; i < 20000; ++i)
        ftl.write(Lpn(rng.uniformInt(ftl.preloadedPages())), &gc);

    const Ftl::Stats &st = ftl.stats();
    EXPECT_EQ(st.hostWrites.value(), 20000u);
    EXPECT_GT(st.erases.value(), 0u);
    EXPECT_EQ(st.flashPrograms.value(),
              st.hostWrites.value() + st.gcRelocations.value());
    EXPECT_EQ(st.gcRelocations.value() + st.gcInvalidations.value(),
              st.erases.value() * c.pagesPerBlock);

    astriflash::sim::InvariantRegistry reg;
    reg.setFailFast(false);
    reg.add("ftl", [&ftl](astriflash::sim::InvariantChecker &chk) {
        ftl.checkInvariants(chk);
    });
    EXPECT_EQ(reg.checkAll(0), 0u) << reg.report();
}

TEST(FtlDeath, ReadBeyondPreloadPanics)
{
    const FlashConfig c = tinyCfg();
    Ftl ftl("f", c, 8);
    EXPECT_DEATH(ftl.translate(Lpn(9)), "beyond the preloaded");
}

TEST(FtlDeath, PreloadBeyondCapacityIsFatal)
{
    const FlashConfig c = tinyCfg();
    EXPECT_EXIT(Ftl("f", c, c.userPages() + 1),
                ::testing::ExitedWithCode(1), "exceeds user capacity");
}

TEST(FlashConfig, ForCapacityMeetsTarget)
{
    for (std::uint64_t gb : {1ull, 8ull, 64ull, 1024ull}) {
        const auto cfg = FlashConfig::forCapacity(gb << 30);
        EXPECT_GE(cfg.userBytes(), gb << 30) << gb;
    }
    // Larger SSDs get more planes (the §VI-D scaling argument).
    const auto small = FlashConfig::forCapacity(256ull << 30);
    const auto big = FlashConfig::forCapacity(1ull << 40);
    EXPECT_GT(big.totalPlanes() * big.blocksPerPlane,
              small.totalPlanes() * small.blocksPerPlane);
}
