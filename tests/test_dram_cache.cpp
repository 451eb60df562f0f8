/**
 * @file
 * Tests for the DRAM cache with frontside/backside controllers.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/backside_controller.hh"
#include "core/dram_cache.hh"
#include "flash/flash_device.hh"
#include "mem/address_map.hh"
#include "mem/dram.hh"
#include "mem/set_assoc_cache.hh"
#include "sim/event_queue.hh"

using namespace astriflash;
using namespace astriflash::core;
using namespace astriflash::sim;
using astriflash::mem::kPageSize;

namespace {

struct Rig {
    EventQueue eq;
    mem::AddressMap amap{64 << 20, 256 << 20};
    flash::FlashConfig fcfg;
    std::unique_ptr<flash::FlashDevice> flash;
    std::unique_ptr<DramCache> dc;
    std::vector<std::pair<mem::PageNum, std::vector<WaiterCookie>>>
        ready;

    explicit Rig(std::uint32_t msr_sets = 16, std::uint32_t msr_ways = 4)
        : Rig(smallCfg(msr_sets, msr_ways))
    {
    }

    explicit Rig(const DramCacheConfig &cfg)
    {
        fcfg = flash::FlashConfig::forCapacity(512 << 20);
        flash = std::make_unique<flash::FlashDevice>(
            "flash", fcfg, (256 << 20) / kPageSize);
        dc = std::make_unique<DramCache>(eq, "dc", cfg, *flash, amap);
        dc->setPageReadyCallback(
            [this](mem::PageNum page, Ticks,
                   const std::vector<WaiterCookie> &w) {
                ready.emplace_back(page, w);
            });
    }

    static DramCacheConfig
    smallCfg(std::uint32_t msr_sets = 16, std::uint32_t msr_ways = 4)
    {
        DramCacheConfig cfg;
        cfg.capacityBytes = 2 << 20; // 512 page frames
        cfg.bc.msrSets = msr_sets;
        cfg.bc.msrEntriesPerSet = msr_ways;
        return cfg;
    }

    mem::Addr pa(std::uint64_t page) const
    {
        return amap.flashRange().base + page * kPageSize;
    }
};

} // namespace

TEST(DramCache, PrewarmedPageHits)
{
    Rig rig;
    rig.dc->prewarmPage(rig.pa(7));
    EXPECT_TRUE(rig.dc->pageResident(rig.pa(7) + 128));
    const auto r = rig.dc->access(rig.pa(7), false, 1000, 1);
    EXPECT_TRUE(r.hit);
    // Tag probe + data CAS: tens of ns, far below flash latency.
    EXPECT_LT(r.ready - 1000, microseconds(1));
    EXPECT_EQ(rig.dc->fcStats().hits.value(), 1u);
}

TEST(DramCache, MissReturnsEarlyMissResponse)
{
    Rig rig;
    const auto r = rig.dc->access(rig.pa(3), false, 0, 42);
    EXPECT_FALSE(r.hit);
    // The miss response (MSHR reclaim) arrives ns-scale, not after
    // the flash access.
    EXPECT_LT(r.ready, microseconds(1));
    EXPECT_EQ(rig.dc->outstandingMisses(), 1u);
}

TEST(DramCache, FillDeliversWaitersAfterFlashLatency)
{
    Rig rig;
    rig.dc->access(rig.pa(3), false, 0, 42);
    rig.eq.run();
    ASSERT_EQ(rig.ready.size(), 1u);
    EXPECT_EQ(rig.ready[0].first, mem::pageNumber(rig.pa(3)));
    ASSERT_EQ(rig.ready[0].second.size(), 1u);
    EXPECT_EQ(rig.ready[0].second[0], 42u);
    // Page now resident; next access hits.
    EXPECT_TRUE(rig.dc->pageResident(rig.pa(3)));
    EXPECT_GT(rig.eq.curTick(), microseconds(40));
}

TEST(DramCache, ConcurrentMissesToSamePageMerge)
{
    Rig rig;
    rig.dc->access(rig.pa(5), false, 0, 1);
    rig.dc->access(rig.pa(5) + 64, false, 100, 2);
    rig.dc->access(rig.pa(5) + 128, true, 200, 3);
    EXPECT_EQ(rig.dc->fcStats().misses.value(), 1u);
    EXPECT_EQ(rig.dc->fcStats().missesMerged.value(), 2u);
    rig.eq.run();
    // One flash read, one arrival with all three waiters.
    EXPECT_EQ(rig.flash->stats().reads.value(), 1u);
    ASSERT_EQ(rig.ready.size(), 1u);
    EXPECT_EQ(rig.ready[0].second.size(), 3u);
}

TEST(DramCache, WriteAllocateInstallsDirtyAndWritesBack)
{
    Rig rig;
    rig.dc->access(rig.pa(9), true, 0, 1);
    rig.eq.run();
    ASSERT_TRUE(rig.dc->pageResident(rig.pa(9)));
    // Evict page 9 by filling its set with conflicting pages.
    // Sets = 512/8 = 64 -> conflict stride 64 pages.
    std::uint64_t installed = 0;
    for (std::uint64_t k = 1; rig.dc->pageResident(rig.pa(9)) &&
                              k <= 16; ++k) {
        rig.dc->access(rig.pa(9 + k * 64), false,
                       rig.eq.curTick(), 1);
        rig.eq.run();
        ++installed;
    }
    EXPECT_FALSE(rig.dc->pageResident(rig.pa(9)));
    EXPECT_GE(rig.dc->bcStats().dirtyWritebacks.value(), 1u);
    EXPECT_GE(rig.flash->stats().writes.value(), 1u);
}

namespace {

/** Parameter: footprint mode on/off. */
class DramCacheInstall : public ::testing::TestWithParam<bool>
{};

} // namespace

TEST_P(DramCacheInstall, DirtyVictimParksAndWritesBackOnce)
{
    DramCacheConfig cfg = Rig::smallCfg();
    cfg.footprintEnabled = GetParam();
    Rig rig(cfg);
    const mem::PageNum victim = mem::pageNumber(rig.pa(9));

    // A write miss installs page 9 dirty; a read of its second block
    // hits, so the residency touched blocks 0 and 1.
    rig.dc->access(rig.pa(9), true, 0, 1);
    rig.eq.run();
    ASSERT_TRUE(rig.dc->access(rig.pa(9) + 64, false, rig.eq.curTick(),
                               1).hit);

    // 64 sets x 8 ways: seven conflicting pages fill page 9's set
    // without a victim; the eighth's install displaces page 9 (LRU).
    for (std::uint64_t k = 1; k <= 7; ++k) {
        rig.dc->access(rig.pa(9 + k * 64), false, rig.eq.curTick(), 1);
        rig.eq.run();
    }
    ASSERT_EQ(rig.dc->evictBuffer().stats().inserts.value(), 0u);
    rig.dc->access(rig.pa(9 + 8 * 64), false, rig.eq.curTick(), 1);
    while (rig.dc->evictBuffer().empty() && rig.eq.runSteps(1) != 0) {
    }

    // Stopped right after the install: the victim is parked dirty and
    // its lazy drain has not run yet.
    EXPECT_FALSE(rig.dc->pageResident(rig.pa(9)));
    EXPECT_TRUE(rig.dc->evictBuffer().contains(victim));
    EXPECT_EQ(rig.dc->evictBuffer().stats().dirtyInserts.value(), 1u);
    EXPECT_EQ(rig.dc->bcStats().dirtyWritebacks.value(), 0u);

    rig.eq.run();
    EXPECT_TRUE(rig.dc->evictBuffer().empty());
    EXPECT_EQ(rig.dc->bcStats().dirtyWritebacks.value(), 1u);
    EXPECT_EQ(rig.flash->stats().writes.value(), 1u);

    // Refetch: footprint mode transfers only the victim's recorded
    // history (blocks 0 and 1); otherwise the whole page comes back.
    const std::uint64_t before =
        rig.dc->bcStats().flashBytesRead.value();
    rig.dc->access(rig.pa(9), false, rig.eq.curTick(), 1);
    rig.eq.run();
    EXPECT_EQ(rig.dc->bcStats().flashBytesRead.value() - before,
              GetParam() ? 2 * 64u : kPageSize);
}

INSTANTIATE_TEST_SUITE_P(Modes, DramCacheInstall, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &i) {
                             return i.param ? "Footprint" : "FullPage";
                         });

TEST(DramCache, SyncAccessBlocksForMiss)
{
    Rig rig;
    const Ticks ready = rig.dc->accessSync(rig.pa(11), false, 0);
    EXPECT_GT(ready, microseconds(40)); // waited out the flash read
    rig.eq.run();
    EXPECT_TRUE(rig.dc->pageResident(rig.pa(11)));
    EXPECT_EQ(rig.dc->fcStats().syncAccesses.value(), 1u);
}

TEST(DramCache, SyncAccessHitIsFast)
{
    Rig rig;
    rig.dc->prewarmPage(rig.pa(12));
    const Ticks ready = rig.dc->accessSync(rig.pa(12), false, 1000);
    EXPECT_LT(ready - 1000, microseconds(1));
}

TEST(DramCache, MsrSetConflictDefersFlashRead)
{
    // Single-set, 1-entry MSR: the second distinct miss must wait for
    // the first fill to free the entry.
    Rig rig(1, 1);
    rig.dc->access(rig.pa(2), false, 0, 1);
    rig.dc->access(rig.pa(3), false, 0, 2);
    EXPECT_EQ(rig.dc->msr().stats().setFullStalls.value(), 1u);
    rig.eq.run();
    // Both fills eventually complete.
    EXPECT_TRUE(rig.dc->pageResident(rig.pa(2)));
    EXPECT_TRUE(rig.dc->pageResident(rig.pa(3)));
    EXPECT_EQ(rig.flash->stats().reads.value(), 2u);
    EXPECT_EQ(rig.ready.size(), 2u);
}

TEST(DramCache, MissPenaltyTracksFlashScale)
{
    Rig rig;
    rig.dc->access(rig.pa(30), false, 0, 1);
    rig.eq.run();
    const auto p50 = rig.dc->bcStats().missPenalty.percentile(0.5);
    // Penalty measured at arrival: install cost, sub-flash scale.
    EXPECT_LT(p50, microseconds(5));
    EXPECT_EQ(rig.dc->bcStats().fills.value(), 1u);
}

TEST(DramCache, ResetStatsZeroes)
{
    Rig rig;
    rig.dc->prewarmPage(rig.pa(1));
    rig.dc->access(rig.pa(1), false, 0, 1);
    rig.dc->resetStats();
    EXPECT_EQ(rig.dc->fcStats().hits.value(), 0u);
    EXPECT_EQ(rig.dc->fcStats().misses.value(), 0u);
}

TEST(DramCache, DepthOneChannelsSerializeWithoutLoss)
{
    // The narrowest legal fc_to_bc and bc_to_flash windows still
    // conserve every push: each slot's lifetime ends before the next
    // push needs it, so nothing deadlocks or drops.
    DramCacheConfig cfg = Rig::smallCfg();
    cfg.channels.fcToBcDepth = 1;
    cfg.channels.bcToFlashDepth = 1;
    Rig rig(cfg);

    constexpr unsigned kProbes = 8;
    unsigned issued = 0;
    // One probe at a time, spaced 200 us apart: each full round trip
    // (miss -> flash read -> install -> complete) must recycle every
    // depth-1 slot before the next begins.
    for (unsigned i = 0; i < kProbes; ++i) {
        rig.eq.schedule(microseconds(200) * i, [&rig, &issued]() {
            rig.dc->access(rig.pa(3 + issued), false,
                           microseconds(200) * issued, issued + 1);
            ++issued;
        });
    }

    rig.eq.run();

    EXPECT_EQ(issued, kProbes);
    EXPECT_EQ(rig.dc->fcStats().misses.value(), kProbes);
    EXPECT_EQ(rig.dc->outstandingMisses(), 0u);
    EXPECT_EQ(rig.ready.size(), kProbes);
    // One request and one flash read per miss (no victims: eight
    // pages fit a 512-frame cache), every push popped.
    for (const sim::BoundedChannel *ch :
         {&rig.dc->missChannel(), &rig.dc->flashChannel()}) {
        EXPECT_EQ(ch->stats().pushes.value(), kProbes) << ch->name();
        EXPECT_EQ(ch->stats().pops.value(), kProbes) << ch->name();
    }
    EXPECT_EQ(rig.dc->missChannel().stats().fullStalls.value(), 0u);
}

// ---------------------------------------------------------------
// The backside controller on its own: the ticks its replies carry.
// ---------------------------------------------------------------

namespace {

/** One backside controller over its own DRAM, tag array and flash
 *  device, driven directly so a test reads its BcReply ticks. */
struct BcRig {
    EventQueue eq;
    mem::AddressMap amap{64 << 20, 256 << 20};
    DramCacheConfig cfg;
    flash::FlashDevice flash{"flash",
                             flash::FlashConfig::forCapacity(512 << 20),
                             (256 << 20) / kPageSize};
    mem::Dram dram;
    mem::SetAssocCache tags;
    FootprintState fp;
    PageReadyFn onReady;
    BacksideController bc;

    explicit BcRig(const DramCacheConfig &config)
        : cfg(config), dram("dram", cfg.dram),
          tags("tags", cfg.capacityBytes, cfg.pageBytes, cfg.ways),
          bc(eq, "dc", "", cfg, amap, flash, dram, tags, fp, onReady,
             cfg.bc.msrSets, cfg.bc.msrEntriesPerSet,
             cfg.bc.evictBufferEntries)
    {
    }

    /** One BC operation, the unit of its service times. */
    Ticks
    bcOp() const
    {
        return ClockDomain(cfg.controllerFreqHz)
            .cycles(cfg.bc.cyclesPerOp);
    }

    mem::Addr pa(std::uint64_t page) const
    {
        return amap.flashRange().base + page * kPageSize;
    }

    BcReply
    request(std::uint64_t page, Ticks now)
    {
        MissRequest req;
        req.page = mem::pageNumber(pa(page));
        return bc.request(req, now);
    }
};

} // namespace

TEST(BacksideController, EvictBufferHitIsReadyOneBcOpAfterAccept)
{
    BcRig rig(Rig::smallCfg());
    // 64 sets x 8 ways: fill page 9's set, then miss on a ninth page
    // of the set, whose install parks page 9 in the evict buffer.
    for (std::uint64_t k = 0; k < 8; ++k)
        rig.tags.fill(rig.pa(9 + k * 64), false);
    rig.request(9 + 8 * 64, 0);
    while (rig.bc.evictBuffer().empty() && rig.eq.runSteps(1) != 0) {
    }
    ASSERT_TRUE(
        rig.bc.evictBuffer().contains(mem::pageNumber(rig.pa(9))));

    // The lazy drain has not run: the BC serves the parked page in one
    // op, with no flash read.
    const Ticks now = rig.eq.curTick();
    const BcReply rep = rig.request(9, now);
    EXPECT_EQ(rep.kind, BcReply::Kind::EvictBufferHit);
    EXPECT_EQ(rep.accepted, now);
    EXPECT_EQ(rep.ready, now + rig.bcOp());
    EXPECT_EQ(rig.flash.stats().reads.value(), 1u);
}

TEST(BacksideController, DepthOneFlashWindowSubmitsAtAccept)
{
    // Two misses at tick 0 behind a one-slot bc_to_flash window: the
    // second read waits in the window for the first to complete and
    // goes to the (idle again) device at that accept tick, so it is
    // ready exactly the window's stall later than the first.
    DramCacheConfig cfg = Rig::smallCfg();
    cfg.channels.bcToFlashDepth = 1;
    BcRig rig(cfg);

    const BcReply a = rig.request(3, 0);
    const BcReply b = rig.request(4, 0);
    const sim::BoundedChannel &window = rig.bc.flashChannel();
    ASSERT_EQ(window.stats().fullStalls.value(), 1u);
    EXPECT_GT(window.stats().stallTicks.value(), 0u);
    EXPECT_EQ(b.ready - a.ready, window.stats().stallTicks.value());

    rig.eq.run();
    EXPECT_EQ(rig.bc.stats().fills.value(), 2u);
    EXPECT_EQ(window.stats().pushes.value(), window.stats().pops.value());
}

// ---------------------------------------------------------------
// Footprint-cache mode (§II-A optimization)
// ---------------------------------------------------------------

namespace {

struct FootprintRig : Rig {
    FootprintRig()
    {
        DramCacheConfig cfg;
        cfg.capacityBytes = 2 << 20;
        cfg.footprintEnabled = true;
        dc = std::make_unique<DramCache>(eq, "dcfp", cfg, *flash,
                                         amap);
        dc->setPageReadyCallback(
            [this](mem::PageNum page, Ticks,
                   const std::vector<WaiterCookie> &w) {
                ready.emplace_back(page, w);
            });
    }
};

} // namespace

TEST(DramCacheFootprint, FirstMissFetchesWholePage)
{
    FootprintRig rig;
    rig.dc->access(rig.pa(3), false, 0, 1);
    rig.eq.run();
    // No history: full transfer; every block of the page hits.
    EXPECT_EQ(rig.dc->bcStats().flashBytesRead.value(), 4096u);
    for (int b = 0; b < 64; ++b) {
        const auto r = rig.dc->access(rig.pa(3) + b * 64, false,
                                      rig.eq.curTick(), 1);
        EXPECT_TRUE(r.hit) << b;
    }
    EXPECT_EQ(rig.dc->fcStats().subPageMisses.value(), 0u);
}

TEST(DramCacheFootprint, RefetchTransfersOnlyFootprint)
{
    FootprintRig rig;
    // Touch two blocks of page 5, then force it out (sets = 64).
    rig.dc->access(rig.pa(5), false, 0, 1);
    rig.eq.run();
    rig.dc->access(rig.pa(5) + 64, false, rig.eq.curTick(), 1);
    for (std::uint64_t k = 1; rig.dc->pageResident(rig.pa(5)) &&
                              k <= 16; ++k) {
        rig.dc->access(rig.pa(5 + k * 64), false, rig.eq.curTick(),
                       1);
        rig.eq.run();
    }
    ASSERT_FALSE(rig.dc->pageResident(rig.pa(5)));
    const std::uint64_t before =
        rig.dc->bcStats().flashBytesRead.value();

    // Refetch: only the recorded 2-block footprint (plus the
    // requested block, already in it) is transferred.
    rig.dc->access(rig.pa(5), false, rig.eq.curTick(), 1);
    rig.eq.run();
    EXPECT_EQ(rig.dc->bcStats().flashBytesRead.value() - before,
              2 * 64u);
}

TEST(DramCacheFootprint, UnfetchedBlockIsSubPageMiss)
{
    FootprintRig rig;
    // Build a 1-block footprint for page 7, evict, refetch.
    rig.dc->access(rig.pa(7), false, 0, 1);
    rig.eq.run();
    for (std::uint64_t k = 1; rig.dc->pageResident(rig.pa(7)) &&
                              k <= 16; ++k) {
        rig.dc->access(rig.pa(7 + k * 64), false, rig.eq.curTick(),
                       1);
        rig.eq.run();
    }
    rig.dc->access(rig.pa(7), false, rig.eq.curTick(), 1);
    rig.eq.run();
    ASSERT_TRUE(rig.dc->pageResident(rig.pa(7)));

    // A different block of the now-resident page: sub-page miss that
    // fetches the remainder and then hits.
    const auto r =
        rig.dc->access(rig.pa(7) + 512, false, rig.eq.curTick(), 9);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(rig.dc->fcStats().subPageMisses.value(), 1u);
    rig.eq.run();
    const auto again =
        rig.dc->access(rig.pa(7) + 512, false, rig.eq.curTick(), 9);
    EXPECT_TRUE(again.hit);
}

TEST(DramCacheFootprint, SyncPathHandlesSubPageMiss)
{
    FootprintRig rig;
    rig.dc->access(rig.pa(8), false, 0, 1);
    rig.eq.run();
    for (std::uint64_t k = 1; rig.dc->pageResident(rig.pa(8)) &&
                              k <= 16; ++k) {
        rig.dc->access(rig.pa(8 + k * 64), false, rig.eq.curTick(),
                       1);
        rig.eq.run();
    }
    rig.dc->access(rig.pa(8), false, rig.eq.curTick(), 1);
    rig.eq.run();
    const Ticks now = rig.eq.curTick();
    const Ticks ready = rig.dc->accessSync(rig.pa(8) + 1024, false,
                                           now);
    EXPECT_GT(ready - now, microseconds(30)); // waited out flash
}

TEST(DramCache, HitRatioComputed)
{
    Rig rig;
    rig.dc->prewarmPage(rig.pa(0));
    rig.dc->access(rig.pa(0), false, 0, 1);
    rig.dc->access(rig.pa(99), false, 0, 1);
    EXPECT_DOUBLE_EQ(rig.dc->fcStats().hitRatio(), 0.5);
}
