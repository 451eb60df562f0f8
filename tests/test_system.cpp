/**
 * @file
 * Integration tests: full-system runs of every §V-B configuration on
 * a scaled-down dataset, checking the paper's qualitative orderings
 * and the methodology invariants.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/system.hh"

using namespace astriflash;
using namespace astriflash::core;

namespace {

SystemConfig
smallCfg(SystemKind kind,
         workload::Kind wl = workload::Kind::Tatp)
{
    SystemConfig cfg;
    cfg.kind = kind;
    cfg.cores = 2;
    cfg.workloadKind = wl;
    cfg.workload.datasetBytes = 256ull << 20; // 256 MB scaled
    cfg.warmupJobs = 200;
    cfg.measureJobs = 1500;
    return cfg;
}

RunResults
runKind(SystemKind kind, workload::Kind wl = workload::Kind::Tatp)
{
    System sys(smallCfg(kind, wl));
    return sys.run();
}

} // namespace

TEST(SystemIntegration, AllConfigsCompleteMeasurement)
{
    for (SystemKind kind :
         {SystemKind::DramOnly, SystemKind::AstriFlash,
          SystemKind::AstriFlashIdeal, SystemKind::AstriFlashNoPS,
          SystemKind::AstriFlashNoDP, SystemKind::OsSwap,
          SystemKind::FlashSync}) {
        const auto r = runKind(kind);
        EXPECT_EQ(r.jobs, 1500u) << systemKindName(kind);
        EXPECT_GT(r.throughputJobsPerSec, 0.0)
            << systemKindName(kind);
        EXPECT_GT(r.serviceUs(0.99), r.avgServiceUs() * 0.5)
            << systemKindName(kind);
    }
}

TEST(SystemIntegration, ThroughputOrderingMatchesFig9)
{
    const double dram =
        runKind(SystemKind::DramOnly).throughputJobsPerSec;
    const double astri =
        runKind(SystemKind::AstriFlash).throughputJobsPerSec;
    const double ideal =
        runKind(SystemKind::AstriFlashIdeal).throughputJobsPerSec;
    const double os_swap =
        runKind(SystemKind::OsSwap).throughputJobsPerSec;
    const double sync =
        runKind(SystemKind::FlashSync).throughputJobsPerSec;

    // Fig. 9 ordering: DRAM >= Ideal >= AstriFlash > OS-Swap > Sync.
    EXPECT_GE(dram * 1.005, ideal);
    EXPECT_GE(ideal * 1.005, astri);
    EXPECT_GT(astri, os_swap);
    EXPECT_GT(os_swap, sync);

    // Magnitudes: AstriFlash ~95%, OS-Swap ~58%, Flash-Sync ~27%.
    EXPECT_GT(astri / dram, 0.88);
    EXPECT_LT(os_swap / dram, 0.75);
    EXPECT_GT(os_swap / dram, 0.40);
    EXPECT_LT(sync / dram, 0.40);
}

TEST(SystemIntegration, ServiceLatencyOrderingMatchesTable2)
{
    const double sync = runKind(SystemKind::FlashSync).serviceUs(0.99);
    const double astri = runKind(SystemKind::AstriFlash).serviceUs(0.99);
    const double nops =
        runKind(SystemKind::AstriFlashNoPS).serviceUs(0.99);
    const double nodp =
        runKind(SystemKind::AstriFlashNoDP).serviceUs(0.99);

    // Table II: AstriFlash close to Flash-Sync; noPS and noDP worse.
    EXPECT_LT(astri / sync, 2.0);
    EXPECT_GT(nops / sync, 3.0);
    EXPECT_GT(nodp / astri, 1.1);
}

TEST(SystemIntegration, MissIntervalCalibrated)
{
    // §V-A: a DRAM-cache miss every 5-25 us of execution.
    const auto r = runKind(SystemKind::AstriFlash);
    EXPECT_GT(r.avgExecBetweenMissesUs, 3.0);
    EXPECT_LT(r.avgExecBetweenMissesUs, 40.0);
}

TEST(SystemIntegration, DramCacheHitRatioHigh)
{
    const auto r = runKind(SystemKind::AstriFlash);
    EXPECT_GT(r.dramCacheHitRatio, 0.90);
    EXPECT_LT(r.dramCacheHitRatio, 1.0);
}

TEST(SystemIntegration, OsSwapIssuesShootdowns)
{
    const auto r = runKind(SystemKind::OsSwap);
    EXPECT_GT(r.shootdowns, 100u);
    const auto astri = runKind(SystemKind::AstriFlash);
    EXPECT_EQ(astri.shootdowns, 0u); // hardware-managed: none
}

TEST(SystemIntegration, FlashTrafficOnlyOnFlashConfigs)
{
    EXPECT_EQ(runKind(SystemKind::DramOnly).flashReads, 0u);
    EXPECT_GT(runKind(SystemKind::AstriFlash).flashReads, 500u);
}

TEST(SystemIntegration, WritesReachFlashViaDirtyEvictions)
{
    // ArraySwap is write-heavy: dirty pages must eventually be
    // evicted and written back to flash. Needs a long enough run for
    // dirtied pages to age out of the LRU cache.
    SystemConfig cfg =
        smallCfg(SystemKind::AstriFlash, workload::Kind::ArraySwap);
    cfg.measureJobs = 6000;
    System sys(cfg);
    const auto r = sys.run();
    EXPECT_GT(r.flashWrites, 0u);
}

TEST(SystemIntegration, OpenLoopMeasuresResponseAboveService)
{
    SystemConfig cfg = smallCfg(SystemKind::AstriFlash);
    // Load the 2-core system at ~60%: service ~16 us/job/core.
    cfg.meanInterarrival = sim::microseconds(13);
    System sys(cfg);
    const auto r = sys.run();
    EXPECT_EQ(r.jobs, 1500u);
    EXPECT_GE(r.responseUs(0.99), r.serviceUs(0.99) * 0.99);
    EXPECT_GT(r.avgResponseUs(), 0.0);
}

TEST(SystemIntegration, DeterministicAcrossRuns)
{
    const auto a = runKind(SystemKind::AstriFlash);
    const auto b = runKind(SystemKind::AstriFlash);
    EXPECT_DOUBLE_EQ(a.throughputJobsPerSec, b.throughputJobsPerSec);
    EXPECT_DOUBLE_EQ(a.serviceUs(0.99), b.serviceUs(0.99));
    EXPECT_EQ(a.flashReads, b.flashReads);
}

TEST(SystemIntegration, AllWorkloadsRunOnAstriFlash)
{
    for (workload::Kind wl : workload::kAllKinds) {
        SystemConfig cfg = smallCfg(SystemKind::AstriFlash, wl);
        cfg.measureJobs = 400;
        cfg.warmupJobs = 100;
        System sys(cfg);
        const auto r = sys.run();
        EXPECT_EQ(r.jobs, 400u) << workload::kindName(wl);
        EXPECT_GT(r.dramCacheHitRatio, 0.85)
            << workload::kindName(wl);
    }
}

TEST(SystemIntegration, PeakOutstandingMissesBeyondMshrScale)
{
    // The motivation for the in-DRAM MSR: concurrent misses exceed
    // what an on-chip CAM could reasonably hold per-core.
    SystemConfig cfg = smallCfg(SystemKind::AstriFlash);
    cfg.cores = 4;
    System sys(cfg);
    const auto r = sys.run();
    EXPECT_GT(r.peakOutstandingMisses, 8u);
}

TEST(SystemIntegration, ForwardProgressPreventsLivelock)
{
    // A DRAM cache of minimal size thrashes violently; forward
    // progress must still guarantee completion.
    SystemConfig cfg = smallCfg(SystemKind::AstriFlash);
    cfg.dramCacheRatio = 0.002; // 0.2%: pathological
    cfg.warmupJobs = 50;
    cfg.measureJobs = 300;
    System sys(cfg);
    const auto r = sys.run();
    EXPECT_EQ(r.jobs, 300u);
    std::uint64_t forced_sync = 0;
    for (std::uint32_t c = 0; c < cfg.cores; ++c)
        forced_sync += sys.coreAt(c).stats().syncMissStalls.value();
    EXPECT_GT(forced_sync, 0u);
}

TEST(SystemDeath, RejectsDramRatioThatIsNotFiniteAndPositive)
{
    // The cache size casts dataset * ratio to an integer, which is
    // undefined for these; construction must fail first, naming the
    // ratio.
    for (SystemKind kind : {SystemKind::AstriFlash, SystemKind::OsSwap}) {
        for (double ratio : {-1.0, 0.0, std::nan(""), HUGE_VAL}) {
            SystemConfig cfg = smallCfg(kind);
            cfg.dramCacheRatio = ratio;
            EXPECT_EXIT({ System sys(cfg); }, ::testing::ExitedWithCode(1),
                        "DRAM-cache ratio .* must be finite and positive")
                << ratio;
        }
    }
}
