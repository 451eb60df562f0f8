/**
 * @file
 * Run-loop tests (sim::ParallelEngine, DESIGN.md §15).
 *
 * Loop-level coverage: a drain behaves like a plain queue, every round
 * but the last runs exactly the event budget, and the stop hook is
 * read only between rounds.
 *
 * System-level coverage: every committed golden and the mid-run-reset
 * and sharded runs are byte-identical whatever SystemConfig::hostJobs
 * says, since the field is a no-op kept for the benchmark; a depth-1
 * run keeps its recorded window stalls and service tail; the run-loop
 * telemetry matches the events executed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/bounded_channel.hh"
#include "sim/parallel_engine.hh"

#include "core/dram_cache.hh"
#include "core/system.hh"

#include "golden_cases.hh"

using namespace astriflash;
using namespace astriflash::core;
using namespace astriflash::tools;

TEST(ParallelEngine, SingleDomainDrainsLikeAPlainQueue)
{
    sim::EventQueue q;
    std::vector<sim::Ticks> fired;
    for (sim::Ticks tk = 5; tk <= 50; tk += 5)
        q.schedule(tk, [&fired, tk] { fired.push_back(tk); });

    sim::ParallelEngine engine(q, 20000);
    engine.run();

    EXPECT_EQ(fired.size(), 10u);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
    EXPECT_EQ(engine.stats().events, 10u);
    EXPECT_EQ(engine.stats().rounds, 1u);
    EXPECT_EQ(engine.stats().groups, 1u);
    EXPECT_EQ(engine.stats().groupEvents,
              std::vector<std::uint64_t>{10});
    EXPECT_EQ(q.curTick(), 50u);

    // Round budget: ten events at a budget of four take rounds of
    // 4, 4 and 2, and the between-rounds hook sees each boundary.
    sim::EventQueue q2;
    for (sim::Ticks tk = 1; tk <= 10; ++tk)
        q2.schedule(tk, [] {});
    sim::ParallelEngine budgeted(q2, 4);
    std::vector<sim::Ticks> boundaries;
    sim::ParallelEngine::RunHooks hooks;
    hooks.atBarrier = [&boundaries](sim::Ticks now) {
        boundaries.push_back(now);
    };
    budgeted.run(hooks);
    EXPECT_EQ(boundaries, (std::vector<sim::Ticks>{4, 8, 10}));
    EXPECT_EQ(budgeted.stats().rounds, 3u);
    EXPECT_EQ(budgeted.stats().events, 10u);

    // The stop hook is read only between rounds: an event that asks
    // to stop mid-round still lets the round finish its budget.
    sim::EventQueue q3;
    bool stop_requested = false;
    int ran = 0;
    for (sim::Ticks tk = 1; tk <= 10; ++tk) {
        q3.schedule(tk, [&stop_requested, &ran, tk] {
            ++ran;
            if (tk == 2)
                stop_requested = true;
        });
    }
    sim::ParallelEngine stopping(q3, 4);
    sim::ParallelEngine::RunHooks stop_hooks;
    int stop_reads = 0;
    stop_hooks.stop = [&stop_requested, &stop_reads] {
        ++stop_reads;
        return stop_requested;
    };
    stopping.run(stop_hooks);
    EXPECT_EQ(ran, 4);
    EXPECT_EQ(stop_reads, 2);
    EXPECT_EQ(stopping.stats().rounds, 1u);
    EXPECT_EQ(q3.pending(), 6u);
}

// --------------------------------------------------------------------
// System-level: SystemConfig::hostJobs changes nothing.
// --------------------------------------------------------------------

namespace {

/** Whole-file slurp; fails the test if the golden file is missing. */
std::string
readGolden(const std::string &case_name)
{
    const std::string path =
        std::string(ASTRI_GOLDEN_DIR) + "/" + case_name + ".json";
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing golden file " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Render one golden case with SystemConfig::hostJobs = @p host_jobs. */
std::string
renderCase(const GoldenCase &gc, unsigned host_jobs)
{
    SystemConfig cfg = goldenCaseConfig(gc);
    cfg.hostJobs = host_jobs;
    System sys(cfg);
    const RunResults r = sys.run();
    std::ostringstream os;
    writeGoldenJson(os, gc, r, sys);
    return os.str();
}

/** Small TATP config for the hj1-vs-hjN System comparisons. */
SystemConfig
smallCfg()
{
    SystemConfig cfg;
    cfg.kind = SystemKind::AstriFlash;
    cfg.cores = 2;
    cfg.workloadKind = workload::Kind::Tatp;
    cfg.workload.datasetBytes = 1ull << 26;
    cfg.warmupJobs = 50;
    cfg.measureJobs = 200;
    cfg.dramCache.bc.shards = 2;
    return cfg;
}

/** Full stats-tree JSON of one run of @p cfg at @p host_jobs. */
std::string
statsAt(SystemConfig cfg, unsigned host_jobs)
{
    cfg.hostJobs = host_jobs;
    System sys(cfg);
    sys.run();
    return sys.statsRegistry().dumpJson();
}

class ParallelGolden : public ::testing::TestWithParam<GoldenCase>
{
};

} // namespace

/** Every committed golden, byte-identical with hostJobs set: the
 *  benchmark's hj4 = hj1 digest gate relies on the field being a
 *  no-op. */
TEST_P(ParallelGolden, ByteIdenticalAtHostJobs2)
{
    const GoldenCase &gc = GetParam();
    const std::string want = readGolden(gc.name);
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(renderCase(gc, 2), want) << gc.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, ParallelGolden, ::testing::ValuesIn(kGoldenCases),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        return std::string(info.param.name);
    });

TEST(ParallelSystem, DepthOneChannelsStayByteIdentical)
{
    // Depth-1 windows put the most backpressure on every shard's
    // fc_to_bc and bc_to_flash seams. The stalls each window charges
    // and the service tail they feed must stay the values recorded
    // from the commit that retired the causality auditor, so a
    // moved window tick (a flash read submitted at `now` instead of
    // at its accept tick, DESIGN.md §14.2) fails here.
    SystemConfig cfg = smallCfg();
    cfg.dramCache.channels.fcToBcDepth = 1;
    cfg.dramCache.channels.bcToFlashDepth = 1;
    System sys(cfg);
    const RunResults r = sys.run();
    DramCache &dc = *sys.dramCache();
    ASSERT_EQ(dc.shardCount(), 2u);
    struct Window {
        const sim::BoundedChannel *ch;
        std::uint64_t fullStalls;
        std::uint64_t stallTicks;
    };
    const Window want[] = {
        {&dc.missChannel(0), 89, 4910654220},
        {&dc.flashChannel(0), 10, 416952880},
        {&dc.missChannel(1), 71, 3734966850},
        {&dc.flashChannel(1), 15, 770165580},
    };
    for (const Window &w : want) {
        EXPECT_EQ(w.ch->stats().fullStalls.value(), w.fullStalls)
            << w.ch->name();
        EXPECT_EQ(w.ch->stats().stallTicks.value(), w.stallTicks)
            << w.ch->name();
    }
    EXPECT_DOUBLE_EQ(r.serviceUs(0.99), 444.596223);
}

TEST(ParallelSystem, ResetStatsMidRunStaysByteIdentical)
{
    // The warmup->measure transition calls resetStats() on every
    // component in the middle of a round; every hostJobs value must
    // reset at the same event boundary.
    SystemConfig cfg = smallCfg();
    cfg.warmupJobs = 97; // Deliberately not on a round boundary.
    const std::string one = statsAt(cfg, 1);
    EXPECT_EQ(statsAt(cfg, 2), one);
    EXPECT_EQ(statsAt(cfg, 4), one);
}

TEST(ParallelSystem, PartitionedRunReportsDomainQueues)
{
    // Every run reports its run-loop telemetry, and it counts every
    // event the system's one queue executed.
    SystemConfig cfg = smallCfg();
    cfg.hostJobs = 2;
    System sys(cfg);
    sys.run();
    const sim::ParallelEngine::Stats &es = sys.engineStats();
    EXPECT_GT(es.events, 0u);
    EXPECT_GT(es.rounds, 0u);
    EXPECT_EQ(es.events, sys.eventsExecuted());

    // The telemetry lives outside the stats tree but must not depend
    // on hostJobs either: the round structure is a property of the
    // one queue.
    for (const unsigned hj : {1u, 4u}) {
        SystemConfig other = smallCfg();
        other.hostJobs = hj;
        System sysN(other);
        sysN.run();
        const sim::ParallelEngine::Stats &esN = sysN.engineStats();
        EXPECT_EQ(esN.rounds, es.rounds) << "hostJobs " << hj;
        EXPECT_EQ(esN.events, es.events) << "hostJobs " << hj;
        EXPECT_EQ(esN.postsDelivered, es.postsDelivered)
            << "hostJobs " << hj;
        EXPECT_EQ(esN.horizonStalls, es.horizonStalls)
            << "hostJobs " << hj;
        EXPECT_EQ(esN.events, sysN.eventsExecuted()) << "hostJobs " << hj;
    }
}

TEST(ParallelSystem, ShardedRunStaysInOneExecGroup)
{
    // Four BC shards still run on the one queue: the telemetry
    // reports one group holding every event, nothing posted or held
    // back by a horizon, and the same rounds at every hostJobs.
    const GoldenCase *sharded = nullptr;
    for (const GoldenCase &gc : kGoldenCases) {
        if (std::string(gc.name) == "shard4_astriflash_tatp")
            sharded = &gc;
    }
    ASSERT_NE(sharded, nullptr);

    sim::ParallelEngine::Stats first;
    for (const unsigned hj : {1u, 2u, 4u}) {
        SystemConfig cfg = goldenCaseConfig(*sharded);
        cfg.hostJobs = hj;
        System sys(cfg);
        (void)sys.run();

        const sim::ParallelEngine::Stats &es = sys.engineStats();
        EXPECT_EQ(es.groups, 1u) << "hostJobs " << hj;
        EXPECT_EQ(es.groupEvents,
                  std::vector<std::uint64_t>{es.events})
            << "hostJobs " << hj;
        EXPECT_GT(es.events, 0u) << "hostJobs " << hj;
        EXPECT_EQ(es.events, sys.eventsExecuted()) << "hostJobs " << hj;
        EXPECT_EQ(es.postsDelivered, 0u) << "hostJobs " << hj;
        EXPECT_EQ(es.horizonStalls, 0u) << "hostJobs " << hj;
        if (hj == 1) {
            first = es;
            continue;
        }
        EXPECT_EQ(es.rounds, first.rounds) << "hostJobs " << hj;
        EXPECT_EQ(es.events, first.events) << "hostJobs " << hj;
    }
}
