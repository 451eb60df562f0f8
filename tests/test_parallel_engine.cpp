/**
 * @file
 * Conservative parallel engine tests (sim::ParallelEngine).
 *
 * Engine-level coverage: single-domain execution, cross-group relay
 * determinism at every host-jobs value, quantum-edge eligibility (an
 * event exactly at the horizon runs in that round), idle-channel
 * progress (lookahead past a source's committed clock), deterministic
 * cross-group post delivery, and the misuse death tests (zero
 * cross-group lookahead, shared group without an EventQueueGroup,
 * conservative deadlock).
 *
 * System-level coverage: the golden byte-identity gate at host-jobs 2,
 * depth-1 controller channels, the warmup-boundary resetStats inside
 * an engine run, and the one-domain run's telemetry at host-jobs 1, 2
 * and 4.
 *
 * Separate binary (test_parallel_suite): spawns worker threads and
 * runs death tests, so the TSan job can build and run it standalone.
 */

#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/parallel_engine.hh"

#include "core/system.hh"

#include "golden_cases.hh"

using namespace astriflash;
using namespace astriflash::core;
using namespace astriflash::tools;

namespace {

/** Three event queues in three distinct single-member exec groups. */
struct TriDomain {
    std::array<sim::EventQueue, 3> q;
    std::array<std::vector<sim::Ticks>, 3> log;
    sim::ParallelEngine engine;
    std::array<sim::ParallelEngine::DomainId, 3> dom{};

    explicit TriDomain(unsigned host_jobs,
                       sim::Ticks lookahead = 10)
        : engine(sim::ParallelEngine::Config{host_jobs, 20000})
    {
        for (unsigned i = 0; i < 3; ++i) {
            std::string name("d");
            name += std::to_string(i);
            dom[i] = engine.addDomain(name, q[i], i);
        }
        for (unsigned i = 0; i < 3; ++i)
            engine.addLink(dom[i], dom[(i + 1) % 3], lookahead);
    }
};

/**
 * Relay hop: log the delivery, then post the next hop one lookahead
 * downstream and schedule a local follow-up on the current domain.
 * Self-describing callback state (InlineFunction has no environment),
 * so it carries its own domain id and firing tick.
 */
struct Relay {
    TriDomain *t;
    unsigned dom;
    sim::Ticks when;
    int hopsLeft;

    void
    operator()() const
    {
        t->log[dom].push_back(when);
        if (hopsLeft <= 0)
            return;
        const unsigned nxt = (dom + 1) % 3;
        const sim::Ticks then = when + 10;
        t->engine.post(t->dom[dom], t->dom[nxt], then,
                       Relay{t, nxt, then, hopsLeft - 1});
        // Local work between barriers: fires on this domain only.
        t->q[dom].schedule(when + 3, [t = t, dom = dom,
                                      at = when + 3] {
            t->log[dom].push_back(at);
        });
    }
};

/** Run the 3-domain relay at @p host_jobs; returns the logs. */
std::array<std::vector<sim::Ticks>, 3>
relayRun(unsigned host_jobs, std::uint64_t *events = nullptr)
{
    TriDomain t(host_jobs);
    for (unsigned i = 0; i < 3; ++i)
        t.q[i].schedule(i + 1, Relay{&t, i, i + 1, 40});
    t.engine.run();
    if (events)
        *events = t.engine.stats().events;
    return t.log;
}

} // namespace

TEST(ParallelEngine, SingleDomainDrainsLikeAPlainQueue)
{
    sim::EventQueue q;
    std::vector<sim::Ticks> fired;
    for (sim::Ticks tk = 5; tk <= 50; tk += 5)
        q.schedule(tk, [&fired, tk] { fired.push_back(tk); });

    sim::ParallelEngine engine(sim::ParallelEngine::Config{1, 20000});
    engine.addDomain("only", q, 0);
    engine.run();

    EXPECT_EQ(fired.size(), 10u);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
    EXPECT_EQ(engine.stats().events, 10u);
    EXPECT_EQ(engine.workersSpawned(), 0u);
    EXPECT_EQ(q.curTick(), 50u);
}

TEST(ParallelEngine, WorkerCountClampsToGroupCount)
{
    sim::EventQueue q;
    q.schedule(1, [] {});
    sim::ParallelEngine engine(sim::ParallelEngine::Config{8, 20000});
    engine.addDomain("only", q, 0);
    engine.run();
    // One group can never use more than one worker.
    EXPECT_EQ(engine.workersSpawned(), 1u);
    EXPECT_EQ(engine.stats().events, 1u);
}

TEST(ParallelEngine, RelayLogsAreIdenticalAtEveryHostJobs)
{
    std::uint64_t ev1 = 0;
    const auto inline_logs = relayRun(1, &ev1);
    // Three seeded chains, each 41 relay firings plus 40 local
    // follow-ups: 243 logged events across the domains.
    std::size_t total = 0;
    for (const auto &l : inline_logs)
        total += l.size();
    EXPECT_EQ(total, 3u * (41u + 40u));

    for (const unsigned hj : {2u, 4u}) {
        std::uint64_t evN = 0;
        const auto logs = relayRun(hj, &evN);
        EXPECT_EQ(evN, ev1) << "host-jobs " << hj;
        for (unsigned i = 0; i < 3; ++i)
            EXPECT_EQ(logs[i], inline_logs[i])
                << "domain " << i << " at host-jobs " << hj;
    }
}

TEST(ParallelEngine, RelayTelemetryIsDeterministicAcrossHostJobs)
{
    // The horizon-round and mailbox counters are part of the
    // deterministic contract: they describe the event structure, not
    // the host schedule, so the same relay must report the same
    // telemetry no matter how many workers execute it.
    const auto statsFor = [](unsigned hj) {
        TriDomain t(hj);
        for (unsigned i = 0; i < 3; ++i)
            t.q[i].schedule(i + 1, Relay{&t, i, i + 1, 40});
        t.engine.run();
        return t.engine.stats();
    };

    const sim::ParallelEngine::Stats s2 = statsFor(2);
    // Three chains of 41 relay hops plus 40 local follow-ups each.
    EXPECT_EQ(s2.events, 3u * (41u + 40u));
    // Every hop but the last of each chain crosses a group boundary
    // through a mailbox post.
    EXPECT_EQ(s2.postsDelivered, 3u * 40u);
    EXPECT_GT(s2.rounds, 0u);
    EXPECT_GT(s2.barriers, 0u);
    // Rounds aggregate per-group work items across barriers.
    EXPECT_GE(s2.rounds, s2.barriers);
    // Hops spaced exactly one lookahead apart drain each round before
    // the horizon bites (nonzero-stall coverage lives in
    // EventExactlyAtTheQuantumEdgeRuns); the stall count still must
    // be bounded and schedule-independent.
    EXPECT_LE(s2.horizonStalls, s2.rounds);

    const sim::ParallelEngine::Stats s4 = statsFor(4);
    EXPECT_EQ(s4.rounds, s2.rounds);
    EXPECT_EQ(s4.barriers, s2.barriers);
    EXPECT_EQ(s4.events, s2.events);
    EXPECT_EQ(s4.postsDelivered, s2.postsDelivered);
    EXPECT_EQ(s4.horizonStalls, s2.horizonStalls);
}

TEST(ParallelEngine, EventExactlyAtTheQuantumEdgeRuns)
{
    // Source group: empty queue, but its (modeled) channel holds an
    // undelivered message stamped 40; lookahead 10 puts the horizon
    // at exactly 50. The edge is inclusive: 50 runs, 51 must wait.
    sim::EventQueue src;
    sim::EventQueue dst;
    std::vector<sim::Ticks> fired;
    dst.schedule(50, [&fired] { fired.push_back(50); });
    dst.schedule(51, [&fired] { fired.push_back(51); });

    sim::ParallelEngine engine(sim::ParallelEngine::Config{2, 20000});
    const auto s = engine.addDomain("src", src, 0);
    const auto d = engine.addDomain("dst", dst, 1);
    engine.addLink(s, d, 10, [] { return sim::Ticks{40}; });

    sim::ParallelEngine::RunHooks hooks;
    hooks.stop = [&engine] { return engine.stats().barriers >= 1; };
    engine.run(hooks);

    EXPECT_EQ(fired, (std::vector<sim::Ticks>{50}));
    EXPECT_EQ(dst.curTick(), 50u);
    EXPECT_GE(engine.stats().horizonStalls, 1u);
}

TEST(ParallelEngine, IdleChannelProgressesOnSourceClockPlusLookahead)
{
    // The inbound channel is idle (watermark kTickNever), so the
    // horizon comes from the source's committed clock alone: with
    // src's next event at 1000 and lookahead 10, dst may run through
    // 1010 in the very first round — lookahead-only progress, no
    // message traffic needed.
    sim::EventQueue src;
    sim::EventQueue dst;
    std::vector<sim::Ticks> fired;
    src.schedule(1000, [] {});
    for (const sim::Ticks tk : {100u, 1005u, 1500u})
        dst.schedule(tk, [&fired, tk] { fired.push_back(tk); });

    sim::ParallelEngine engine(sim::ParallelEngine::Config{2, 20000});
    const auto s = engine.addDomain("src", src, 0);
    const auto d = engine.addDomain("dst", dst, 1);
    engine.addLink(s, d, 10, [] { return sim::kTickNever; });

    sim::ParallelEngine::RunHooks hooks;
    hooks.stop = [&engine] { return engine.stats().barriers >= 1; };
    engine.run(hooks);

    EXPECT_EQ(fired, (std::vector<sim::Ticks>{100, 1005}));
    EXPECT_EQ(dst.pending(), 1u);
}

TEST(ParallelEngine, PostsDeliverInWhenPrioSourceOrder)
{
    // Two producer groups post into one consumer at the same tick;
    // whatever order the workers append to the mailbox, delivery must
    // sort by (when, prio, src, srcSeq).
    sim::EventQueue a;
    sim::EventQueue b;
    sim::EventQueue c;
    std::vector<int> order;

    sim::ParallelEngine engine(sim::ParallelEngine::Config{4, 20000});
    const auto da = engine.addDomain("a", a, 0);
    const auto db = engine.addDomain("b", b, 1);
    const auto dc = engine.addDomain("c", c, 2);
    engine.addLink(da, dc, 10);
    engine.addLink(db, dc, 10);

    a.schedule(1, [&engine, &order, da, dc] {
        engine.post(da, dc, 20, [&order] { order.push_back(1); });
        engine.post(da, dc, 20, [&order] { order.push_back(2); });
        engine.post(da, dc, 20, [&order] { order.push_back(0); },
                    sim::EventPriority::ClockEdge);
    });
    b.schedule(1, [&engine, &order, db, dc] {
        engine.post(db, dc, 20, [&order] { order.push_back(3); });
        engine.post(db, dc, 15, [&order] { order.push_back(-1); });
    });
    engine.run();

    // when=15 first; then when=20: ClockEdge prio, then src a's two
    // posts in issue order, then src b's.
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3}));
    EXPECT_EQ(engine.stats().postsDelivered, 5u);
}

TEST(ParallelEngine, MergedGroupMatchesOneBigQueue)
{
    // Two queues joined in one exec group must execute exactly like a
    // single queue holding every event: same global order, same tie
    // breaks (shared sequence counter), same final clock.
    sim::EventQueueGroup group;
    sim::EventQueue qa;
    sim::EventQueue qb;
    qa.joinGroup(group);
    qb.joinGroup(group);

    sim::EventQueue ref;
    std::vector<int> merged;
    std::vector<int> single;
    int tag = 0;
    for (const sim::Ticks tk : {7u, 3u, 7u, 3u, 9u, 7u}) {
        sim::EventQueue &member = (tag % 2) != 0 ? qb : qa;
        member.schedule(tk, [&merged, tag] { merged.push_back(tag); });
        ref.schedule(tk, [&single, tag] { single.push_back(tag); });
        ++tag;
    }

    sim::ParallelEngine engine(sim::ParallelEngine::Config{1, 20000});
    engine.addDomain("a", qa, 0);
    engine.addDomain("b", qb, 0);
    engine.run();
    ref.run();

    EXPECT_EQ(merged, single);
    EXPECT_EQ(qa.curTick(), ref.curTick());
    EXPECT_EQ(qb.curTick(), ref.curTick());
}

TEST(ParallelEngineDeath, ZeroLookaheadCrossGroupIsFatal)
{
    sim::EventQueue a;
    sim::EventQueue b;
    a.schedule(1, [] {});
    sim::ParallelEngine engine(sim::ParallelEngine::Config{2, 20000});
    const auto da = engine.addDomain("a", a, 0);
    const auto db = engine.addDomain("b", b, 1);
    engine.addLink(da, db, 0);
    EXPECT_DEATH(engine.run(), "lookahead > 0");
}

TEST(ParallelEngineDeath, SharedGroupWithoutEventQueueGroupIsFatal)
{
    sim::EventQueue a;
    sim::EventQueue b; // Same exec group, but never joinGroup()ed.
    a.schedule(1, [] {});
    sim::ParallelEngine engine(sim::ParallelEngine::Config{1, 20000});
    engine.addDomain("a", a, 0);
    engine.addDomain("b", b, 0);
    EXPECT_DEATH(engine.run(), "EventQueueGroup");
}

TEST(ParallelEngineDeath, StuckHorizonIsDeadlockNotSilence)
{
    // The watermark never drains and the source never runs, so after
    // the first round nothing is eligible while events are pending —
    // the engine must die loudly, not spin or exit quietly.
    sim::EventQueue src;
    sim::EventQueue dst;
    dst.schedule(50, [] {});
    dst.schedule(51, [] {});
    sim::ParallelEngine engine(sim::ParallelEngine::Config{1, 20000});
    const auto s = engine.addDomain("src", src, 0);
    const auto d = engine.addDomain("dst", dst, 1);
    engine.addLink(s, d, 10, [] { return sim::Ticks{40}; });
    EXPECT_DEATH(engine.run(), "deadlock");
}

// --------------------------------------------------------------------
// System-level: the one-domain engine run behind --host-jobs.
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

/** Render one golden case at @p host_jobs. */
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

/** Full stats-tree JSON of one run of @p cfg. */
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

/** The non-negotiable gate: every committed golden, byte-identical
 *  when a pool worker runs the engine's rounds. */
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
    // Depth-1 controller channels exercise maximum backpressure on
    // the FC<->BC seam; the worker count must not change a byte.
    SystemConfig cfg = smallCfg();
    cfg.dramCache.channels.fcToBcDepth = 1;
    cfg.dramCache.channels.bcToFlashDepth = 1;
    cfg.dramCache.channels.bcToFcDepth = 1;
    const std::string one = statsAt(cfg, 1);
    EXPECT_EQ(statsAt(cfg, 2), one);
}

TEST(ParallelSystem, ResetStatsMidRunStaysByteIdentical)
{
    // The warmup->measure transition calls resetStats() on every
    // component while the engine is mid-run (between two barriers);
    // every host-jobs value must reset at the same event boundary.
    SystemConfig cfg = smallCfg();
    cfg.warmupJobs = 97; // Deliberately not on a round boundary.
    const std::string one = statsAt(cfg, 1);
    EXPECT_EQ(statsAt(cfg, 2), one);
    EXPECT_EQ(statsAt(cfg, 4), one);
}

TEST(ParallelSystem, PartitionedRunReportsDomainQueues)
{
    // Every run drives the system's one queue as the engine's single
    // domain, so the engine reports its telemetry at every host-jobs,
    // host-jobs 1 included.
    SystemConfig cfg = smallCfg();
    cfg.hostJobs = 2;
    System sys(cfg);
    sys.run();
    const sim::ParallelEngine::Stats &es = sys.engineStats();
    EXPECT_GT(es.events, 0u);
    EXPECT_GT(es.barriers, 0u);
    EXPECT_GE(es.rounds, es.barriers);
    EXPECT_EQ(es.events, sys.eventsExecuted());

    // Engine telemetry lives outside the stats tree, so it is free to
    // (and must) be identical across host-jobs: the round structure is
    // a property of the one domain, not of the worker count.
    for (const unsigned hj : {1u, 4u}) {
        SystemConfig other = smallCfg();
        other.hostJobs = hj;
        System sysN(other);
        sysN.run();
        const sim::ParallelEngine::Stats &esN = sysN.engineStats();
        EXPECT_EQ(esN.rounds, es.rounds) << "host-jobs " << hj;
        EXPECT_EQ(esN.barriers, es.barriers) << "host-jobs " << hj;
        EXPECT_EQ(esN.events, es.events) << "host-jobs " << hj;
        EXPECT_EQ(esN.postsDelivered, es.postsDelivered)
            << "host-jobs " << hj;
        EXPECT_EQ(esN.horizonStalls, es.horizonStalls)
            << "host-jobs " << hj;
        EXPECT_EQ(esN.events, sysN.eventsExecuted()) << "host-jobs " << hj;
    }
}

TEST(ParallelSystem, ShardedRunStaysInOneExecGroup)
{
    // Four BC shards still run on the one queue: one exec group at
    // every host-jobs, nothing posted or held back by a horizon, and
    // the same round structure whatever the worker count.
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
        EXPECT_EQ(es.groups, 1u) << "host-jobs " << hj;
        EXPECT_EQ(es.groupEvents,
                  std::vector<std::uint64_t>{es.events})
            << "host-jobs " << hj;
        EXPECT_GT(es.events, 0u) << "host-jobs " << hj;
        EXPECT_EQ(es.events, sys.eventsExecuted()) << "host-jobs " << hj;
        EXPECT_EQ(es.postsDelivered, 0u) << "host-jobs " << hj;
        EXPECT_EQ(es.horizonStalls, 0u) << "host-jobs " << hj;
        if (hj == 1) {
            first = es;
            continue;
        }
        EXPECT_EQ(es.rounds, first.rounds) << "host-jobs " << hj;
        EXPECT_EQ(es.barriers, first.barriers) << "host-jobs " << hj;
        EXPECT_EQ(es.events, first.events) << "host-jobs " << hj;
    }
}
