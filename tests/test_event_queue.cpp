/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/ticks.hh"

using namespace astriflash::sim;

namespace {

/** A same-tick rank other than Default; lower ranks run first. */
EventPriority
rank(int r)
{
    return static_cast<EventPriority>(r);
}

} // namespace

TEST(EventQueue, StartsAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickOrderedByInsertion)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, PriorityBreaksTies)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(2); }, rank(10));
    eq.schedule(5, [&] { order.push_back(1); }, EventPriority::Default);
    eq.schedule(5, [&] { order.push_back(0); }, rank(-10));
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] {
        ++fired;
        eq.scheduleIn(5, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.curTick(), 15u);
}

TEST(EventQueue, RunStepsBoundsExecution)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(i + 1, [] {});
    EXPECT_EQ(eq.runSteps(3), 3u);
    EXPECT_EQ(eq.pending(), 2u);
}

TEST(EventQueue, ExecutedAccumulates)
{
    EventQueue eq;
    for (int i = 0; i < 4; ++i)
        eq.schedule(i + 1, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 4u);
}

TEST(EventQueue, ZeroDelayEventRunsAtCurrentTick)
{
    EventQueue eq;
    Ticks seen = kTickNever;
    eq.schedule(7, [&] {
        eq.scheduleIn(0, [&] { seen = eq.curTick(); });
    });
    eq.run();
    EXPECT_EQ(seen, 7u);
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(50, [] {}), "scheduling into the past");
}

/** Determinism: interleaved schedules produce identical traces. */
TEST(EventQueue, DeterministicTrace)
{
    auto trace = [] {
        EventQueue eq;
        std::vector<std::uint64_t> t;
        for (int i = 0; i < 100; ++i) {
            eq.schedule((i * 37) % 50 + 1, [&t, &eq] {
                t.push_back(eq.curTick());
            });
        }
        eq.run();
        return t;
    };
    EXPECT_EQ(trace(), trace());
}

TEST(EventQueue, CallbackReschedulesDuringFire)
{
    // The firing slot is released before the callback runs, so the
    // callback's own schedule may land in the very slot that is firing
    // (and may reallocate the slot table). Both must be safe.
    EventQueue eq;
    std::vector<Ticks> at;
    eq.schedule(10, [&] {
        at.push_back(eq.curTick());
        for (int i = 0; i < 64; ++i)
            eq.scheduleIn(1 + i, [&] { at.push_back(eq.curTick()); });
    });
    eq.run();
    EXPECT_EQ(at.size(), 65u);
    EXPECT_EQ(at.front(), 10u);
    EXPECT_EQ(at.back(), 74u);
}

TEST(EventQueue, PriorityThenInsertionOrderAfterReuse)
{
    EventQueue eq;
    // Burn and release some slots first so the tie-break test runs on
    // reused slots (seq, not slot index, must decide order).
    for (int i = 0; i < 8; ++i)
        eq.schedule(1, [] {});
    eq.run();
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(2); }, rank(10));
    eq.schedule(10, [&] { order.push_back(0); }, rank(-10));
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(10, [&] { order.push_back(3); }, rank(100));
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// ---- Invariant audit & reserve ----

TEST(EventQueue, InvariantsHoldOnBusyQueue)
{
    EventQueue eq;
    for (int i = 0; i < 200; ++i)
        eq.schedule((i * 17) % 97 + 1, [] {});
    eq.runSteps(50);
    astriflash::sim::InvariantChecker chk;
    eq.checkInvariants(chk);
    EXPECT_EQ(chk.failures(), 0u);
    EXPECT_GT(chk.conditionsEvaluated(), 0u);
}

TEST(EventQueue, ReserveDoesNotDisturbSemantics)
{
    EventQueue eq;
    eq.reserve(1024);
    std::vector<int> order;
    for (int i = 0; i < 500; ++i)
        eq.schedule((499 - i) + 1, [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order.size(), 500u);
    EXPECT_EQ(order.front(), 499);
    EXPECT_EQ(order.back(), 0);
    EXPECT_EQ(eq.executed(), 500u);
}

// --------------------------------------------------------------------
// Same-tick tie-break perturbation (the detshake hook).
// --------------------------------------------------------------------

TEST(EventQueuePerturbation, SeedZeroIsExactlyProductionOrder)
{
    // Seed 0 must be bit-for-bit the unperturbed insertion order,
    // whether or not the hook is compiled in.
    EventQueue eq;
    eq.setTiePerturbation(0);
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueuePerturbation, NonzeroSeedPermutesSameTickTies)
{
    if (!EventQueue::tiePerturbationCompiledIn())
        GTEST_SKIP() << "perturbation hook compiled out (Release)";

    auto runWithSeed = [](std::uint64_t seed) {
        EventQueue eq;
        eq.setTiePerturbation(seed);
        std::vector<int> order;
        for (int i = 0; i < 16; ++i)
            eq.schedule(5, [&order, i] { order.push_back(i); });
        eq.run();
        return order;
    };

    std::vector<int> identity(16);
    for (int i = 0; i < 16; ++i)
        identity[i] = i;

    bool permuted = false;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        std::vector<int> order = runWithSeed(seed);
        // Always a permutation: every event fires exactly once.
        std::vector<int> sorted = order;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(sorted, identity);
        if (order != identity)
            permuted = true;
        // The same seed replays the same permutation.
        EXPECT_EQ(runWithSeed(seed), order);
    }
    EXPECT_TRUE(permuted)
        << "no seed in 1..4 moved any same-tick tie";
}

TEST(EventQueuePerturbation, PerturbationRespectsTimeAndPriority)
{
    if (!EventQueue::tiePerturbationCompiledIn())
        GTEST_SKIP() << "perturbation hook compiled out (Release)";

    // Shaking ties must never reorder across ticks or priorities:
    // only the order WITHIN a (when, prio) group may move.
    EventQueue eq;
    eq.setTiePerturbation(12345);
    std::vector<int> order;
    eq.schedule(20, [&] { order.push_back(200); });
    for (int i = 0; i < 8; ++i)
        eq.schedule(10, [&order, i] { order.push_back(100 + i); });
    eq.schedule(10, [&] { order.push_back(99); }, rank(-10));
    eq.schedule(10, [&] { order.push_back(150); }, rank(10));
    eq.run();
    ASSERT_EQ(order.size(), 11u);
    EXPECT_EQ(order.front(), 99);   // tick 10, rank -10
    EXPECT_EQ(order[9], 150);       // tick 10, rank 10
    EXPECT_EQ(order.back(), 200);   // tick 20
    for (std::size_t i = 1; i <= 8; ++i) {
        EXPECT_GE(order[i], 100);
        EXPECT_LT(order[i], 108);
    }
}

TEST(EventQueuePerturbationDeath, NonzeroSeedFatalWhenCompiledOut)
{
    if (EventQueue::tiePerturbationCompiledIn())
        GTEST_SKIP() << "hook compiled in; the seed is honored";
    EventQueue eq;
    EXPECT_EXIT(eq.setTiePerturbation(1),
                ::testing::ExitedWithCode(1), "compiled out");
}

namespace {

/** Labels of the warm hooks called, in call order. */
struct WarmLog {
    std::vector<int> calls;
};

/** A hook whose argument names its event, for WarmLog. */
struct Labelled {
    WarmLog *log;
    int label;

    static void
    hook(void *arg)
    {
        const auto *self = static_cast<const Labelled *>(arg);
        self->log->calls.push_back(self->label);
    }

    EventQueue::Warm
    warm()
    {
        return {&Labelled::hook, this};
    }
};

} // namespace

TEST(EventQueueWarm, HeadIsWarmedAfterEachPop)
{
    EventQueue eq;
    WarmLog log;
    std::vector<Labelled> labels;
    labels.reserve(4);
    for (int i = 0; i < 4; ++i)
        labels.push_back({&log, i});
    // Events 0..3 at ticks 10..40, scheduled out of order.
    for (const int i : {2, 0, 3, 1})
        eq.schedule(10 * Ticks(i + 1), [] {}, EventPriority::Default,
                    labels[i].warm());

    eq.runSteps(1); // pops 0: warms 1, the new head
    EXPECT_EQ(log.calls, std::vector<int>{1});
    log.calls.clear();
    eq.runSteps(2); // pops 1: warms 2; pops 2: warms 3
    EXPECT_EQ(log.calls, (std::vector<int>{2, 3}));
    log.calls.clear();
    eq.run(); // pops 3 into an empty heap
    EXPECT_TRUE(log.calls.empty());
}

TEST(EventQueueWarm, HookSeesStateBeforeItsPredecessorRuns)
{
    // The hooks run after the pop and before the popped callback.
    EventQueue eq;
    WarmLog log;
    Labelled second{&log, 1};
    eq.schedule(1, [&log] { log.calls.push_back(0); });
    eq.schedule(2, [] {}, EventPriority::Default, second.warm());
    eq.runSteps(1);
    EXPECT_EQ(log.calls, (std::vector<int>{1, 0}));
}

TEST(EventQueueWarm, HooksChangeNeitherOrderNorCount)
{
    // The same seeded schedule/reschedule stream with and without
    // hooks must execute the same events in the same order.
    auto drive = [](bool hooks) {
        EventQueue eq;
        WarmLog log;
        Labelled label{&log, 0};
        const EventQueue::Warm warm =
            hooks ? label.warm() : EventQueue::Warm{};
        std::vector<int> order;
        std::uint64_t x = 12345;
        auto rnd = [&x](std::uint64_t n) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            return (x >> 33) % n;
        };
        int next = 0;
        std::function<void()> spawn = [&] {
            const int id = next++;
            eq.scheduleIn(
                rnd(20),
                [&, id] {
                    order.push_back(id);
                    if (next < 3000)
                        spawn();
                    if (next < 3000 && rnd(3) == 0)
                        spawn();
                },
                rank(static_cast<int>(rnd(3))), warm);
        };
        for (int i = 0; i < 16; ++i)
            spawn();
        while (!eq.empty())
            eq.runSteps(7);
        if (hooks) {
            EXPECT_GT(log.calls.size(), 1000u);
        }
        return std::make_pair(order, eq.executed());
    };
    const auto plain = drive(false);
    const auto warmed = drive(true);
    EXPECT_EQ(plain.first, warmed.first);
    EXPECT_EQ(plain.second, warmed.second);
    EXPECT_GT(plain.second, 1000u);
}
