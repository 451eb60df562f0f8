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
    eq.schedule(5, [&] { order.push_back(2); }, EventPriority::Stats);
    eq.schedule(5, [&] { order.push_back(1); }, EventPriority::Default);
    eq.schedule(5, [&] { order.push_back(0); },
                EventPriority::ClockEdge);
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

TEST(EventQueue, RunUntilStopsAtLimitInclusive)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.schedule(21, [&] { ++fired; });
    EXPECT_EQ(eq.runUntil(20), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, RunStepsBoundsExecution)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(i + 1, [] {});
    EXPECT_EQ(eq.runSteps(3), 3u);
    EXPECT_EQ(eq.pending(), 2u);
}

TEST(EventQueue, DescheduleCancelsPending)
{
    EventQueue eq;
    int fired = 0;
    const EventId id = eq.schedule(10, [&] { ++fired; });
    EXPECT_TRUE(eq.deschedule(id));
    eq.run();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, DescheduleIsIdempotent)
{
    EventQueue eq;
    const EventId id = eq.schedule(10, [] {});
    EXPECT_TRUE(eq.deschedule(id));
    EXPECT_FALSE(eq.deschedule(id));
    EXPECT_FALSE(eq.deschedule(kInvalidEventId));
    EXPECT_FALSE(eq.deschedule(99999));
}

TEST(EventQueue, DescheduleAfterFireFails)
{
    EventQueue eq;
    const EventId id = eq.schedule(10, [] {});
    eq.run();
    EXPECT_FALSE(eq.deschedule(id));
}

TEST(EventQueue, PendingCountsOnlyLiveEvents)
{
    EventQueue eq;
    const EventId a = eq.schedule(10, [] {});
    eq.schedule(20, [] {});
    EXPECT_EQ(eq.pending(), 2u);
    eq.deschedule(a);
    EXPECT_EQ(eq.pending(), 1u);
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

// ---- Generation-tagged slot reuse ----

TEST(EventQueue, StaleHandleCannotCancelReusedSlot)
{
    EventQueue eq;
    int fired = 0;
    const EventId a = eq.schedule(10, [&] { ++fired; });
    eq.run();
    // Slot 0 is free again; the next schedule reuses it under a new
    // generation, so the stale handle must not alias the new event.
    const EventId b = eq.schedule(20, [&] { fired += 100; });
    EXPECT_NE(a, b);
    EXPECT_FALSE(eq.deschedule(a));
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_TRUE(eq.deschedule(b));
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, StaleHandleAfterCancelCannotCancelReusedSlot)
{
    EventQueue eq;
    int fired = 0;
    const EventId a = eq.schedule(10, [&] { ++fired; });
    EXPECT_TRUE(eq.deschedule(a));
    eq.run(); // Reaps the tombstone and releases the slot.
    const EventId b = eq.schedule(20, [&] { ++fired; });
    EXPECT_FALSE(eq.deschedule(a));
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.deschedule(b) == false);
}

TEST(EventQueue, HandlesStayUniqueAcrossManyReuses)
{
    EventQueue eq;
    std::vector<EventId> seen;
    for (int round = 0; round < 50; ++round) {
        const EventId id = eq.schedule(eq.curTick() + 1, [] {});
        for (const EventId old : seen)
            EXPECT_NE(id, old);
        seen.push_back(id);
        eq.run();
    }
}

// ---- Cancellation from inside a firing callback ----

TEST(EventQueue, CallbackCancelsLaterEvent)
{
    EventQueue eq;
    int fired = 0;
    EventId victim = kInvalidEventId;
    victim = eq.schedule(20, [&] { fired += 100; });
    eq.schedule(10, [&] {
        ++fired;
        EXPECT_TRUE(eq.deschedule(victim));
    });
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CallbackCancelsSameTickEvent)
{
    EventQueue eq;
    int fired = 0;
    // Same tick: the first event (earlier seq) cancels the second
    // before it surfaces.
    EventId victim = kInvalidEventId;
    eq.schedule(10, [&] {
        ++fired;
        EXPECT_TRUE(eq.deschedule(victim));
    });
    victim = eq.schedule(10, [&] { fired += 100; });
    eq.run();
    EXPECT_EQ(fired, 1);
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

// ---- Tie-break ordering under the slot/heap split ----

TEST(EventQueue, TieBreakSurvivesCancellations)
{
    EventQueue eq;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 16; ++i)
        ids.push_back(eq.schedule(5, [&order, i] {
            order.push_back(i);
        }));
    for (int i = 0; i < 16; i += 2)
        EXPECT_TRUE(eq.deschedule(ids[static_cast<std::size_t>(i)]));
    eq.run();
    std::vector<int> expect;
    for (int i = 1; i < 16; i += 2)
        expect.push_back(i);
    EXPECT_EQ(order, expect);
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
    eq.schedule(10, [&] { order.push_back(2); }, EventPriority::Stats);
    eq.schedule(10, [&] { order.push_back(0); },
                EventPriority::ClockEdge);
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(10, [&] { order.push_back(3); },
                EventPriority::Teardown);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// ---- Compaction policy ----

TEST(EventQueue, CompactionReclaimsTombstones)
{
    EventQueue eq;
    std::vector<EventId> ids;
    const std::size_t n = EventQueue::kCompactMinHeap * 4;
    for (std::size_t i = 0; i < n; ++i)
        ids.push_back(eq.schedule(1000 + i, [] {}));
    // Cancel well past the tombstone threshold; the queue must compact
    // eagerly rather than let cancelled nodes accumulate.
    for (std::size_t i = 0; i < n; ++i) {
        if (i % 3 != 0) {
            EXPECT_TRUE(eq.deschedule(ids[i]));
        }
    }
    EXPECT_GE(eq.compactions(), 1u);
    // Post-compaction bound: tombstones are at most 1/kCompactDenominator
    // of the heap (for heaps above the minimum size). Heap size is the
    // live events plus the tombstones still parked in it.
    const std::size_t heap_size = eq.pending() + eq.cancelledInHeap();
    EXPECT_TRUE(heap_size <= EventQueue::kCompactMinHeap ||
                eq.cancelledInHeap() * EventQueue::kCompactDenominator <=
                    heap_size);
    astriflash::sim::InvariantChecker chk;
    eq.checkInvariants(chk);
    EXPECT_EQ(chk.failures(), 0u);
    eq.run();
    EXPECT_EQ(eq.executed(), (n + 2) / 3); // The i % 3 == 0 survivors.
}

TEST(EventQueue, SmallHeapsNeverCompact)
{
    EventQueue eq;
    std::vector<EventId> ids;
    for (std::size_t i = 0; i < EventQueue::kCompactMinHeap; ++i)
        ids.push_back(eq.schedule(100 + i, [] {}));
    for (const EventId id : ids)
        EXPECT_TRUE(eq.deschedule(id));
    EXPECT_EQ(eq.compactions(), 0u);
    eq.run();
    EXPECT_EQ(eq.executed(), 0u);
}

// ---- Invariant audit & reserve ----

TEST(EventQueue, InvariantsHoldOnBusyQueue)
{
    EventQueue eq;
    std::vector<EventId> ids;
    for (int i = 0; i < 200; ++i)
        ids.push_back(eq.schedule((i * 17) % 97 + 1, [] {}));
    for (int i = 0; i < 200; i += 5)
        eq.deschedule(ids[static_cast<std::size_t>(i)]);
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
    eq.schedule(10, [&] { order.push_back(99); },
                EventPriority::ClockEdge);
    eq.schedule(10, [&] { order.push_back(150); },
                EventPriority::Stats);
    eq.run();
    ASSERT_EQ(order.size(), 11u);
    EXPECT_EQ(order.front(), 99);   // tick 10, ClockEdge
    EXPECT_EQ(order[9], 150);       // tick 10, Stats
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
    eq.runUntil(kTickNever); // pops 3 into an empty heap
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

TEST(EventQueueWarm, DescheduledHookNeverFires)
{
    EventQueue eq;
    WarmLog log;
    std::vector<Labelled> labels;
    labels.reserve(64);
    std::vector<EventId> ids;
    for (int i = 0; i < 64; ++i) {
        labels.push_back({&log, i});
        ids.push_back(eq.schedule(Ticks(i + 1), [] {},
                                  EventPriority::Default,
                                  labels.back().warm()));
    }
    // Cancel every third event; each sits next in line when the
    // event before it pops.
    for (int i = 1; i < 64; i += 3)
        EXPECT_TRUE(eq.deschedule(ids[i]));
    eq.run();
    EXPECT_EQ(eq.executed(), 43u);
    for (const int label : log.calls)
        EXPECT_NE(label % 3, 1) << "cancelled event " << label
                                << " warmed";
    EXPECT_FALSE(log.calls.empty());
}

TEST(EventQueueWarm, HooksChangeNeitherOrderNorCount)
{
    // The same seeded schedule/cancel/reschedule stream with and
    // without hooks must execute the same events in the same order.
    auto drive = [](bool hooks) {
        EventQueue eq;
        WarmLog log;
        Labelled label{&log, 0};
        const EventQueue::Warm warm =
            hooks ? label.warm() : EventQueue::Warm{};
        std::vector<int> order;
        std::vector<EventId> ids;
        std::uint64_t x = 12345;
        auto rnd = [&x](std::uint64_t n) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            return (x >> 33) % n;
        };
        int next = 0;
        std::function<void()> spawn = [&] {
            const int id = next++;
            ids.push_back(eq.scheduleIn(
                rnd(20),
                [&, id] {
                    order.push_back(id);
                    if (next < 3000)
                        spawn();
                    if (next < 3000 && rnd(3) == 0)
                        spawn();
                    if (rnd(5) == 0)
                        eq.deschedule(ids[rnd(ids.size())]);
                },
                static_cast<EventPriority>(rnd(3)), warm));
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
