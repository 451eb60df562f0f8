/**
 * @file
 * Unit tests for sim::BoundedChannel, the slot window: time-based
 * occupancy and backpressure (accept tick pushed out to the k-th slot
 * release), stall-cycle accounting, the one-open-push discipline, and
 * the window's invariant audit.
 *
 * Separate binary (test_channel_suite): the misuse tests are death
 * tests, so they must not share a process with timing suites.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "sim/bounded_channel.hh"
#include "sim/invariant.hh"

using namespace astriflash;

namespace {

sim::BoundedChannel
window(std::uint32_t capacity)
{
    return sim::BoundedChannel("ch", capacity);
}

/** A push's accept tick and the slots in flight once it is accepted,
 *  itself included. */
using Seen = std::pair<sim::Ticks, std::uint64_t>;

/** Push at @p now, reading what it saw from the occupancy sample the
 *  push adds to the window's stats. */
Seen
pushSeen(sim::BoundedChannel &ch, sim::Ticks now)
{
    const double before = ch.stats().occupancy.total();
    const sim::Ticks accept = ch.push(now);
    return {accept, static_cast<std::uint64_t>(
                        ch.stats().occupancy.total() - before)};
}

/** Audit @p ch through a throwaway checker; @return failure count. */
std::uint64_t
auditFailures(const sim::BoundedChannel &ch)
{
    sim::InvariantChecker chk;
    ch.checkInvariants(chk);
    return chk.failures();
}

} // namespace

TEST(BoundedChannel, AcceptEqualsPushAtUnboundedDepth)
{
    // The timing-neutrality contract the FC/BC split relies on: at
    // effectively-unbounded depth the accept tick always equals the
    // push tick, whatever the pop/release history looks like.
    sim::BoundedChannel ch = window(65536);
    for (int i = 0; i < 100; ++i) {
        const sim::Ticks t = static_cast<sim::Ticks>(i * 37 % 1000);
        EXPECT_EQ(ch.push(t), t);
        ch.pop(t + 5000); // slot held far into the future
    }
    EXPECT_EQ(ch.stats().fullStalls.value(), 0u);
    EXPECT_EQ(ch.stats().stallTicks.value(), 0u);
    EXPECT_EQ(ch.stats().peakOccupancy, 100u);
}

// --------------------------------------------------------------------
// Capacity, backpressure, and stall accounting.
// --------------------------------------------------------------------

TEST(BoundedChannel, FullChannelDelaysAcceptToSlotRelease)
{
    sim::BoundedChannel ch = window(2);

    // Two transactions occupy both slots until ticks 100 and 200.
    EXPECT_EQ(pushSeen(ch, 0), Seen(0, 1));
    ch.pop(100);
    EXPECT_EQ(pushSeen(ch, 0), Seen(0, 2));
    ch.pop(200);

    // A push at t=10 finds every slot in flight: the accept tick moves
    // out to the earliest release (100) and the 90-tick stall is
    // charged to the channel. Once accepted, the open push holds the
    // freed slot beside the tick-200 one.
    EXPECT_EQ(pushSeen(ch, 10), Seen(100, 2));
    EXPECT_EQ(ch.stats().fullStalls.value(), 1u);
    EXPECT_EQ(ch.stats().stallTicks.value(), 90u);

    // After the slot-200 transaction also completes, pushes flow
    // freely again.
    ch.pop(120);
    EXPECT_EQ(pushSeen(ch, 250), Seen(250, 1));
    EXPECT_EQ(ch.stats().fullStalls.value(), 1u);
    EXPECT_EQ(ch.stats().peakOccupancy, 2u);
}

TEST(BoundedChannel, ConsecutiveStallsWalkSuccessiveReleases)
{
    sim::BoundedChannel ch = window(3);

    // Three popped slots busy until ticks 100/200/300.
    ch.push(0);
    ch.pop(100);
    ch.push(0);
    ch.pop(200);
    ch.push(0);
    ch.pop(300);

    // Full at t=0: the first extra push waits for the earliest release
    // (tick 100); its own transaction then holds that slot far out,
    // so the next push can only reclaim the tick-200 slot. Each stall
    // is charged in full against the producer's own push tick.
    EXPECT_EQ(ch.push(0), 100u);
    ch.pop(1000);
    EXPECT_EQ(ch.push(0), 200u);
    EXPECT_EQ(ch.stats().fullStalls.value(), 2u);
    EXPECT_EQ(ch.stats().stallTicks.value(), 300u);
}

// --------------------------------------------------------------------
// Invariant audit.
// --------------------------------------------------------------------

TEST(BoundedChannel, InvariantAuditPassesThroughLifecycle)
{
    sim::BoundedChannel ch = window(2);
    EXPECT_EQ(auditFailures(ch), 0u);

    ch.push(0);
    EXPECT_EQ(auditFailures(ch), 0u); // one push open

    ch.pop(100);
    ch.push(0);
    ch.pop(200);
    ch.push(10); // stalls to tick 100
    EXPECT_EQ(auditFailures(ch), 0u);

    ch.pop(150);
    EXPECT_EQ(auditFailures(ch), 0u);
}

TEST(BoundedChannel, InvariantAuditIsRegistryCompatible)
{
    // The System registers each channel as its own invariant
    // component; verify the hook composes with the registry driver.
    sim::BoundedChannel ch("dcache.fc_to_bc", 4);
    ch.push(3);

    sim::InvariantRegistry reg;
    reg.setFailFast(false);
    reg.add(ch.name(),
            [&ch](sim::InvariantChecker &chk) { ch.checkInvariants(chk); });
    EXPECT_EQ(reg.checkAll(sim::microseconds(1)), 0u);
    EXPECT_GE(reg.conditionsEvaluated(), 5u);
}

// --------------------------------------------------------------------
// Misuse (death tests).
// --------------------------------------------------------------------

TEST(BoundedChannelDeath, ZeroCapacityIsFatal)
{
    EXPECT_EXIT(window(0), ::testing::ExitedWithCode(1),
                "capacity >= 1");
}

TEST(BoundedChannelDeath, PopWithoutPushPanics)
{
    sim::BoundedChannel ch = window(2);
    EXPECT_DEATH(ch.pop(0), "no open push");
}

TEST(BoundedChannelDeath, FullWithUndrainedMessagesPanics)
{
    // Every push is popped before the next; a full depth-1 window
    // with its only slot still open has no defined accept tick.
    sim::BoundedChannel ch = window(1);
    ch.push(0); // occupies the only slot, never popped
    EXPECT_DEATH(ch.push(0), "un-drained");
}

TEST(BoundedChannelDeath, SecondPushBeforePopPanics)
{
    // Free slots do not excuse the discipline: a roomy window still
    // holds at most one open push.
    sim::BoundedChannel ch = window(8);
    ch.push(0);
    EXPECT_DEATH(ch.push(5), "un-drained");
}

// --------------------------------------------------------------------
// Edge cases: depth-1, same-tick turnaround, and the exact-full
// boundary.
// --------------------------------------------------------------------

TEST(BoundedChannel, DepthOneSerializesEveryTransaction)
{
    sim::BoundedChannel ch = window(1);

    // The single slot round-trips each transaction: with the slot held
    // to tick 50, the next push stalls to exactly that release.
    EXPECT_EQ(ch.push(0), 0u);
    ch.pop(50);
    EXPECT_EQ(ch.push(10), 50u);
    EXPECT_EQ(ch.stats().fullStalls.value(), 1u);
    EXPECT_EQ(ch.stats().stallTicks.value(), 40u);
    ch.pop(120);

    // A push after the release flows without a stall.
    EXPECT_EQ(ch.push(130), 130u);
    ch.pop(130);
    EXPECT_EQ(ch.stats().fullStalls.value(), 1u);
    EXPECT_EQ(ch.stats().peakOccupancy, 1u);
    EXPECT_EQ(auditFailures(ch), 0u);
}

TEST(BoundedChannel, SameTickSendAndReceive)
{
    sim::BoundedChannel ch = window(4);

    // Push and release at the identical tick: legal, nothing charged
    // as a stall.
    EXPECT_EQ(ch.push(42), 42u);
    ch.pop(42);
    EXPECT_EQ(ch.stats().pushes.value(), ch.stats().pops.value());
    // A slot released at tick 42 is already free to a tick-42 push.
    EXPECT_EQ(pushSeen(ch, 42), Seen(42, 1));
    ch.pop(42);
    EXPECT_EQ(ch.stats().fullStalls.value(), 0u);
    EXPECT_EQ(ch.stats().stallTicks.value(), 0u);
    EXPECT_EQ(auditFailures(ch), 0u);
}

TEST(BoundedChannel, BackpressureExactlyAtFullOccupancy)
{
    sim::BoundedChannel ch = window(2);

    // One of two slots in flight: one below capacity, no backpressure.
    ch.push(0);
    ch.pop(100);
    EXPECT_EQ(pushSeen(ch, 10), Seen(10, 2));
    EXPECT_EQ(ch.stats().fullStalls.value(), 0u);

    // Exactly at capacity: the boundary push must stall, and must be
    // accepted exactly at the earliest release tick, not one later.
    ch.pop(200);
    EXPECT_EQ(pushSeen(ch, 10), Seen(100, 2));
    EXPECT_EQ(ch.stats().fullStalls.value(), 1u);
    EXPECT_EQ(ch.stats().stallTicks.value(), 90u);

    // At the release tick itself the freed slot is usable: occupancy
    // is back below capacity from the consumer's viewpoint.
    ch.pop(300);
    EXPECT_EQ(pushSeen(ch, 200), Seen(200, 2));
    EXPECT_EQ(ch.stats().fullStalls.value(), 1u);
    EXPECT_EQ(auditFailures(ch), 0u);
}

