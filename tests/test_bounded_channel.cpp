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

#include "sim/bounded_channel.hh"
#include "sim/invariant.hh"

using namespace astriflash;

namespace {

/** An unaudited window with the vacuous contract. */
sim::BoundedChannel
window(std::uint32_t capacity)
{
    return sim::BoundedChannel("ch", capacity, sim::ChannelContract{},
                               nullptr);
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
        ch.pop(t + 5000, t + 5000); // slot held far into the future
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
    EXPECT_EQ(ch.push(0), 0u);
    ch.pop(100, 100);
    EXPECT_EQ(ch.push(0), 0u);
    ch.pop(200, 200);

    EXPECT_EQ(ch.inFlight(10), 2u);
    EXPECT_EQ(ch.inFlight(150), 1u);

    // A push at t=10 finds every slot in flight: the accept tick moves
    // out to the earliest release (100) and the 90-tick stall is
    // charged to the channel.
    EXPECT_EQ(ch.push(10), 100u);
    EXPECT_EQ(ch.stats().fullStalls.value(), 1u);
    EXPECT_EQ(ch.stats().stallTicks.value(), 90u);
    EXPECT_EQ(ch.inFlight(100), 2u); // the open push holds a slot

    // After the slot-200 transaction also completes, pushes flow
    // freely again.
    ch.pop(120, 120);
    EXPECT_EQ(ch.push(250), 250u);
    EXPECT_EQ(ch.stats().fullStalls.value(), 1u);
    EXPECT_EQ(ch.stats().peakOccupancy, 2u);
}

TEST(BoundedChannel, ConsecutiveStallsWalkSuccessiveReleases)
{
    sim::BoundedChannel ch = window(3);

    // Three popped slots busy until ticks 100/200/300.
    ch.push(0);
    ch.pop(100, 100);
    ch.push(0);
    ch.pop(200, 200);
    ch.push(0);
    ch.pop(300, 300);

    // Full at t=0: the first extra push waits for the earliest release
    // (tick 100); its own transaction then holds that slot far out,
    // so the next push can only reclaim the tick-200 slot. Each stall
    // is charged in full against the producer's own push tick.
    EXPECT_EQ(ch.push(0), 100u);
    ch.pop(100, 1000);
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

    ch.pop(100, 100);
    ch.push(0);
    ch.pop(200, 200);
    ch.push(10); // stalls to tick 100
    EXPECT_EQ(auditFailures(ch), 0u);

    ch.pop(150, 150);
    EXPECT_EQ(auditFailures(ch), 0u);
}

TEST(BoundedChannel, InvariantAuditIsRegistryCompatible)
{
    // The System registers each channel as its own invariant
    // component; verify the hook composes with the registry driver.
    sim::BoundedChannel ch("dcache.fc_to_bc", 4, sim::ChannelContract{},
                           nullptr);
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
    EXPECT_DEATH(ch.pop(0, 0), "no open push");
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
    ch.pop(50, 50);
    EXPECT_EQ(ch.push(10), 50u);
    EXPECT_EQ(ch.stats().fullStalls.value(), 1u);
    EXPECT_EQ(ch.stats().stallTicks.value(), 40u);
    ch.pop(120, 120);

    // A push after the release flows without a stall.
    EXPECT_EQ(ch.push(130), 130u);
    ch.pop(130, 130);
    EXPECT_EQ(ch.stats().fullStalls.value(), 1u);
    EXPECT_EQ(ch.stats().peakOccupancy, 1u);
    EXPECT_EQ(auditFailures(ch), 0u);
}

TEST(BoundedChannel, SameTickSendAndReceive)
{
    sim::BoundedChannel ch = window(4);

    // Push and consume at the identical tick: legal (a zero-lookahead
    // channel), stamps all equal, nothing charged as a stall.
    EXPECT_EQ(ch.push(42), 42u);
    ch.pop(42, 42);
    EXPECT_EQ(ch.stats().pushes.value(), ch.stats().pops.value());
    // A slot released at tick 42 is already free to a tick-42 push.
    EXPECT_EQ(ch.inFlight(42), 0u);
    EXPECT_EQ(ch.stats().fullStalls.value(), 0u);
    EXPECT_EQ(ch.stats().stallTicks.value(), 0u);
    EXPECT_EQ(auditFailures(ch), 0u);
}

TEST(BoundedChannel, BackpressureExactlyAtFullOccupancy)
{
    sim::BoundedChannel ch = window(2);

    // One of two slots in flight: one below capacity, no backpressure.
    ch.push(0);
    ch.pop(100, 100);
    EXPECT_EQ(ch.inFlight(10), 1u);

    // Exactly at capacity: the boundary push must stall, and must be
    // accepted exactly at the earliest release tick, not one later.
    ch.push(0);
    ch.pop(200, 200);
    EXPECT_EQ(ch.inFlight(10), 2u);
    EXPECT_EQ(ch.push(10), 100u);
    EXPECT_EQ(ch.stats().fullStalls.value(), 1u);
    EXPECT_EQ(ch.stats().stallTicks.value(), 90u);

    // At the release tick itself the freed slot is usable: occupancy
    // is back below capacity from the consumer's viewpoint.
    ch.pop(300, 300);
    EXPECT_EQ(ch.inFlight(200), 1u);
    EXPECT_EQ(auditFailures(ch), 0u);
}

