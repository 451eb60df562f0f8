/**
 * @file
 * Unit tests for sim::BoundedChannel: FIFO order with non-monotonic
 * producer clocks, time-based occupancy and backpressure (accept tick
 * pushed out to the k-th slot release), stall-cycle accounting, the
 * drain-hook discipline, and the channel's invariant audit.
 *
 * Separate binary (test_channel_suite): the misuse tests are death
 * tests and one arms the global checks gate, so they must not share a
 * process with timing suites.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/bounded_channel.hh"
#include "sim/invariant.hh"

using namespace astriflash;

namespace {

/** Arm (or disarm) simulator checks for one test, restoring after. */
class ScopedChecks
{
  public:
    explicit ScopedChecks(bool on) : prev(sim::checksEnabled())
    {
        sim::setChecksEnabled(on);
    }
    ~ScopedChecks() { sim::setChecksEnabled(prev); }

    ScopedChecks(const ScopedChecks &) = delete;
    ScopedChecks &operator=(const ScopedChecks &) = delete;

  private:
    bool prev;
};

/** Audit @p ch through a throwaway checker; @return failure count. */
template <typename Msg>
std::uint64_t
auditFailures(const sim::BoundedChannel<Msg> &ch)
{
    sim::InvariantChecker chk;
    ch.checkInvariants(chk);
    return chk.failures();
}

} // namespace

// --------------------------------------------------------------------
// FIFO order and timestamping.
// --------------------------------------------------------------------

TEST(BoundedChannel, FifoOrderWithSkewedProducerClocks)
{
    sim::BoundedChannel<int> ch("ch", 64);

    // Producers on different cores push with skewed local clocks; the
    // channel stays FIFO in push order, not tick order.
    EXPECT_EQ(ch.push(1, 100), 100u);
    EXPECT_EQ(ch.push(2, 40), 40u);
    EXPECT_EQ(ch.push(3, 250), 250u);

    ASSERT_FALSE(ch.empty());
    EXPECT_EQ(ch.front().msg, 1);
    EXPECT_EQ(ch.front().pushedAt, 100u);
    EXPECT_EQ(ch.front().acceptedAt, 100u);

    EXPECT_EQ(ch.pop(110), 1);
    EXPECT_EQ(ch.pop(60), 2);
    EXPECT_EQ(ch.pop(260), 3);
    EXPECT_TRUE(ch.empty());

    EXPECT_EQ(ch.stats().pushes.value(), 3u);
    EXPECT_EQ(ch.stats().pops.value(), 3u);
    EXPECT_EQ(ch.stats().fullStalls.value(), 0u);
    EXPECT_EQ(ch.stats().stallTicks.value(), 0u);
}

TEST(BoundedChannel, AcceptEqualsPushAtUnboundedDepth)
{
    // The timing-neutrality contract the FC/BC split relies on: at
    // effectively-unbounded depth the accept tick always equals the
    // push tick, whatever the pop/release history looks like.
    sim::BoundedChannel<int> ch("ch", 65536);
    for (int i = 0; i < 100; ++i) {
        const sim::Ticks t = static_cast<sim::Ticks>(i * 37 % 1000);
        EXPECT_EQ(ch.push(i, t), t);
        ch.dropFront(t + 5000); // slot held far into the future
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
    sim::BoundedChannel<int> ch("ch", 2);

    // Two transactions occupy both slots until ticks 100 and 200.
    EXPECT_EQ(ch.push(1, 0), 0u);
    ch.dropFront(100);
    EXPECT_EQ(ch.push(2, 0), 0u);
    ch.dropFront(200);

    EXPECT_EQ(ch.inFlight(10), 2u);
    EXPECT_EQ(ch.inFlight(150), 1u);

    // A push at t=10 finds every slot in flight: the accept tick moves
    // out to the earliest release (100) and the 90-tick stall is
    // charged to the channel.
    EXPECT_EQ(ch.push(3, 10), 100u);
    EXPECT_EQ(ch.stats().fullStalls.value(), 1u);
    EXPECT_EQ(ch.stats().stallTicks.value(), 90u);
    EXPECT_EQ(ch.front().pushedAt, 10u);
    EXPECT_EQ(ch.front().acceptedAt, 100u);

    // After the slot-200 transaction also completes, pushes flow
    // freely again.
    EXPECT_EQ(ch.pop(120), 3);
    EXPECT_EQ(ch.push(4, 250), 250u);
    EXPECT_EQ(ch.stats().fullStalls.value(), 1u);
    EXPECT_EQ(ch.stats().peakOccupancy, 2u);
}

TEST(BoundedChannel, ConsecutiveStallsWalkSuccessiveReleases)
{
    sim::BoundedChannel<int> ch("ch", 3);

    // Three popped slots busy until ticks 100/200/300.
    ch.push(1, 0);
    ch.dropFront(100);
    ch.push(2, 0);
    ch.dropFront(200);
    ch.push(3, 0);
    ch.dropFront(300);

    // Full at t=0: the first extra push waits for the earliest release
    // (tick 100); that message stays un-popped, so the next push can
    // only reclaim the tick-200 slot. Each stall is charged in full
    // against the producer's own push tick.
    EXPECT_EQ(ch.push(4, 0), 100u);
    EXPECT_EQ(ch.push(5, 0), 200u);
    EXPECT_EQ(ch.stats().fullStalls.value(), 2u);
    EXPECT_EQ(ch.stats().stallTicks.value(), 300u);
}

TEST(BoundedChannel, DrainHookFiresOnEveryPush)
{
    sim::BoundedChannel<int> ch("ch", 8);
    std::vector<int> drained;
    ch.setDrainHook([&] {
        while (!ch.empty())
            drained.push_back(ch.pop(ch.front().acceptedAt + 10));
    });

    ch.push(7, 0);
    ch.push(8, 5);
    EXPECT_EQ(drained, (std::vector<int>{7, 8}));
    EXPECT_TRUE(ch.empty());
    EXPECT_EQ(ch.stats().pops.value(), 2u);
}

// --------------------------------------------------------------------
// Invariant audit.
// --------------------------------------------------------------------

TEST(BoundedChannel, InvariantAuditPassesThroughLifecycle)
{
    sim::BoundedChannel<int> ch("ch", 2);
    EXPECT_EQ(auditFailures(ch), 0u);

    ch.push(1, 0);
    EXPECT_EQ(auditFailures(ch), 0u); // one message queued

    ch.dropFront(100);
    ch.push(2, 0);
    ch.dropFront(200);
    ch.push(3, 10); // stalls to tick 100
    EXPECT_EQ(auditFailures(ch), 0u);

    ch.pop(150);
    EXPECT_EQ(auditFailures(ch), 0u);
}

TEST(BoundedChannel, InvariantAuditIsRegistryCompatible)
{
    // The System registers each channel as its own invariant
    // component; verify the hook composes with the registry driver.
    sim::BoundedChannel<int> ch("dcache.fc_to_bc", 4);
    ch.push(11, 3);

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
    EXPECT_EXIT(sim::BoundedChannel<int>("bad", 0),
                ::testing::ExitedWithCode(1), "capacity >= 1");
}

TEST(BoundedChannelDeath, FrontOnEmptyPanics)
{
    sim::BoundedChannel<int> ch("ch", 2);
    EXPECT_DEATH(ch.front(), "front\\(\\) on empty");
}

TEST(BoundedChannelDeath, FullWithUndrainedMessagesPanics)
{
    // The synchronous pump discipline guarantees pushed messages are
    // drained before the next push; violating it on a full channel has
    // no defined accept tick and must panic (when checks are armed).
    ScopedChecks armed(true);
    sim::BoundedChannel<int> ch("ch", 1);
    ch.push(1, 0); // occupies the only slot, never popped
    EXPECT_DEATH(ch.push(2, 0), "un-drained");
}

// --------------------------------------------------------------------
// Edge cases: depth-1, same-tick turnaround, and the exact-full
// boundary.
// --------------------------------------------------------------------

TEST(BoundedChannel, DepthOneSerializesEveryTransaction)
{
    sim::BoundedChannel<int> ch("ch", 1);

    // The single slot round-trips each message: with the slot held to
    // tick 50, the next push stalls to exactly that release.
    EXPECT_EQ(ch.push(1, 0), 0u);
    ch.dropFront(50);
    EXPECT_EQ(ch.push(2, 10), 50u);
    EXPECT_EQ(ch.stats().fullStalls.value(), 1u);
    EXPECT_EQ(ch.stats().stallTicks.value(), 40u);
    ch.dropFront(120);

    // A push after the release flows without a stall.
    EXPECT_EQ(ch.push(3, 130), 130u);
    ch.dropFront(130);
    EXPECT_EQ(ch.stats().fullStalls.value(), 1u);
    EXPECT_EQ(ch.stats().peakOccupancy, 1u);
    EXPECT_EQ(auditFailures(ch), 0u);
}

TEST(BoundedChannel, SameTickSendAndReceive)
{
    sim::BoundedChannel<int> ch("ch", 4);

    // Push and consume at the identical tick: legal (a zero-lookahead
    // channel), stamps all equal, nothing charged as a stall.
    EXPECT_EQ(ch.push(1, 42), 42u);
    EXPECT_EQ(ch.front().pushedAt, 42u);
    EXPECT_EQ(ch.front().acceptedAt, 42u);
    EXPECT_EQ(ch.pop(42), 1);
    EXPECT_TRUE(ch.empty());
    // A slot released at tick 42 is already free to a tick-42 push.
    EXPECT_EQ(ch.inFlight(42), 0u);
    EXPECT_EQ(ch.stats().fullStalls.value(), 0u);
    EXPECT_EQ(ch.stats().stallTicks.value(), 0u);
    EXPECT_EQ(auditFailures(ch), 0u);
}

TEST(BoundedChannel, BackpressureExactlyAtFullOccupancy)
{
    sim::BoundedChannel<int> ch("ch", 2);

    // One of two slots in flight: one below capacity, no backpressure.
    ch.push(1, 0);
    ch.dropFront(100);
    EXPECT_EQ(ch.inFlight(10), 1u);

    // Exactly at capacity: the boundary push must stall, and must be
    // accepted exactly at the earliest release tick, not one later.
    ch.push(2, 0);
    ch.dropFront(200);
    EXPECT_EQ(ch.inFlight(10), 2u);
    EXPECT_EQ(ch.push(3, 10), 100u);
    EXPECT_EQ(ch.stats().fullStalls.value(), 1u);
    EXPECT_EQ(ch.stats().stallTicks.value(), 90u);

    // At the release tick itself the freed slot is usable: occupancy
    // is back below capacity from the consumer's viewpoint.
    ch.dropFront(300);
    EXPECT_EQ(ch.inFlight(200), 1u);
    EXPECT_EQ(auditFailures(ch), 0u);
}

