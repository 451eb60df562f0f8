/**
 * @file
 * Tests for the causality auditor (DESIGN.md §14): channel contracts
 * are registered through the thread-local attach scope, clean traffic
 * is certified with zero violations, and deliberate contract breaches
 * — a time-travelling send consumed before its declared lookahead, a
 * backwards push on a monotone channel, an event fired behind the
 * queue clock — are caught, both recorded and fail-fast.
 *
 * Separate binary (test_causality_suite): arms the global checks gate
 * and runs death tests, so it must not share a process with timing
 * suites. The whole-system certification runs every committed golden
 * configuration under audit and requires zero violations, nonzero
 * audit traffic, and golden bytes unchanged by the armed audit.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "sim/bounded_channel.hh"
#include "sim/causality.hh"
#include "sim/event_queue.hh"
#include "sim/invariant.hh"

#include "golden_cases.hh"

using namespace astriflash;
using namespace astriflash::core;
using namespace astriflash::tools;

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

} // namespace

// --------------------------------------------------------------------
// Attach scope and registration.
// --------------------------------------------------------------------

TEST(CausalityAuditor, ScopeInstallsAndRestoresNested)
{
    EXPECT_EQ(sim::CausalityAuditor::current(), nullptr);
    sim::CausalityAuditor outer;
    {
        sim::CausalityAuditor::Scope s1(outer);
        EXPECT_EQ(sim::CausalityAuditor::current(), &outer);
        sim::CausalityAuditor inner;
        {
            sim::CausalityAuditor::Scope s2(inner);
            EXPECT_EQ(sim::CausalityAuditor::current(), &inner);
        }
        EXPECT_EQ(sim::CausalityAuditor::current(), &outer);
    }
    EXPECT_EQ(sim::CausalityAuditor::current(), nullptr);
}

TEST(CausalityAuditor, ChannelSelfRegistersInsideScope)
{
    ScopedChecks armed(true);
    sim::CausalityAuditor auditor;
    sim::CausalityAuditor::Scope scope(auditor);
    sim::BoundedChannel<int> ch(
        "audited.ch", 8, sim::ChannelContract{25, true});

    ASSERT_EQ(auditor.channelCount(), 1u);
    EXPECT_EQ(auditor.channel(0).name, "audited.ch");
    EXPECT_EQ(auditor.channel(0).contract.minLatency, 25u);
    EXPECT_TRUE(auditor.channel(0).contract.monotonePush);
    EXPECT_EQ(ch.contract().minLatency, 25u);
}

// --------------------------------------------------------------------
// Clean traffic certifies; contract breaches are recorded.
// --------------------------------------------------------------------

TEST(CausalityAuditor, CleanTrafficHasZeroViolations)
{
    ScopedChecks armed(true);
    sim::CausalityAuditor auditor;
    auditor.setFailFast(false);
    sim::CausalityAuditor::Scope scope(auditor);
    sim::BoundedChannel<int> ch(
        "ch", 8, sim::ChannelContract{100, true});

    ch.push(1, 0);
    ch.dropFront(100, 250); // consumed exactly at push + lookahead
    ch.push(2, 40);
    ch.dropFront(500, 600);
    EXPECT_EQ(auditor.violationCount(), 0u);
    EXPECT_EQ(auditor.sendsAudited(), 2u);
    EXPECT_EQ(auditor.deliveriesAudited(), 2u);
    EXPECT_EQ(auditor.channel(0).minObservedLatency, 100u);

    sim::InvariantChecker chk;
    auditor.checkInvariants(chk);
    EXPECT_EQ(chk.failures(), 0u);
}

TEST(CausalityAuditor, TimeTravellingSendIsCaught)
{
    // The seeded fault: a message consumed sooner after its push than
    // the channel's declared lookahead permits. A conservative
    // parallel engine lagging the producer by minLatency would have
    // delivered this message late — the certificate must refuse it.
    ScopedChecks armed(true);
    sim::CausalityAuditor auditor;
    auditor.setFailFast(false);
    sim::CausalityAuditor::Scope scope(auditor);
    sim::BoundedChannel<int> ch("ch", 8, sim::ChannelContract{100});

    ch.push(7, 50);
    ch.dropFront(90, 200); // consumed at 90 < 50 + 100
    ASSERT_EQ(auditor.violationCount(), 1u);
    EXPECT_EQ(auditor.violations()[0].channel, "ch");
    EXPECT_NE(auditor.violations()[0].detail.find("lookahead"),
              std::string::npos);

    // The invariant sweep re-reports the stored violation.
    sim::InvariantChecker chk;
    auditor.checkInvariants(chk);
    EXPECT_GT(chk.failures(), 0u);
}

TEST(CausalityAuditor, BackwardsPushOnMonotoneChannelIsCaught)
{
    ScopedChecks armed(true);
    sim::CausalityAuditor auditor;
    auditor.setFailFast(false);
    sim::CausalityAuditor::Scope scope(auditor);
    sim::BoundedChannel<int> ch(
        "ch", 8, sim::ChannelContract{0, true});

    ch.push(1, 100);
    ch.push(2, 60); // producer clock ran backwards on a monotone channel
    EXPECT_EQ(auditor.violationCount(), 1u);
    EXPECT_NE(auditor.violations()[0].detail.find("monotone"),
              std::string::npos);
}

TEST(CausalityAuditor, SkewIsTelemetryOnNonMonotoneChannels)
{
    // Channels fed by skewed core-local clocks declare no
    // monotonicity; backwards pushes are legal and only tracked.
    ScopedChecks armed(true);
    sim::CausalityAuditor auditor;
    auditor.setFailFast(false);
    sim::CausalityAuditor::Scope scope(auditor);
    sim::BoundedChannel<int> ch("ch", 8, sim::ChannelContract{});

    ch.push(1, 100);
    ch.push(2, 60);
    EXPECT_EQ(auditor.violationCount(), 0u);
    EXPECT_EQ(auditor.channel(0).maxObservedSkew, 40u);
}

TEST(CausalityAuditor, EventFiredBehindQueueClockIsCaught)
{
    ScopedChecks armed(true);
    sim::CausalityAuditor auditor;
    auditor.setFailFast(false);
    auditor.onEventFired(10, 12);
    EXPECT_EQ(auditor.violationCount(), 0u);
    auditor.onEventFired(10, 5);
    ASSERT_EQ(auditor.violationCount(), 1u);
    EXPECT_EQ(auditor.violations()[0].channel, "eq");
}

TEST(CausalityAuditor, HooksDisarmWithChecksGate)
{
    // Disarmed, the hooks are free: nothing audited, nothing reported
    // — arming checks must never be required for correctness, only
    // for certification.
    ScopedChecks disarmed(false);
    sim::CausalityAuditor auditor;
    sim::CausalityAuditor::Scope scope(auditor);
    sim::BoundedChannel<int> ch("ch", 8, sim::ChannelContract{100});
    ch.push(7, 50);
    ch.dropFront(90, 200); // would violate the lookahead if armed
    EXPECT_EQ(auditor.violationCount(), 0u);
    EXPECT_EQ(auditor.sendsAudited(), 0u);
    EXPECT_EQ(auditor.deliveriesAudited(), 0u);
}

// --------------------------------------------------------------------
// Fail-fast (death test).
// --------------------------------------------------------------------

TEST(CausalityAuditorDeath, TimeTravellingSendPanicsFailFast)
{
    ScopedChecks armed(true);
    sim::CausalityAuditor auditor; // fail-fast is the default
    sim::CausalityAuditor::Scope scope(auditor);
    sim::BoundedChannel<int> ch("ch", 8, sim::ChannelContract{100});
    ch.push(7, 50);
    EXPECT_DEATH(ch.dropFront(90, 200), "causality violation");
}

// --------------------------------------------------------------------
// Whole-system certification on a committed golden configuration.
// --------------------------------------------------------------------

TEST(CausalitySystem, GoldenConfigCertifiesCleanUnderAudit)
{
    ScopedChecks armed(true);
    const GoldenCase &gc = kGoldenCases[0];
    System sys(goldenCaseConfig(gc));
    sys.run();

    const sim::CausalityAuditor &auditor = sys.causalityAuditor();
    EXPECT_EQ(auditor.violationCount(), 0u)
        << (auditor.violations().empty()
                ? std::string()
                : auditor.violations()[0].detail);
    // The certificate is vacuous unless real traffic was audited.
    EXPECT_GE(auditor.channelCount(), 3u);
    EXPECT_GT(auditor.sendsAudited(), 0u);
    EXPECT_GT(auditor.deliveriesAudited(), 0u);
    EXPECT_GE(auditor.sendsAudited(), auditor.deliveriesAudited());
    EXPECT_GT(auditor.eventsAudited(), 0u);
}

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

class OwnershipGolden : public ::testing::TestWithParam<GoldenCase>
{};

} // namespace

/** Every golden config certifies clean under the armed causality
 *  auditor, and arming it moves no golden byte: its counters live
 *  outside the stats tree by design. */
TEST_P(OwnershipGolden, ArmedAuditorIsCleanAndByteIdentical)
{
    ScopedChecks armed(true);
    const GoldenCase &gc = GetParam();
    const std::string want = readGolden(gc.name);

    System sys(goldenCaseConfig(gc));
    const RunResults r = sys.run();

    const sim::CausalityAuditor &auditor = sys.causalityAuditor();
    EXPECT_EQ(auditor.violationCount(), 0u)
        << gc.name << ": "
        << (auditor.violations().empty()
                ? std::string()
                : auditor.violations()[0].detail);
    // The certificate is vacuous unless real events ran under audit.
    EXPECT_GT(auditor.eventsAudited(), 0u) << gc.name;
    EXPECT_EQ(r.invariantViolations, 0u) << gc.name;

    std::ostringstream os;
    writeGoldenJson(os, gc, r, sys);
    EXPECT_EQ(os.str(), want) << gc.name;
}

INSTANTIATE_TEST_SUITE_P(AllCases, OwnershipGolden,
                         ::testing::ValuesIn(kGoldenCases),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });
