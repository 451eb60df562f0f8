/**
 * @file
 * Domain-ownership layer tests (sim::OwnershipRegistry +
 * sim::OwnershipAuditor, DESIGN.md §16).
 *
 * Unit coverage: the registry vocabulary (queue-keyed domains,
 * component/channel declarations), the construction-time attach
 * Scope, the engine-published ExecScope thread-local, the armed
 * onCallback hook with fail-fast disabled, and the invariant-sweep
 * re-reporting.
 *
 * System coverage: the acceptance gate of the exec-group-split
 * worklist — every golden config runs to completion with the
 * ownership auditor armed at host-jobs 1, 2, and 4, reports zero
 * violations over non-vacuous audited traffic, and stays
 * byte-identical to the committed golden stats (arming the auditor
 * must never perturb the stats tree).
 *
 * Separate binary (test_ownership_suite): arms the global checks
 * gate, so it must not share a process with timing suites.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "sim/invariant.hh"
#include "sim/ownership.hh"

#include "core/system.hh"

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
// OwnershipRegistry: the vocabulary.
// --------------------------------------------------------------------

TEST(OwnershipRegistry, DomainsAreKeyedByQueueIdentity)
{
    sim::OwnershipRegistry reg;
    int key_a = 0;
    int key_b = 0;

    const sim::DomainId a = reg.addDomain("fc", &key_a);
    const sim::DomainId b = reg.addDomain("bc0", &key_b);
    EXPECT_NE(a, b);
    EXPECT_EQ(reg.domainCount(), 2u);
    EXPECT_EQ(reg.domainName(a), "fc");
    EXPECT_EQ(reg.domainName(b), "bc0");

    // Re-registering the same key is idempotent: same id, and the
    // original name wins (the key identifies the queue, not the
    // caller's label).
    EXPECT_EQ(reg.addDomain("fc-again", &key_a), a);
    EXPECT_EQ(reg.domainCount(), 2u);
    EXPECT_EQ(reg.domainName(a), "fc");

    EXPECT_EQ(reg.domainOf(&key_a), a);
    EXPECT_EQ(reg.domainOf(&key_b), b);
    int unregistered = 0;
    EXPECT_EQ(reg.domainOf(&unregistered), sim::kNoDomain);
    EXPECT_EQ(reg.domainOf(nullptr), sim::kNoDomain);
}

TEST(OwnershipRegistry, ComponentAndChannelDeclarations)
{
    sim::OwnershipRegistry reg;
    int key_fc = 0;
    int key_bc = 0;
    const sim::DomainId fc = reg.addDomain("fc", &key_fc);
    const sim::DomainId bc = reg.addDomain("bc0", &key_bc);

    reg.declareComponent("dram_cache", fc);
    reg.declareComponent("bc0", bc);
    ASSERT_EQ(reg.components().size(), 2u);
    EXPECT_EQ(reg.components()[0].name, "dram_cache");
    EXPECT_EQ(reg.components()[0].owner, fc);
    EXPECT_EQ(reg.components()[1].owner, bc);

    reg.declareChannel("fc_to_bc0", fc, bc);
    ASSERT_EQ(reg.channels().size(), 1u);
    EXPECT_EQ(reg.channels()[0].name, "fc_to_bc0");
    EXPECT_EQ(reg.channels()[0].producer, fc);
    EXPECT_EQ(reg.channels()[0].consumer, bc);
}

// --------------------------------------------------------------------
// OwnershipAuditor: attach scope and executing-domain thread-local.
// --------------------------------------------------------------------

TEST(OwnershipAuditor, AttachScopeNestsAndRestores)
{
    sim::OwnershipRegistry r1;
    sim::OwnershipRegistry r2;
    sim::OwnershipAuditor a1(r1);
    sim::OwnershipAuditor a2(r2);

    EXPECT_EQ(sim::OwnershipAuditor::current(), nullptr);
    {
        sim::OwnershipAuditor::Scope outer(a1);
        EXPECT_EQ(sim::OwnershipAuditor::current(), &a1);
        {
            sim::OwnershipAuditor::Scope inner(a2);
            EXPECT_EQ(sim::OwnershipAuditor::current(), &a2);
        }
        EXPECT_EQ(sim::OwnershipAuditor::current(), &a1);
    }
    EXPECT_EQ(sim::OwnershipAuditor::current(), nullptr);
}

TEST(OwnershipAuditor, ExecScopeNestsAndRestores)
{
    EXPECT_EQ(sim::OwnershipAuditor::currentDomain(), sim::kNoDomain);
    {
        sim::OwnershipAuditor::ExecScope outer(3);
        EXPECT_EQ(sim::OwnershipAuditor::currentDomain(), 3u);
        {
            sim::OwnershipAuditor::ExecScope inner(7);
            EXPECT_EQ(sim::OwnershipAuditor::currentDomain(), 7u);
        }
        EXPECT_EQ(sim::OwnershipAuditor::currentDomain(), 3u);
    }
    EXPECT_EQ(sim::OwnershipAuditor::currentDomain(), sim::kNoDomain);
}

// --------------------------------------------------------------------
// OwnershipAuditor: the armed callback hook.
// --------------------------------------------------------------------

TEST(OwnershipAuditor, CallbackInOwningDomainIsClean)
{
    ScopedChecks armed(true);
    sim::OwnershipRegistry reg;
    sim::OwnershipAuditor aud(reg);
    aud.setFailFast(false);

    int key = 0;
    const sim::DomainId fc = reg.addDomain("fc", &key);
    sim::OwnershipAuditor::ExecScope exec(fc);
    aud.onCallback("sim_core", fc, 100);

    EXPECT_EQ(aud.callbacksAudited(), 1u);
    EXPECT_EQ(aud.violationCount(), 0u);
}

TEST(OwnershipAuditor, WrongDomainCallbackIsRecorded)
{
    ScopedChecks armed(true);
    sim::OwnershipRegistry reg;
    sim::OwnershipAuditor aud(reg);
    aud.setFailFast(false);

    int key_fc = 0;
    int key_bc = 0;
    const sim::DomainId fc = reg.addDomain("fc", &key_fc);
    const sim::DomainId bc = reg.addDomain("bc0", &key_bc);

    sim::OwnershipAuditor::ExecScope exec(bc);
    aud.onCallback("sim_core", fc, 250);

    ASSERT_EQ(aud.violationCount(), 1u);
    EXPECT_EQ(aud.violations()[0].component, "sim_core");
    EXPECT_EQ(aud.violations()[0].tick, 250u);
    // The detail names both domains so the report is debuggable.
    EXPECT_NE(aud.violations()[0].detail.find("fc"),
              std::string::npos);
    EXPECT_NE(aud.violations()[0].detail.find("bc0"),
              std::string::npos);

    // The invariant sweep re-reports every stored violation.
    sim::InvariantChecker chk;
    aud.checkInvariants(chk);
    EXPECT_GT(chk.failures(), 0u);
}

TEST(OwnershipAuditor, UnresolvedDomainsAreExempt)
{
    ScopedChecks armed(true);
    sim::OwnershipRegistry reg;
    sim::OwnershipAuditor aud(reg);
    aud.setFailFast(false);

    int key = 0;
    const sim::DomainId fc = reg.addDomain("fc", &key);

    // No ExecScope: tests driving queues directly run outside any
    // domain, which must never trip the audit.
    aud.onCallback("sim_core", fc, 10);
    EXPECT_EQ(aud.violationCount(), 0u);

    // Unresolved owner under a published domain: equally exempt.
    sim::OwnershipAuditor::ExecScope exec(fc);
    aud.onCallback("orphan", sim::kNoDomain, 20);
    EXPECT_EQ(aud.violationCount(), 0u);
    EXPECT_EQ(aud.callbacksAudited(), 2u);
}

TEST(OwnershipAuditor, DisarmedGateSkipsTheAudit)
{
    ScopedChecks disarmed(false);
    sim::OwnershipRegistry reg;
    sim::OwnershipAuditor aud(reg);
    aud.setFailFast(false);

    int key_fc = 0;
    int key_bc = 0;
    const sim::DomainId fc = reg.addDomain("fc", &key_fc);
    const sim::DomainId bc = reg.addDomain("bc0", &key_bc);

    // Even a would-be violation is invisible when disarmed: the hook
    // must early-return before touching any counter.
    sim::OwnershipAuditor::ExecScope exec(bc);
    aud.onCallback("sim_core", fc, 99);

    EXPECT_EQ(aud.callbacksAudited(), 0u);
    EXPECT_EQ(aud.violationCount(), 0u);
}

// --------------------------------------------------------------------
// System: golden configs certify clean under the armed auditor at
// every host-jobs value, byte-identical to the committed goldens.
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

} // namespace

class OwnershipGolden
    : public ::testing::TestWithParam<GoldenCase>
{};

TEST_P(OwnershipGolden, ArmedAuditorIsCleanAndByteIdentical)
{
    ScopedChecks armed(true);
    const GoldenCase &gc = GetParam();
    const std::string want = readGolden(gc.name);

    for (const unsigned hj : {1u, 2u, 4u}) {
        SystemConfig cfg = goldenCaseConfig(gc);
        cfg.hostJobs = hj;
        System sys(cfg);
        const RunResults r = sys.run();

        const sim::OwnershipAuditor &aud = sys.ownershipAuditor();
        EXPECT_EQ(aud.violationCount(), 0u)
            << gc.name << " at host-jobs " << hj << ": "
            << (aud.violations().empty()
                    ? std::string()
                    : aud.violations()[0].detail);
        // The certificate is vacuous unless real callbacks ran under
        // the audit.
        EXPECT_GT(aud.callbacksAudited(), 0u)
            << gc.name << " at host-jobs " << hj;
        // Arming the auditor keeps the golden bytes: its counters
        // live outside the stats tree by design.
        std::ostringstream os;
        writeGoldenJson(os, gc, r, sys);
        EXPECT_EQ(os.str(), want)
            << gc.name << " diverged at host-jobs " << hj;
    }
}

INSTANTIATE_TEST_SUITE_P(AllCases, OwnershipGolden,
                         ::testing::ValuesIn(kGoldenCases),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });
