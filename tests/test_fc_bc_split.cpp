/**
 * @file
 * FC/BC split regression: the frontside/backside decomposition of the
 * DRAM cache must be timing-neutral at the default (effectively
 * unbounded) channel depths. Each of the ten fixed-seed torture
 * configurations is re-run in process and its full golden JSON —
 * headline results plus every stats leaf — must stay byte-identical
 * to tests/golden/. On top of the byte comparison, the two
 * controller windows of every shard must report zero backpressure:
 * any full stall at depth 65536 means slot lifetimes leak. With the
 * simulator checks armed, every case must also run with zero
 * invariant violations and still reproduce its golden bytes.
 *
 * The case table and serialisation are shared with the golden_stats
 * tool (tools/golden_cases.hh), so this suite and the golden_stats_*
 * ctests can never drift apart.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/dram_cache.hh"
#include "core/system.hh"
#include "sim/invariant.hh"

#include "golden_cases.hh"

using namespace astriflash;
using namespace astriflash::core;
using namespace astriflash::tools;

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

/** First line where @p got diverges from @p want, for the report. */
std::string
firstDivergence(const std::string &want, const std::string &got)
{
    std::istringstream ws(want);
    std::istringstream gs(got);
    std::string wl;
    std::string gl;
    int line = 0;
    while (true) {
        const bool have_w = static_cast<bool>(std::getline(ws, wl));
        const bool have_g = static_cast<bool>(std::getline(gs, gl));
        ++line;
        if (!have_w && !have_g)
            return "identical";
        if (wl != gl || have_w != have_g) {
            std::ostringstream os;
            os << "line " << line << ":\n  golden: "
               << (have_w ? wl : "<eof>") << "\n  got:    "
               << (have_g ? gl : "<eof>");
            return os.str();
        }
    }
}

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

class FcBcSplit : public ::testing::TestWithParam<GoldenCase>
{
};

} // namespace

TEST_P(FcBcSplit, GoldenStatsStayByteIdentical)
{
    const GoldenCase &gc = GetParam();

    System sys(goldenCaseConfig(gc));
    const RunResults r = sys.run();

    std::ostringstream out;
    writeGoldenJson(out, gc, r, sys);

    const std::string want = readGolden(gc.name);
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(out.str(), want)
        << "FC/BC split perturbed case " << gc.name
        << "; first divergence at " << firstDivergence(want, out.str());

    // At the default depths the windows are effectively unbounded:
    // real transaction-window occupancy, but never a full stall. A
    // stall here means a slot-release tick leaked into the far future.
    // Every push was popped.
    const DramCache *dc = sys.dramCache();
    ASSERT_NE(dc, nullptr);
    for (std::uint32_t i = 0; i < dc->shardCount(); ++i) {
        for (const sim::BoundedChannel *ch :
             {&dc->missChannel(i), &dc->flashChannel(i)}) {
            EXPECT_EQ(ch->stats().fullStalls.value(), 0u) << ch->name();
            EXPECT_EQ(ch->stats().stallTicks.value(), 0u) << ch->name();
            EXPECT_EQ(ch->stats().pushes.value(),
                      ch->stats().pops.value())
                << ch->name();
        }
    }
}

/** Every golden config runs clean with the simulator checks armed, and
 *  arming them moves no golden byte. */
TEST_P(FcBcSplit, ArmedChecksAreCleanAndByteIdentical)
{
    ScopedChecks armed(true);
    const GoldenCase &gc = GetParam();
    const std::string want = readGolden(gc.name);

    System sys(goldenCaseConfig(gc));
    const RunResults r = sys.run();
    EXPECT_GT(r.invariantChecks, 0u) << gc.name;
    EXPECT_EQ(r.invariantViolations, 0u) << gc.name;

    std::ostringstream os;
    writeGoldenJson(os, gc, r, sys);
    EXPECT_EQ(os.str(), want)
        << gc.name << "; first divergence at "
        << firstDivergence(want, os.str());
}

INSTANTIATE_TEST_SUITE_P(
    AllTortureConfigs, FcBcSplit, ::testing::ValuesIn(kGoldenCases),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        return std::string(info.param.name);
    });
