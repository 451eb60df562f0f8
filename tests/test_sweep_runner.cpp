/**
 * @file
 * SweepRunner tests: submission-order results, exception propagation,
 * inline execution at jobs=1, and the determinism contract — a batch
 * of isolated System runs must produce byte-identical stats JSON no
 * matter how many host threads execute it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/option_parser.hh"
#include "sim/sweep_runner.hh"

#include "core/fabric_options.hh"
#include "core/system.hh"

using namespace astriflash;
using namespace astriflash::core;

TEST(SweepRunner, ResultsComeBackInSubmissionOrder)
{
    // Skew per-task work so completion order differs from submission
    // order whenever more than one worker runs.
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 32; ++i) {
        tasks.emplace_back([i] {
            volatile long spin = (31 - i) * 20000L;
            while (spin > 0)
                spin = spin - 1;
            return i;
        });
    }
    const sim::SweepRunner runner(
        4, sim::SweepRunner::HostClamp::Unbounded);
    const std::vector<int> out = runner.run(std::move(tasks));
    ASSERT_EQ(out.size(), 32u);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
}

TEST(SweepRunner, JobsZeroMeansHardwareConcurrency)
{
    const sim::SweepRunner runner(0);
    EXPECT_EQ(runner.jobs(), sim::SweepRunner::hardwareJobs());
    EXPECT_GE(runner.jobs(), 1u);
}

TEST(SweepRunner, OversubscribedJobsClampToHardwareByDefault)
{
    const unsigned hw = sim::SweepRunner::hardwareJobs();
    const sim::SweepRunner clamped(hw + 64);
    EXPECT_EQ(clamped.jobs(), hw);
    // A request within the host's budget is taken verbatim.
    const sim::SweepRunner inBudget(1);
    EXPECT_EQ(inBudget.jobs(), 1u);
}

TEST(SweepRunner, UnboundedClampTakesJobsVerbatim)
{
    const unsigned hw = sim::SweepRunner::hardwareJobs();
    const sim::SweepRunner runner(
        hw + 7, sim::SweepRunner::HostClamp::Unbounded);
    EXPECT_EQ(runner.jobs(), hw + 7);
}

TEST(SweepRunner, SingleJobRunsInline)
{
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::function<std::thread::id()>> tasks;
    for (int i = 0; i < 4; ++i)
        tasks.emplace_back([] { return std::this_thread::get_id(); });
    const sim::SweepRunner runner(1);
    for (const std::thread::id tid : runner.run(std::move(tasks)))
        EXPECT_EQ(tid, caller);
}

TEST(SweepRunner, FirstSubmittedExceptionWins)
{
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 16; ++i) {
        tasks.emplace_back([i]() -> int {
            if (i == 3 || i == 11)
                throw std::runtime_error("task " + std::to_string(i));
            return i;
        });
    }
    const sim::SweepRunner runner(
        4, sim::SweepRunner::HostClamp::Unbounded);
    try {
        runner.run(std::move(tasks));
        FAIL() << "expected the sweep to rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "task 3");
    }
}

TEST(SweepRunner, RunIndexedVisitsEveryIndexOnce)
{
    std::vector<std::atomic<int>> hits(64);
    const sim::SweepRunner runner(
        4, sim::SweepRunner::HostClamp::Unbounded);
    runner.runIndexed(hits.size(), [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const std::atomic<int> &h : hits)
        EXPECT_EQ(h.load(), 1);
}

namespace {

/** Small mixed batch of isolated systems, stats dumped per cell. */
std::vector<std::string>
statsBatch(unsigned host_jobs)
{
    const SystemKind kinds[] = {SystemKind::DramOnly,
                                SystemKind::AstriFlash,
                                SystemKind::FlashSync};
    std::vector<std::function<std::string()>> tasks;
    for (SystemKind kind : kinds) {
        for (std::uint32_t cores = 1; cores <= 2; ++cores) {
            SystemConfig cfg;
            cfg.kind = kind;
            cfg.cores = cores;
            cfg.workloadKind = workload::Kind::Tatp;
            cfg.workload.datasetBytes = 1ull << 26;
            cfg.warmupJobs = 20;
            cfg.measureJobs = 200;
            tasks.emplace_back([cfg] {
                System sys(cfg);
                sys.run();
                return sys.statsRegistry().dumpJson();
            });
        }
    }
    // Unbounded: the point is exercising real worker threads even on
    // a single-core CI host.
    return sim::SweepRunner(host_jobs,
                            sim::SweepRunner::HostClamp::Unbounded)
        .run(std::move(tasks));
}

} // namespace

/**
 * The shared CLI binding the figure benches (fig9, fig10, table2,
 * ablation) use: the fabric flags land in the SystemConfig, and
 * --host-jobs is no longer a flag.
 */
TEST(SweepRunner, FabricOptionsPropagateFabricFlags)
{
    FabricOptions fabric;
    sim::OptionParser opts("bench", "fabric smoke");
    fabric.addTo(opts);

    const char *argv[] = {"bench", "--bc-shards=2", "--flash-devices=4",
                          "--flash-backend=zns"};
    ASSERT_EQ(opts.parse(4, argv), sim::OptionParser::Status::Ok);

    SystemConfig cfg;
    fabric.apply(cfg);
    EXPECT_EQ(cfg.dramCache.bc.shards, 2u);
    EXPECT_EQ(cfg.dramCache.fabric.devices, 4u);
    EXPECT_EQ(cfg.dramCache.fabric.backend, flash::BackendKind::Zns);

    FabricOptions retired;
    sim::OptionParser strict("bench", "fabric smoke");
    retired.addTo(strict);
    const char *old_argv[] = {"bench", "--host-jobs=4"};
    EXPECT_EQ(strict.parse(2, old_argv),
              sim::OptionParser::Status::Error);
}

/** Zero BC shards or zero flash devices is rejected when the flags
 *  are parsed, and leaves the parsed values untouched. */
TEST(SweepRunner, FabricOptionsRejectZeroShardsAndDevices)
{
    for (const char *bad : {"--bc-shards=0", "--flash-devices=0"}) {
        FabricOptions fabric;
        sim::OptionParser opts("bench", "fabric smoke");
        fabric.addTo(opts);
        const char *argv[] = {"bench", bad};
        EXPECT_EQ(opts.parse(2, argv), sim::OptionParser::Status::Error)
            << bad;
        EXPECT_EQ(fabric.bcShards, BcConfig{}.shards) << bad;
        EXPECT_EQ(fabric.flashDevices, flash::FlashFabricConfig{}.devices)
            << bad;
    }
}

/**
 * The determinism contract of DESIGN.md §9: a sweep's stats output is a
 * pure function of each cell's config — byte-identical whether the
 * batch runs on one host thread or eight.
 */
TEST(SweepRunner, StatsJsonIsByteIdenticalAcrossJobCounts)
{
    const std::vector<std::string> serial = statsBatch(1);
    const std::vector<std::string> parallel = statsBatch(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "cell " << i;
    // Sanity: the dumps are real stats trees, not empty strings.
    for (const std::string &s : serial)
        EXPECT_GT(s.size(), 100u);
}
