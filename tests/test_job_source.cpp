/**
 * @file
 * System::setJobSource: a source that hands each core the jobs of
 * its own generator, seeded as the System seeds its built-in ones,
 * must leave every stat unchanged. astribench drives its runs through
 * such a source and relies on this to keep its stats digest.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/system.hh"
#include "sim/ticks.hh"
#include "workload/workload.hh"

using namespace astriflash;

namespace {

core::SystemConfig
tatpCfg(sim::Ticks mean_interarrival)
{
    core::SystemConfig cfg;
    cfg.kind = core::SystemKind::AstriFlash;
    cfg.cores = 2;
    cfg.workloadKind = workload::Kind::Tatp;
    cfg.workload.datasetBytes = 256ull << 20;
    cfg.warmupJobs = 50;
    cfg.measureJobs = 400;
    cfg.meanInterarrival = mean_interarrival;
    return cfg;
}

/** Stats JSON of one run, with or without an external job source. */
std::string
runJson(const core::SystemConfig &cfg, bool external_source)
{
    core::System sys(cfg);
    std::vector<std::unique_ptr<workload::Workload>> gens;
    if (external_source) {
        for (std::uint32_t c = 0; c < cfg.cores; ++c) {
            workload::WorkloadConfig wc = cfg.workload;
            wc.seed = cfg.seed * 1000003 + c;
            gens.push_back(workload::makeWorkload(cfg.workloadKind, wc));
        }
        sys.setJobSource(
            [&gens](std::uint32_t core) { return gens[core]->nextJob(); });
    }
    const auto r = sys.run();
    EXPECT_EQ(r.jobs, cfg.measureJobs);
    return sys.statsRegistry().dumpJson();
}

} // namespace

TEST(JobSource, ClosedLoopSourceMatchesBuiltInGenerators)
{
    const core::SystemConfig cfg = tatpCfg(0);
    EXPECT_EQ(runJson(cfg, true), runJson(cfg, false));
}

TEST(JobSource, OpenLoopSourceMatchesBuiltInGenerators)
{
    // Open loop draws every job from the arrival events instead.
    const core::SystemConfig cfg = tatpCfg(sim::microseconds(5));
    EXPECT_EQ(runJson(cfg, true), runJson(cfg, false));
}
