/**
 * @file
 * Conservative-parallel-engine benchmark (BENCH_parallel.json).
 *
 * Runs the paper-scale closed-loop AstriFlash TATP configuration at
 * 64/128/256 simulated cores across a --host-jobs ladder and records
 * wall-clock events/s and jobs/s per (cores, host-jobs) cell, plus the
 * engine's telemetry (rounds, barriers, posts, exec groups). Every
 * System run is one engine domain (DESIGN.md §15), so every cell
 * reports one exec group and the same rounds; host-jobs > 1 only
 * moves each round onto one pool worker, and the ladder measures what
 * that hand-off costs. Numbers are honest-recorded on whatever host
 * runs the bench — the host CPU count is in the metadata, exactly
 * like BENCH_sweep.json.
 *
 * The determinism gate rides along: every cell's full stats-tree JSON
 * must be byte-identical to the host-jobs=1 run of the same core
 * count. A divergence fails the bench (exit 1) — perf numbers from a
 * wrong simulation are worthless.
 *
 *   parallel_bench                         # 64/128/256 x jobs 1,2,4
 *   parallel_bench --quick                 # CI smoke: 64 cores only
 *   parallel_bench --cores=64 --host-jobs=1,8
 */

// aflint-allow-file(AF001): benchmark harness measures host wall-clock
// time by design; no simulated behavior depends on it.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/json.hh"
#include "sim/option_parser.hh"
#include "sim/sweep_runner.hh"

#include "core/system.hh"

using namespace astriflash;
using namespace astriflash::core;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One measured (cores, host-jobs) cell. */
struct Cell {
    unsigned cores = 0;
    unsigned hostJobs = 0;
    double wallSeconds = 0;
    std::uint64_t events = 0;
    std::uint64_t jobs = 0;
    double jobsPerSec = 0; ///< Simulated throughput (jobs/sim-sec).
    sim::ParallelEngine::Stats engine;
    std::string statsJson;

    double
    eventsPerHostSec() const
    {
        return wallSeconds > 0
                   ? static_cast<double>(events) / wallSeconds
                   : 0;
    }

    double
    jobsPerHostSec() const
    {
        return wallSeconds > 0
                   ? static_cast<double>(jobs) / wallSeconds
                   : 0;
    }
};

Cell
runCell(unsigned cores, unsigned host_jobs, std::uint64_t measure_jobs,
        std::uint32_t bc_shards)
{
    SystemConfig cfg;
    cfg.kind = SystemKind::AstriFlash;
    cfg.cores = cores;
    cfg.workloadKind = workload::Kind::Tatp;
    cfg.workload.datasetBytes = 1ull << 28;
    cfg.warmupJobs = measure_jobs / 16 + 1;
    cfg.measureJobs = measure_jobs;
    cfg.dramCache.bc.shards = bc_shards;
    cfg.hostJobs = host_jobs;

    System sys(cfg);
    const auto t0 = Clock::now();
    const RunResults res = sys.run();

    Cell c;
    c.cores = cores;
    c.hostJobs = host_jobs;
    c.wallSeconds = secondsSince(t0);
    c.events = sys.eventsExecuted();
    c.jobs = res.jobs;
    c.jobsPerSec = res.throughputJobsPerSec;
    c.engine = sys.engineStats();
    c.statsJson = sys.statsRegistry().dumpJson();
    return c;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<unsigned> core_counts{64, 128, 256};
    std::vector<unsigned> jobs_list{1, 2, 4};
    std::uint64_t measure_jobs = 2000;
    std::uint32_t bc_shards = 4;
    std::string out_file = "BENCH_parallel.json";
    bool quick = false;

    sim::OptionParser opts(
        "parallel_bench",
        "Measure the conservative parallel engine across a host-jobs "
        "ladder at paper-scale core counts; byte-compare every cell's "
        "stats against the host-jobs=1 run.");
    opts.addCustom("cores", "LIST",
                   "simulated core counts (default 64,128,256)",
                   [&core_counts](const std::string &v) {
                       return sim::parseUintList(v, &core_counts);
                   });
    opts.addCustom("host-jobs", "LIST",
                   "host-jobs ladder per core count (default 1,2,4)",
                   [&jobs_list](const std::string &v) {
                       return sim::parseUintList(v, &jobs_list);
                   });
    opts.addUint("measure-jobs", &measure_jobs,
                 "measured jobs per cell");
    opts.addUint32("bc-shards", &bc_shards,
                   "backside-controller shards");
    opts.addString("out", &out_file,
                   "write results to FILE (empty: skip)");
    opts.addFlag("quick", &quick,
                 "CI smoke: 64 cores only, fewer measured jobs");
    opts.parseOrExit(argc, argv);

    if (quick) {
        core_counts = {64};
        measure_jobs = std::min<std::uint64_t>(measure_jobs, 500);
    }

    const unsigned host_cpus = sim::SweepRunner::hardwareJobs();
    std::printf("# parallel_bench: host_cpus=%u  measure_jobs=%llu  "
                "bc_shards=%u\n",
                host_cpus,
                static_cast<unsigned long long>(measure_jobs),
                bc_shards);

    std::vector<Cell> cells;
    bool identical = true;
    for (const unsigned cores : core_counts) {
        std::string baseline;
        for (const unsigned hj : jobs_list) {
            Cell c = runCell(cores, hj, measure_jobs, bc_shards);
            const bool first = baseline.empty();
            const bool match = first || baseline == c.statsJson;
            std::printf("cores=%-4u host-jobs=%-2u  %10llu events  "
                        "%7.3f s  %12.0f ev/s  %8.1f jobs/s  "
                        "groups=%u barriers=%llu posts=%llu  "
                        "stats %s\n",
                        cores, hj,
                        static_cast<unsigned long long>(c.events),
                        c.wallSeconds, c.eventsPerHostSec(),
                        c.jobsPerHostSec(), c.engine.groups,
                        static_cast<unsigned long long>(
                            c.engine.barriers),
                        static_cast<unsigned long long>(
                            c.engine.postsDelivered),
                        first ? "baseline"
                              : (match ? "byte-identical"
                                       : "DIVERGED"));
            std::fflush(stdout);
            if (!match) {
                identical = false;
                // Print the first differing stat lines: a determinism
                // failure without the offending counters is
                // undebuggable from a CI log.
                std::istringstream base_in(baseline);
                std::istringstream cell_in(c.statsJson);
                std::string bl, cl;
                unsigned shown = 0;
                while (shown < 8) {
                    const bool b_ok = static_cast<bool>(
                        std::getline(base_in, bl));
                    const bool c_ok = static_cast<bool>(
                        std::getline(cell_in, cl));
                    if (!b_ok && !c_ok)
                        break;
                    if (!b_ok)
                        bl.clear();
                    if (!c_ok)
                        cl.clear();
                    if (bl == cl)
                        continue;
                    std::fprintf(stderr,
                                 "  diverged: hj=1 %s\n"
                                 "            hj=%u %s\n",
                                 bl.c_str(), hj, cl.c_str());
                    ++shown;
                }
            }
            if (first)
                baseline = c.statsJson;
            c.statsJson.clear();
            cells.push_back(std::move(c));
        }
    }

    if (!out_file.empty()) {
        std::ofstream out(out_file);
        if (!out) {
            std::fprintf(stderr, "cannot open '%s'\n",
                         out_file.c_str());
            return 1;
        }
        sim::JsonWriter w(out);
        w.beginObject();
        w.field("benchmark", "parallel_bench");
        w.field("host_cpus", static_cast<std::uint64_t>(host_cpus));
        w.field("measure_jobs", measure_jobs);
        w.field("bc_shards",
                static_cast<std::uint64_t>(bc_shards));
        w.field("stats_identical", identical);
        w.key("cells");
        w.beginArray();
        for (const Cell &c : cells) {
            w.beginObject();
            w.field("cores", static_cast<std::uint64_t>(c.cores));
            w.field("host_jobs",
                    static_cast<std::uint64_t>(c.hostJobs));
            w.field("events", c.events);
            w.field("wall_seconds", c.wallSeconds);
            w.field("events_per_host_sec", c.eventsPerHostSec());
            w.field("jobs_per_host_sec", c.jobsPerHostSec());
            w.field("sim_jobs_per_sec", c.jobsPerSec);
            w.field("engine_rounds", c.engine.rounds);
            w.field("engine_barriers", c.engine.barriers);
            w.field("engine_posts", c.engine.postsDelivered);
            w.field("engine_horizon_stalls", c.engine.horizonStalls);
            w.field("exec_groups",
                    static_cast<std::uint64_t>(c.engine.groups));
            w.key("group_events");
            w.beginArray();
            for (const std::uint64_t ev : c.engine.groupEvents)
                w.value(ev);
            w.endArray();
            w.endObject();
        }
        w.endArray();
        w.endObject();
        out << "\n";
        std::printf("# wrote %s\n", out_file.c_str());
    }

    if (!identical) {
        std::fprintf(stderr,
                     "parallel_bench: a host-jobs run diverged from "
                     "its host-jobs=1 baseline\n");
        return 1;
    }
    return 0;
}
