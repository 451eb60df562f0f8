/**
 * @file
 * Event-kernel and sweep-runner microbenchmark.
 *
 * Measures the simulation kernel's hot path in isolation and in situ:
 *
 *  1. schedule_fire — 2048 self-perpetuating timer chains; every
 *     fired event schedules its successor. Pure heap push/pop plus
 *     callback dispatch at realistic heap depth.
 *  2. system_msr_heavy — a closed-loop AstriFlash TATP run (every miss
 *     walks the MSR/pending-queue machinery).
 *  3. system_open_loop — the same system under open-loop Poisson
 *     arrivals at 70% of its closed-loop throughput.
 *
 * The speed-up of the current kernel over the original one
 * (std::function callbacks, std::priority_queue of fat entries,
 * alive/cancelled unordered_set pair) was measured once against an
 * in-binary copy of the original: 1.59x on schedule/fire and 7.45x
 * on a schedule/cancel mix the kernel no longer supports (DESIGN.md
 * §9.1).
 *
 * A second phase times a fig10-style sweep batch at --jobs 1 vs
 * --jobs N on the SweepRunner and verifies the per-cell stats JSON is
 * byte-identical, recording wall-clock speedup and host CPU count.
 *
 * Emits BENCH_kernel.json and BENCH_sweep.json for perf tracking.
 */

// aflint-allow-file(AF001): benchmark harness measures host wall-clock
// time by design; no simulated behavior depends on it.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
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

struct MixResult {
    std::uint64_t events = 0;
    double wallSeconds = 0;

    double
    eventsPerSec() const
    {
        return wallSeconds > 0
                   ? static_cast<double>(events) / wallSeconds
                   : 0;
    }
};

constexpr std::uint64_t
lcgNext(std::uint64_t s)
{
    return s * 6364136223846793005ULL + 1442695040888963407ULL;
}

/**
 * Mix 1: @p chains concurrent timer chains, each fired event
 * rescheduling its successor at a pseudo-random small delta until the
 * shared budget runs out. The callable is 32 bytes, stored inline.
 */
MixResult
scheduleFireMix(std::uint64_t total_events)
{
    constexpr int kChains = 2048;
    sim::EventQueue q;
    std::uint64_t fired = 0;

    struct Timer {
        sim::EventQueue *q;
        std::uint64_t *fired;
        std::uint64_t total;
        std::uint64_t state;

        void
        operator()()
        {
            if (++*fired >= total)
                return;
            state = lcgNext(state);
            q->scheduleIn(1 + (state >> 56),
                          Timer{q, fired, total, state});
        }
    };

    const auto t0 = Clock::now();
    for (int i = 0; i < kChains; ++i) {
        q.scheduleIn(sim::Ticks{1} + static_cast<sim::Ticks>(i),
                     Timer{&q, &fired, total_events,
                           0x9e3779b97f4a7c15ULL *
                               static_cast<std::uint64_t>(i + 1)});
    }
    q.run();

    MixResult r;
    r.wallSeconds = secondsSince(t0);
    r.events = q.executed();
    return r;
}

SystemConfig
systemCfg(std::uint64_t measure_jobs)
{
    SystemConfig cfg;
    cfg.kind = SystemKind::AstriFlash;
    cfg.cores = 4;
    cfg.workloadKind = workload::Kind::Tatp;
    cfg.workload.datasetBytes = 1ull << 28;
    cfg.warmupJobs = measure_jobs / 16 + 1;
    cfg.measureJobs = measure_jobs;
    return cfg;
}

/** Closed-loop AstriFlash run; returns kernel events/sec in situ. */
MixResult
systemMix(const SystemConfig &cfg, double *jobs_per_sec = nullptr)
{
    System sys(cfg);
    const auto t0 = Clock::now();
    const RunResults res = sys.run();
    MixResult r;
    r.wallSeconds = secondsSince(t0);
    r.events = sys.eventQueue().executed();
    if (jobs_per_sec)
        *jobs_per_sec = res.throughputJobsPerSec;
    return r;
}

void
printMix(const char *name, const MixResult &cur)
{
    std::printf("%-22s %12llu events  %8.3f s  %12.0f ev/s\n",
                name, static_cast<unsigned long long>(cur.events),
                cur.wallSeconds, cur.eventsPerSec());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t total_events = 2000000;
    std::uint64_t measure_jobs = 2500;
    std::uint32_t sweep_jobs = 8;
    std::string kernel_out = "BENCH_kernel.json";
    std::string sweep_out = "BENCH_sweep.json";
    bool skip_sweep = false;

    sim::OptionParser opts(
        "kernel_bench",
        "Event-kernel microbenchmark plus a SweepRunner scaling and "
        "determinism check.");
    opts.addUint("events", &total_events,
                 "target fired events per kernel mix");
    opts.addUint("measure-jobs", &measure_jobs,
                 "measured jobs per system run / sweep cell");
    opts.addUint32("jobs", &sweep_jobs,
                   "host threads for the parallel sweep phase "
                   "(0 = all hardware threads)");
    opts.addString("kernel-json", &kernel_out,
                   "write kernel results to FILE");
    opts.addString("sweep-json", &sweep_out,
                   "write sweep results to FILE");
    opts.addFlag("no-sweep", &skip_sweep,
                 "skip the SweepRunner scaling phase");
    opts.parseOrExit(argc, argv);

    const unsigned host_cpus = sim::SweepRunner::hardwareJobs();

    // ---- Phase 1: kernel mixes ----
    std::printf("# kernel_bench: %llu events/mix, host_cpus=%u\n",
                static_cast<unsigned long long>(total_events),
                host_cpus);

    const MixResult fire = scheduleFireMix(total_events);
    printMix("schedule_fire", fire);

    double closed_jobs_per_sec = 0;
    const MixResult msr =
        systemMix(systemCfg(measure_jobs), &closed_jobs_per_sec);
    printMix("system_msr_heavy", msr);

    SystemConfig open_cfg = systemCfg(measure_jobs);
    open_cfg.meanInterarrival = static_cast<sim::Ticks>(
        1e12 / (0.7 * closed_jobs_per_sec));
    const MixResult open = systemMix(open_cfg);
    printMix("system_open_loop", open);

    if (!kernel_out.empty()) {
        std::ofstream out(kernel_out);
        if (!out) {
            std::fprintf(stderr, "cannot open '%s'\n",
                         kernel_out.c_str());
            return 1;
        }
        sim::JsonWriter w(out);
        w.beginObject();
        w.field("benchmark", "kernel_bench");
        w.field("host_cpus", static_cast<std::uint64_t>(host_cpus));
        w.field("events_per_mix", total_events);
        w.key("mixes");
        w.beginArray();
        const struct {
            const char *name;
            const MixResult *mix;
        } mixes[] = {
            {"schedule_fire", &fire},
            {"system_msr_heavy", &msr},
            {"system_open_loop", &open},
        };
        for (const auto &m : mixes) {
            w.beginObject();
            w.field("name", m.name);
            w.field("events", m.mix->events);
            w.field("wall_seconds", m.mix->wallSeconds);
            w.field("events_per_sec", m.mix->eventsPerSec());
            w.endObject();
        }
        w.endArray();
        w.endObject();
        out << "\n";
        std::printf("# wrote %s\n", kernel_out.c_str());
    }

    if (skip_sweep)
        return 0;

    // ---- Phase 2: SweepRunner scaling + determinism ----
    // A fig10-style batch: 4 load points x {DRAM-only, AstriFlash}
    // under open-loop arrivals. Each cell returns its full stats-tree
    // JSON; the batch runs at --jobs 1 and --jobs N and the dumps must
    // match byte for byte.
    double dram_max = 0;
    {
        SystemConfig cfg = systemCfg(measure_jobs);
        cfg.kind = SystemKind::DramOnly;
        System sys(cfg);
        dram_max = sys.run().throughputJobsPerSec;
    }
    const double targets[] = {0.3, 0.5, 0.65, 0.8};
    const SystemKind kinds[] = {SystemKind::DramOnly,
                                SystemKind::AstriFlash};
    std::vector<std::function<std::string()>> tasks;
    for (double target : targets) {
        const auto gap =
            static_cast<sim::Ticks>(1e12 / (target * dram_max));
        for (SystemKind kind : kinds) {
            SystemConfig cfg = systemCfg(measure_jobs);
            cfg.kind = kind;
            cfg.meanInterarrival = gap;
            tasks.emplace_back([cfg] {
                System sys(cfg);
                sys.run();
                return sys.statsRegistry().dumpJson();
            });
        }
    }

    const auto t_serial = Clock::now();
    const std::vector<std::string> dumps1 =
        sim::SweepRunner(1).run(std::vector(tasks));
    const double wall1 = secondsSince(t_serial);

    // The runner clamps to the host's core count: oversubscribing
    // whole-simulation tasks only measures scheduler noise (the old
    // 0.81x-on-1-CPU artifact this metadata now explains).
    const sim::SweepRunner par(sweep_jobs);
    const auto t_par = Clock::now();
    const std::vector<std::string> dumpsN =
        par.run(std::move(tasks));
    const double wallN = secondsSince(t_par);

    const bool identical = dumps1 == dumpsN;
    const double speedup = wallN > 0 ? wall1 / wallN : 0;
    std::printf("# sweep: %zu cells  jobs=1 %.3f s  jobs=%u %.3f s  "
                "speedup %.2fx  stats %s\n",
                dumps1.size(), wall1, par.jobs(), wallN, speedup,
                identical ? "byte-identical" : "DIVERGED");

    if (!sweep_out.empty()) {
        std::ofstream out(sweep_out);
        if (!out) {
            std::fprintf(stderr, "cannot open '%s'\n",
                         sweep_out.c_str());
            return 1;
        }
        sim::JsonWriter w(out);
        w.beginObject();
        w.field("benchmark", "sweep_bench");
        w.field("host_cpus", static_cast<std::uint64_t>(host_cpus));
        w.field("configs",
                static_cast<std::uint64_t>(dumps1.size()));
        w.field("measure_jobs", measure_jobs);
        w.field("jobs_1_wall_seconds", wall1);
        w.field("jobs_requested",
                static_cast<std::uint64_t>(sweep_jobs));
        w.field("jobs_n", static_cast<std::uint64_t>(par.jobs()));
        w.field("jobs_n_wall_seconds", wallN);
        w.field("speedup", speedup);
        w.field("stats_identical", identical);
        w.endObject();
        out << "\n";
        std::printf("# wrote %s\n", sweep_out.c_str());
    }
    return identical ? 0 : 1;
}
