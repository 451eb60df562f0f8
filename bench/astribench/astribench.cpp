/**
 * @file
 * astribench: one repetition of one benchmark workload.
 *
 * run.py, next to this file, builds this program and starts it once per
 * repetition, so each repetition pays set-up, page faults and allocator
 * growth the way a user of the simulator does. Host time is measured
 * from outside the simulator by timing calls into its public API:
 * System::System (setup_s), System::run (run_s, run_cpu_s) and
 * StatRegistry::dumpJson.
 *
 *   astribench --workload=tatp_256c --seed=1
 *   astribench --workload=tpcc_1pct_zns --trace-dir=DIR --layers=FILE
 *
 * --trace-dir adds, in the same process: spans for those calls and for
 * every Workload::nextJob (through System::setJobSource, with generators
 * seeded exactly as the System seeds its own), a SIGPROF profile of
 * setup and run attributed to the repository's layers, and standalone
 * replays of mem::CacheHierarchy and sim::EventQueue. It writes
 * DIR/<workload>.trace.json and DIR/<workload>.profile.json.
 *
 * Without --trace-dir, the jobs come through System::setJobSource from
 * generators seeded exactly as the System seeds its own, and run() is
 * cut into kSegments segments of job draws, each timed in wall and CPU
 * seconds and in cycles of the core clock probed at its ends. A seed's
 * job draws fall at the same simulated points in every repetition, so
 * run.py can line up these segments across repetitions (see run.py).
 *
 * Prints one JSON object on stdout. Exits 1 if the simulation is wrong
 * (fewer measured jobs than requested, an early end, an invariant
 * violation) and 2 on bad arguments.
 */

// aflint-allow-file(AF001): benchmark harness measures host wall-clock
// time by design; no simulated behavior depends on it.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/system.hh"
#include "mem/cache_hierarchy.hh"
#include "sim/json.hh"
#include "sim/option_parser.hh"
#include "sim/rng.hh"
#include "workload/workload.hh"

#include "profiler.hh"
#include "spans.hh"

using namespace astriflash;
using astribench::Phase;
using astribench::SpanRecorder;
using Clock = std::chrono::steady_clock;

namespace {

/**
 * One benchmark workload. Only knobs that every System run path
 * supports are set; why each workload exists is in README.md.
 */
struct WorkloadSpec {
    const char *name;
    workload::Kind kind;
    std::uint32_t cores;
    double dramRatio;
    std::uint32_t bcShards;
    std::uint32_t flashDevices;
    flash::BackendKind backend;
    unsigned hostJobs;
    sim::Ticks meanInterarrival; ///< 0 = closed loop.
    std::uint64_t measureJobs;
    std::uint64_t warmupJobs;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"tatp_256c", workload::Kind::Tatp, 256, 0.03, 4, 4,
     flash::BackendKind::Ftl, 1, 0, 80000, 5000},
    {"tatp_256c_hj4", workload::Kind::Tatp, 256, 0.03, 4, 4,
     flash::BackendKind::Ftl, 4, 0, 80000, 5000},
    {"tpcc_1pct_zns", workload::Kind::Tpcc, 16, 0.01, 4, 4,
     flash::BackendKind::Zns, 1, 0, 30000, 2000},
    // 1.23 us mean gap = 0.813 M jobs/s, about 87% of the 16-core
    // closed-loop maximum at seed 1. Fixed, never recalibrated, so every
    // commit sees the same offered load.
    {"tatp_open_16c", workload::Kind::Tatp, 16, 0.03, 1, 1,
     flash::BackendKind::Ftl, 1, 1230 * sim::kNanosecond, 120000, 8000},
};

/** --smoke divides every job count by this. */
constexpr std::uint64_t kSmokeDivisor = 50;
/** Jobs whose load/store addresses feed the hierarchy replay. */
constexpr std::size_t kReplayJobs = 20000;
constexpr int kReplayPasses = 5;
constexpr std::uint64_t kReplayEvents = 500000;
constexpr unsigned kProfileIntervalUs = 1000;
/** An untraced run() is timed in this many segments of job draws. */
constexpr std::uint64_t kSegments = 64;
/** Dependent adds in one core-clock probe (about 0.4 ms at 2.5 GHz). */
constexpr std::uint64_t kProbeAdds = std::uint64_t{1} << 20;

core::SystemConfig
makeConfig(const WorkloadSpec &w, std::uint64_t seed, bool smoke)
{
    core::SystemConfig cfg;
    cfg.kind = core::SystemKind::AstriFlash;
    cfg.workloadKind = w.kind;
    cfg.workload.datasetBytes = std::uint64_t{1} << 30;
    cfg.cores = w.cores;
    cfg.dramCacheRatio = w.dramRatio;
    cfg.dramCache.bc.shards = w.bcShards;
    cfg.dramCache.fabric.devices = w.flashDevices;
    cfg.dramCache.fabric.backend = w.backend;
    cfg.hostJobs = w.hostJobs;
    cfg.meanInterarrival = w.meanInterarrival;
    cfg.measureJobs = w.measureJobs / (smoke ? kSmokeDivisor : 1);
    cfg.warmupJobs = w.warmupJobs / (smoke ? kSmokeDivisor : 1);
    cfg.seed = seed;
    return cfg;
}

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

/** User + system CPU time of the process, all threads. */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/**
 * The clock rate of the core this thread runs on, in GHz: the time of
 * kProbeAdds register adds, each depending on the one before. An integer
 * add has one cycle of latency on every x86-64 and AArch64 core, so the
 * chain takes kProbeAdds cycles whatever else the core could overlap. It
 * touches no memory, so it leaves the simulator's caches alone.
 */
double
probeClockGhz()
{
    std::uint64_t x = 0;
    const std::uint64_t one = 1;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kProbeAdds; i += 8) {
#if defined(__x86_64__)
        asm volatile("add %1, %0\n\tadd %1, %0\n\tadd %1, %0\n\t"
                     "add %1, %0\n\tadd %1, %0\n\tadd %1, %0\n\t"
                     "add %1, %0\n\tadd %1, %0"
                     : "+r"(x)
                     : "r"(one));
#elif defined(__aarch64__)
        asm volatile("add %0, %0, %1\n\tadd %0, %0, %1\n\t"
                     "add %0, %0, %1\n\tadd %0, %0, %1\n\t"
                     "add %0, %0, %1\n\tadd %0, %0, %1\n\t"
                     "add %0, %0, %1\n\tadd %0, %0, %1"
                     : "+r"(x)
                     : "r"(one));
#else
#error "probeClockGhz needs an x86-64 or AArch64 add chain"
#endif
    }
    const auto t1 = Clock::now();
    if (x != kProbeAdds)
        std::abort();
    return static_cast<double>(kProbeAdds) * 1e-9 / seconds(t1 - t0);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Quantile of @p v (sorted in place) by linear interpolation. */
double
quantile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(v, 0.5);
}

/** The flat "name = value" lines of StatRegistry::dump(). */
class StatLines
{
  public:
    explicit StatLines(const std::string &dump)
    {
        std::istringstream in(dump);
        std::string line;
        while (std::getline(in, line)) {
            const std::size_t eq = line.find(" = ");
            if (eq != std::string::npos)
                stats.emplace_back(line.substr(0, eq),
                                   std::strtod(line.c_str() + eq + 3,
                                               nullptr));
        }
    }

    /** The stat named exactly @p name (0 if absent). */
    double
    get(const std::string &name) const
    {
        for (const auto &[n, v] : stats)
            if (n == name)
                return v;
        return 0;
    }

    /** Sum of stats whose name starts with @p prefix, contains
     *  @p infix and ends with @p suffix. */
    double
    sum(const std::string &prefix, const std::string &infix,
        const std::string &suffix) const
    {
        double total = 0;
        for (const auto &[name, v] : stats)
            if (matches(name, prefix, infix, suffix))
                total += v;
        return total;
    }

    double
    max(const std::string &prefix, const std::string &suffix) const
    {
        double best = 0;
        for (const auto &[name, v] : stats)
            if (matches(name, prefix, "", suffix))
                best = std::max(best, v);
        return best;
    }

  private:
    static bool
    matches(const std::string &name, const std::string &prefix,
            const std::string &infix, const std::string &suffix)
    {
        return name.size() >= prefix.size() + suffix.size() &&
               name.compare(0, prefix.size(), prefix) == 0 &&
               name.compare(name.size() - suffix.size(), suffix.size(),
                            suffix) == 0 &&
               name.find(infix, prefix.size()) != std::string::npos;
    }

    std::vector<std::pair<std::string, double>> stats;
};

struct Access {
    mem::Addr addr;
    bool write;
};

/**
 * The per-core generators the System builds for itself, seeded the same
 * way, so a job source that draws from them leaves the job stream and
 * the stats digest unchanged.
 */
std::vector<std::unique_ptr<workload::Workload>>
systemGenerators(const core::SystemConfig &cfg)
{
    std::vector<std::unique_ptr<workload::Workload>> gens;
    for (std::uint32_t c = 0; c < cfg.cores; ++c) {
        workload::WorkloadConfig wc = cfg.workload;
        wc.seed = cfg.seed * 1000003 + c;
        gens.push_back(workload::makeWorkload(cfg.workloadKind, wc));
    }
    return gens;
}

/**
 * Job source for the untraced run: at every @p every-th job draw it
 * ends a segment of run(), probes the core clock, and starts the next
 * segment, so the probes fall outside the segments. The first segment
 * starts with run() (prewarm included) and the last ends with it.
 */
class SegmentClock
{
  public:
    SegmentClock(const core::SystemConfig &cfg, std::uint64_t every)
        : gens(systemGenerators(cfg)), every(std::max<std::uint64_t>(1, every))
    {}

    /** Ends the current segment (if any) and starts the next. */
    void
    boundary()
    {
        const Times end = Times::now();
        if (!ghz.empty())
            segments.push_back({end.wall - start.wall, end.cpu - start.cpu});
        ghz.push_back(probeClockGhz());
        start = Times::now();
    }

    workload::Job
    next(std::uint32_t core)
    {
        if (++draws % every == 0)
            boundary();
        return gens[core]->nextJob();
    }

    /**
     * Per segment: wall and CPU seconds, and both in Gcycles of the
     * core clock, taken as the mean of the probes on either side.
     */
    void
    write(sim::JsonWriter &w) const
    {
        std::vector<double> wall, cpu, wall_gcycles, cpu_gcycles;
        for (std::size_t i = 0; i < segments.size(); ++i) {
            const double clock = 0.5 * (ghz[i] + ghz[i + 1]);
            wall.push_back(segments[i].wall);
            cpu.push_back(segments[i].cpu);
            wall_gcycles.push_back(segments[i].wall * clock);
            cpu_gcycles.push_back(segments[i].cpu * clock);
        }
        w.beginObject();
        for (const auto &[name, values] :
             {std::pair{"wall_s", &wall}, std::pair{"cpu_s", &cpu},
              std::pair{"wall_gcycles", &wall_gcycles},
              std::pair{"cpu_gcycles", &cpu_gcycles}}) {
            w.key(name);
            w.beginArray();
            for (const double v : *values)
                w.value(v);
            w.endArray();
        }
        w.endObject();
    }

    double medianGhz() const { return median(ghz); }

  private:
    struct Times {
        double wall;
        double cpu;

        static Times
        now()
        {
            return {seconds(Clock::now().time_since_epoch()), cpuSeconds()};
        }
    };

    std::vector<std::unique_ptr<workload::Workload>> gens;
    std::uint64_t every;
    std::uint64_t draws = 0;
    Times start{};
    std::vector<Times> segments;
    std::vector<double> ghz; ///< One probe per segment boundary.
};

/**
 * Job source for the traced run. Times every nextJob() as a span, keeps
 * the load/store addresses of the first kReplayJobs jobs, and samples
 * the main event queue's pending population.
 */
class JobTap
{
  public:
    JobTap(core::System &sys, SpanRecorder &spans,
           SpanRecorder::SpanId parent)
        : sys(sys), spans(spans), parent(parent),
          gens(systemGenerators(sys.config()))
    {}

    workload::Job
    next(std::uint32_t core)
    {
        pendingSum += static_cast<double>(sys.eventQueue().pending());
        const auto t0 = Clock::now();
        workload::Job job = gens[core]->nextJob();
        const auto t1 = Clock::now();
        spans.add("Workload::nextJob", parent, t0, t1, core, job.id);
        if (jobs++ < kReplayJobs) {
            for (const workload::Op &op : job.ops)
                if (op.type != workload::Op::Type::Compute)
                    addrs.push_back(
                        {sys.dataPa(op.addr),
                         op.type == workload::Op::Type::Store});
        }
        return job;
    }

    const std::vector<Access> &replayAccesses() const { return addrs; }

    double
    meanPending() const
    {
        return jobs ? pendingSum / static_cast<double>(jobs) : 0;
    }

  private:
    core::System &sys;
    SpanRecorder &spans;
    SpanRecorder::SpanId parent;
    std::vector<std::unique_ptr<workload::Workload>> gens;
    std::vector<Access> addrs;
    std::uint64_t jobs = 0;
    double pendingSum = 0;
};

/** Defeats dead-code elimination of the replay loops. */
volatile std::uint64_t replaySink = 0;

/** Median ns per access of kReplayPasses fresh-hierarchy passes. */
double
replayHierarchy(const std::vector<Access> &accesses)
{
    std::vector<double> ns;
    for (int pass = 0; pass < kReplayPasses; ++pass) {
        mem::CacheHierarchy h("replay", mem::defaultHierarchyConfig());
        std::uint64_t sink = 0;
        const auto t0 = Clock::now();
        for (const Access &a : accesses) {
            const mem::HierarchyAccess r = h.access(a.addr, a.write);
            if (r.llcMiss)
                h.fillFromMemory(a.addr, a.write);
            sink += r.latency;
        }
        const auto t1 = Clock::now();
        replaySink = replaySink + sink;
        ns.push_back(seconds(t1 - t0) * 1e9 /
                     static_cast<double>(accesses.size()));
    }
    return median(ns);
}

/**
 * Hold model: @p population events pending; each one fired schedules
 * one more, so the heap stays at the workload's size.
 */
class HoldModel
{
  public:
    HoldModel(sim::EventQueue &q, std::size_t population,
              std::uint64_t seed)
        : q(q), rng(seed),
          span(static_cast<sim::Ticks>(population) * 1000)
    {
        for (std::size_t i = 0; i < population; ++i)
            arm();
    }

  private:
    void
    arm()
    {
        q.schedule(q.curTick() + 1 + rng.uniformInt(span),
                   [this] { arm(); });
    }

    sim::EventQueue &q;
    sim::Rng rng;
    sim::Ticks span;
};

/** Median ns per event of kReplayPasses hold-model passes. */
double
replayEventQueue(std::size_t population, std::uint64_t seed)
{
    std::vector<double> ns;
    for (int pass = 0; pass < kReplayPasses; ++pass) {
        sim::EventQueue q;
        q.reserve(population + 1);
        HoldModel hold(q, population, seed);
        const auto t0 = Clock::now();
        const std::uint64_t ran = q.runSteps(kReplayEvents);
        const auto t1 = Clock::now();
        ns.push_back(seconds(t1 - t0) * 1e9 / static_cast<double>(ran));
    }
    return median(ns);
}

/** Accumulates the flat metric object printed at the end. */
class Metrics
{
  public:
    void
    set(const std::string &name, double v)
    {
        values.emplace_back(name, v);
    }

    void
    write(sim::JsonWriter &w) const
    {
        w.beginObject();
        for (const auto &[name, v] : values)
            w.field(name, v);
        w.endObject();
    }

  private:
    std::vector<std::pair<std::string, double>> values;
};

/** Per-layer counts and model outputs from the stats tree. */
void
modelMetrics(core::System &sys, const core::RunResults &res,
             Metrics &m)
{
    const StatLines st(sys.statsRegistry().dump());
    const double jobs = static_cast<double>(res.jobs);
    const double fc_misses = st.get("dcache.fc.misses");

    m.set("model.sim_jobs_per_s", res.throughputJobsPerSec);
    m.set("model.service_p50_us", res.serviceUs(0.50));
    m.set("model.service_p99_us", res.serviceUs(0.99));
    m.set("model.response_p99_us", res.responseUs(0.99));

    m.set("mem.cache_hierarchy.accesses_per_job",
          st.sum("core", "", ".hier.accesses") / jobs);
    m.set("mem.cache_hierarchy.llc_misses_per_job",
          st.sum("core", "", ".hier.llc_misses") / jobs);
    m.set("mem.mshr.merges_per_job",
          st.sum("core", "", ".hier.mshr.merges") / jobs);

    m.set("core.sim_core.switch_on_miss_per_job",
          st.sum("core", "", ".switch_on_miss") / jobs);
    m.set("core.sched.scheduled_pending_per_job",
          st.sum("core", "", ".sched.scheduled_pending") / jobs);
    m.set("core.sched.aging_promotions",
          st.sum("core", "", ".sched.aging_promotions"));

    core::DramCache &dc = *sys.dramCache();
    m.set("core.fc.hit_ratio", res.dramCacheHitRatio);
    m.set("core.fc.misses_per_job", fc_misses / jobs);
    // Duplicate misses to an in-flight page. Depending on the miss path
    // the FC merges them or the MSR counts them; the sum covers both.
    m.set("core.bc.msr_duplicates_per_miss",
          (st.get("dcache.fc.misses_merged") +
           st.sum("dcache.bc", "", ".msr.duplicates")) /
              std::max(fc_misses, 1.0));
    m.set("core.bc.msr_peak_occupancy",
          static_cast<double>(dc.msrPeakOccupancy()));
    m.set("core.bc.dirty_writebacks_per_job",
          static_cast<double>(dc.bcTotals().dirtyWritebacks) / jobs);
    sim::Histogram penalty;
    for (std::uint32_t i = 0; i < dc.shardCount(); ++i)
        penalty.merge(dc.bcStats(i).missPenalty);
    m.set("core.bc.miss_penalty_p50_us",
          static_cast<double>(penalty.percentile(0.50)) /
              sim::kMicrosecond);
    m.set("core.bc.miss_penalty_p99_us",
          static_cast<double>(penalty.percentile(0.99)) /
              sim::kMicrosecond);
    m.set("core.bc.evictbuf_full_stalls",
          st.sum("dcache.bc", "", ".evictbuf.full_stalls"));

    m.set("sim.channel.full_stalls",
          st.sum("dcache.", "_to_", ".full_stalls"));
    m.set("sim.channel.stall_us",
          st.sum("dcache.", "_to_", ".stall_ticks") / sim::kMicrosecond);

    m.set("flash.reads_per_job", static_cast<double>(res.flashReads) / jobs);
    m.set("flash.writes_per_job",
          static_cast<double>(res.flashWrites) / jobs);
    // Worst device's p99 (per-device histograms are not exposed).
    m.set("flash.read_latency_p99_us",
          st.max("flash.", "read_latency.p99") / sim::kMicrosecond);
    m.set("flash.gc_relocations", st.sum("flash.", "", ".gc_relocations"));

    const double events = static_cast<double>(sys.eventsExecuted());
    m.set("sim.event_queue.events_per_job",
          events / st.get("system.completed_jobs"));

    const sim::ParallelEngine::Stats &eng = sys.engineStats();
    std::uint64_t group_events = 0;
    for (const std::uint64_t e : eng.groupEvents)
        group_events += e;
    m.set("sim.engine.exec_groups", eng.groups);
    m.set("sim.engine.rounds", static_cast<double>(eng.rounds));
    m.set("sim.engine.events_per_round",
          eng.rounds ? static_cast<double>(eng.events) /
                           static_cast<double>(eng.rounds)
                     : 0);
    m.set("sim.engine.horizon_stalls",
          static_cast<double>(eng.horizonStalls));
    m.set("sim.engine.posts", static_cast<double>(eng.postsDelivered));
    m.set("sim.engine.group0_event_share",
          group_events ? static_cast<double>(eng.groupEvents[0]) /
                             static_cast<double>(group_events)
                       : 0);
}

bool
writeProfile(const std::string &path, const std::string &workload,
             const astribench::Profiler::Profile &prof)
{
    std::ofstream out(path);
    if (!out)
        return false;
    sim::JsonWriter w(out);
    w.beginObject();
    w.field("workload", workload);
    w.field("interval_s", prof.intervalS);
    w.field("dropped", prof.dropped);
    w.key("layers");
    w.beginObject();
    for (std::size_t i = 0; i < prof.layers.size(); ++i) {
        w.key(prof.layers[i]);
        w.beginObject();
        w.field("setup_samples", prof.setupSamples[i]);
        w.field("run_samples", prof.runSamples[i]);
        w.endObject();
    }
    w.endObject();
    // Heaviest attributed frames of run(), "layer symbol" -> samples.
    std::vector<std::pair<std::uint64_t, std::string>> top;
    for (const auto &[sym, n] : prof.topSymbols)
        top.emplace_back(n, sym);
    std::sort(top.rbegin(), top.rend());
    top.resize(std::min<std::size_t>(top.size(), 40));
    w.key("top_run_symbols");
    w.beginArray();
    for (const auto &[n, sym] : top) {
        w.beginObject();
        w.field("symbol", sym);
        w.field("samples", n);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    out << "\n";
    return static_cast<bool>(out);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    std::uint64_t seed = 1;
    bool smoke = false;
    std::string trace_dir;
    std::string layers_file;

    sim::OptionParser opts(
        "astribench",
        "Run one repetition of one benchmark workload and print its "
        "host-time and model metrics as one JSON object.");
    opts.addString("workload", &workload_name,
                   "tatp_256c | tatp_256c_hj4 | tpcc_1pct_zns | "
                   "tatp_open_16c");
    opts.addUint("seed", &seed, "System seed (job and arrival streams)");
    opts.addFlag("smoke", &smoke,
                 "1/50 of the jobs, simulator self-checks armed");
    opts.addString("trace-dir", &trace_dir,
                   "traced run: write spans and profile into DIR");
    opts.addString("layers", &layers_file,
                   "symbol-prefix to layer table (traced run)");
    opts.parseOrExit(argc, argv);

    // The libraries' checks gate defaults to their compile-time
    // ASTRIFLASH_CHECKS_ENABLED. If this file saw another value, the two
    // disagree on sim::EventQueue's layout.
    if (sim::checksEnabled() != (ASTRIFLASH_CHECKS_ENABLED != 0)) {
        std::fprintf(stderr,
                     "astribench: built with other NDEBUG/ASTRIFLASH_CHECKS "
                     "settings than the libraries in ASTRI_BUILD\n");
        return 2;
    }

    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &w : kWorkloads)
        if (workload_name == w.name)
            spec = &w;
    if (spec == nullptr) {
        std::fprintf(stderr, "astribench: unknown --workload '%s'\n",
                     workload_name.c_str());
        return 2;
    }
    const bool traced = !trace_dir.empty();
    astribench::LayerMap layer_map;
    if (traced) {
        std::string error;
        if (!layer_map.load(layers_file, &error)) {
            std::fprintf(stderr, "astribench: %s\n", error.c_str());
            return 2;
        }
    }

    const core::SystemConfig cfg = makeConfig(*spec, seed, smoke);
    if (smoke)
        sim::setChecksEnabled(true);

    std::optional<SpanRecorder> spans;
    std::optional<astribench::Profiler> profiler;
    if (traced) {
        spans.emplace(2 * (cfg.measureJobs + cfg.warmupJobs) + 256);
        profiler.emplace(kProfileIntervalUs);
    }
    auto set_phase = [&profiler](Phase p) {
        if (profiler)
            profiler->setPhase(p);
    };

    std::optional<core::System> sys;
    set_phase(Phase::Setup);
    const auto t_setup = Clock::now();
    sys.emplace(cfg);
    const auto t_built = Clock::now();
    set_phase(Phase::Idle);
    if (spans)
        spans->add("System::System", 0, t_setup, t_built);
    // Collect violations instead of panicking on the first, so a
    // smoke run reports them as a count.
    sys->invariantRegistry().setFailFast(false);

    std::optional<JobTap> tap;
    std::optional<SegmentClock> segments;
    SpanRecorder::SpanId run_span = 0;
    if (traced) {
        run_span = spans->open("System::run");
        tap.emplace(*sys, *spans, run_span);
        sys->setJobSource(
            [&tap](std::uint32_t core) { return tap->next(core); });
    } else {
        segments.emplace(cfg, (cfg.warmupJobs + cfg.measureJobs) / kSegments);
        sys->setJobSource(
            [&segments](std::uint32_t core) { return segments->next(core); });
    }

    if (segments)
        segments->boundary();
    const double cpu0 = cpuSeconds();
    set_phase(Phase::Run);
    const auto t_run = Clock::now();
    const core::RunResults res = sys->run();
    const auto t_ran = Clock::now();
    set_phase(Phase::Idle);
    const double cpu1 = cpuSeconds();
    if (segments)
        segments->boundary();
    if (spans)
        spans->close(run_span);

    const auto t_dump = Clock::now();
    const std::string stats_json = sys->statsRegistry().dumpJson();
    const auto t_dumped = Clock::now();
    if (spans)
        spans->add("StatRegistry::dumpJson", 0, t_dump, t_dumped);
    const double rss_mb = peakRssMb();

    std::vector<std::string> errors;
    if (!sys->measurementDone())
        errors.push_back("run ended early");
    if (res.jobs != cfg.measureJobs)
        errors.push_back("measured " + std::to_string(res.jobs) +
                         " jobs, requested " +
                         std::to_string(cfg.measureJobs));
    if (res.invariantViolations != 0)
        errors.push_back(std::to_string(res.invariantViolations) +
                         " invariant violations");

    Metrics m;
    m.set("setup_s", seconds(t_built - t_setup));
    m.set("run_s", seconds(t_ran - t_run));
    m.set("run_cpu_s", cpu1 - cpu0);
    m.set("peak_rss_mb", rss_mb);
    if (segments)
        m.set("host.clock_ghz", segments->medianGhz());
    m.set("span.sim.stats.dump_s", seconds(t_dumped - t_dump));
    m.set("sim.event_queue.host_ns_per_event",
          seconds(t_ran - t_run) * 1e9 /
              static_cast<double>(sys->eventsExecuted()));
    modelMetrics(*sys, res, m);

    std::optional<astribench::Profiler::Profile> prof;
    if (traced) {
        prof = profiler->finish(layer_map);
        std::vector<double> next_job = spans->durationsNs(
            "Workload::nextJob");
        double total_ns = 0;
        for (const double d : next_job)
            total_ns += d;
        m.set("span.workload.next_job_p50_ns", quantile(next_job, 0.5));
        m.set("span.workload.next_job_p999_ns",
              quantile(next_job, 0.999));
        m.set("span.workload.next_job_total_s", total_ns * 1e-9);
        m.set("replay.mem.cache_hierarchy.ns_per_access",
              replayHierarchy(tap->replayAccesses()));
        m.set("replay.sim.event_queue.ns_per_event",
              replayEventQueue(
                  std::max<std::size_t>(
                      1, static_cast<std::size_t>(tap->meanPending())),
                  seed));

        const std::string base = trace_dir + "/" + spec->name;
        if (!spans->writeChromeTrace(base + ".trace.json") ||
            !writeProfile(base + ".profile.json", spec->name, *prof)) {
            std::fprintf(stderr, "astribench: cannot write %s.*\n",
                         base.c_str());
            return 2;
        }
    }

    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(stats_json)));

    sim::JsonWriter w(std::cout, /*pretty=*/false);
    w.beginObject();
    w.field("workload", spec->name);
    w.field("seed", seed);
    w.field("digest", digest);
    w.field("measured_jobs", res.jobs);
    w.field("requested_jobs", cfg.measureJobs);
    w.field("invariant_checks", res.invariantChecks);
    w.key("errors");
    w.beginArray();
    for (const std::string &e : errors)
        w.value(e);
    w.endArray();
    w.key("metrics");
    m.write(w);
    if (segments) {
        w.key("segments");
        segments->write(w);
    }
    if (prof) {
        // Setup + run samples per layer; run.py pools them across
        // repetitions into self_s.<layer>.
        w.key("samples");
        w.beginObject();
        for (std::size_t i = 0; i < prof->layers.size(); ++i)
            w.field(prof->layers[i],
                    prof->setupSamples[i] + prof->runSamples[i]);
        w.endObject();
        std::uint64_t run_total = 0;
        for (const std::uint64_t n : prof->runSamples)
            run_total += n;
        w.field("run_samples", run_total);
        w.field("run_unattributed", prof->runSamples.back());
    }
    w.endObject();
    std::cout << std::endl;
    return errors.empty() ? 0 : 1;
}
