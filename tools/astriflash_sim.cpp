/**
 * @file
 * astriflash_sim — the command-line front end.
 *
 * Runs any of the seven §V-B configurations on any workload with
 * overridable parameters and dumps the full statistics a study needs.
 *
 *   astriflash_sim --config=astriflash --workload=silo --cores=8 \
 *                  --dataset-gib=2 --dram-ratio=0.03 --jobs=20000 \
 *                  --load=0.8 --footprint --seed=3 \
 *                  --stats-json=stats.json --trace=miss.jsonl
 *
 * Run with --help for the flag list. Beyond the human-readable report,
 * --stats-json=FILE writes the full hierarchical component statistics
 * tree as JSON and --trace=FILE records the miss-lifecycle event ring
 * as JSONL (see DESIGN.md for both schemas).
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "sim/json.hh"
#include "sim/option_parser.hh"
#include "sim/trace_events.hh"

#include "core/fabric_options.hh"
#include "core/system.hh"

using namespace astriflash;
using namespace astriflash::core;

namespace {

/**
 * Bytes in @p gib GiB, or 0 if that is not a positive byte count that
 * fits in 64 bits (the conversion of a larger double is undefined).
 */
std::uint64_t
gibBytes(double gib)
{
    const double bytes = gib * static_cast<double>(1ull << 30);
    if (!(bytes >= 1.0) || bytes >= 0x1p64)
        return 0;
    return static_cast<std::uint64_t>(bytes);
}

bool
parseKind(const std::string &s, SystemKind *out)
{
    if (s == "dram")
        *out = SystemKind::DramOnly;
    else if (s == "astriflash")
        *out = SystemKind::AstriFlash;
    else if (s == "ideal")
        *out = SystemKind::AstriFlashIdeal;
    else if (s == "nops")
        *out = SystemKind::AstriFlashNoPS;
    else if (s == "nodp")
        *out = SystemKind::AstriFlashNoDP;
    else if (s == "osswap")
        *out = SystemKind::OsSwap;
    else if (s == "flashsync")
        *out = SystemKind::FlashSync;
    else
        return false;
    return true;
}

bool
parseWorkload(const std::string &s, workload::Kind *out)
{
    for (workload::Kind k : workload::kAllKinds) {
        if (s == workload::kindName(k)) {
            *out = k;
            return true;
        }
    }
    return false;
}

/** Write config + headline results + the full stats tree as JSON. */
void
writeStatsJson(std::ostream &os, const SystemConfig &cfg,
               double dataset_gib, const RunResults &r,
               const System &sys)
{
    sim::JsonWriter w(os);
    w.beginObject();

    w.key("config");
    w.beginObject();
    w.field("kind", systemKindName(cfg.kind));
    w.field("workload", workload::kindName(cfg.workloadKind));
    w.field("cores", cfg.cores);
    w.field("dataset_gib", dataset_gib);
    w.field("dram_ratio", cfg.dramCacheRatio);
    w.field("seed", cfg.seed);
    w.endObject();

    w.key("results");
    w.beginObject();
    w.field("jobs", r.jobs);
    w.field("throughput_jobs_per_sec", r.throughputJobsPerSec);
    w.field("avg_service_us", r.avgServiceUs());
    w.field("p50_service_us", r.serviceUs(0.50));
    w.field("p99_service_us", r.serviceUs(0.99));
    w.field("p999_service_us", r.serviceUs(0.999));
    w.field("avg_response_us", r.avgResponseUs());
    w.field("p99_response_us", r.responseUs(0.99));
    w.field("dram_cache_hit_ratio", r.dramCacheHitRatio);
    w.field("avg_exec_between_misses_us", r.avgExecBetweenMissesUs);
    w.field("flash_reads", r.flashReads);
    w.field("flash_writes", r.flashWrites);
    w.field("gc_blocked_reads", r.gcBlockedReads);
    w.field("shootdowns", r.shootdowns);
    w.field("peak_outstanding_misses", r.peakOutstandingMisses);
    w.endObject();

    w.key("stats");
    sys.statsRegistry().writeJson(w);

    w.endObject();
    os << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    SystemConfig cfg;
    cfg.cores = 4;
    cfg.measureJobs = 8000;
    cfg.warmupJobs = 0;
    double dataset_gib = 1.0;
    double load = 0.0;
    std::uint64_t switch_ns = 0;
    std::string stats_json;
    std::string trace_file;
    std::uint64_t trace_cap = 1 << 20;
    bool dump_stats = false;

    sim::OptionParser opts(
        "astriflash_sim",
        "Run one AstriFlash system configuration and report "
        "throughput and latency statistics.");
    opts.addCustom("config", "NAME",
                   "dram|astriflash|ideal|nops|nodp|osswap|flashsync",
                   [&](const std::string &v) {
                       return parseKind(v, &cfg.kind);
                   });
    opts.addCustom("workload", "NAME",
                   "arrayswap|rbt|hashtable|tatp|tpcc|silo|masstree",
                   [&](const std::string &v) {
                       return parseWorkload(v, &cfg.workloadKind);
                   });
    const auto positive = [](std::uint64_t n) { return n > 0; };
    opts.addUint32("cores", &cfg.cores, "number of simulated cores",
                   positive);
    opts.addDouble("dataset-gib", &dataset_gib, "dataset size in GiB",
                   [](double gib) { return gibBytes(gib) != 0; });
    opts.addDouble("dram-ratio", &cfg.dramCacheRatio,
                   "DRAM cache / dataset ratio");
    opts.addUint("jobs", &cfg.measureJobs, "measured jobs", positive);
    opts.addUint("warmup", &cfg.warmupJobs,
                 "warmup jobs (default jobs/10)");
    opts.addDouble("load", &load,
                   "open-loop load fraction of this config's "
                   "closed-loop max (0 = closed loop)",
                   [](double f) { return f >= 0.0; });
    opts.addUint("switch-ns", &switch_ns,
                 "thread-switch cost override in ns");
    opts.addUint32("pending-cap", &cfg.sched.pendingCap,
                   "pending-queue bound");
    opts.addFlag("footprint", &cfg.dramCache.footprintEnabled,
                 "enable footprint-cache mode");
    bool no_fp_bit = false;
    opts.addFlag("no-fp-bit", &no_fp_bit,
                 "disable the forward-progress bit");
    opts.addUint("seed", &cfg.seed, "RNG seed");
    opts.addString("stats-json", &stats_json,
                   "write the full stats tree as JSON to FILE "
                   "(- for stdout)");
    opts.addFlag("stats", &dump_stats,
                 "dump the stats tree as text after the report");
    opts.addString("trace", &trace_file,
                   "record miss-lifecycle events as JSONL to FILE");
    opts.addUint("trace-cap", &trace_cap,
                 "trace ring capacity in events", positive);
    FabricOptions fabric;
    fabric.addTo(opts);
    opts.parseOrExit(argc, argv);
    fabric.apply(cfg);

    if (no_fp_bit)
        cfg.forwardProgressBit = false;
    if (switch_ns > 0)
        cfg.threadSwitch = sim::nanoseconds(switch_ns);
    cfg.workload.datasetBytes = gibBytes(dataset_gib);
    if (cfg.warmupJobs == 0)
        cfg.warmupJobs = cfg.measureJobs / 10 + 1;

    if (load > 0.0) {
        // Calibrate the open-loop arrival rate against this
        // configuration's own closed-loop maximum.
        SystemConfig probe = cfg;
        probe.measureJobs = cfg.measureJobs / 2 + 1;
        System ref(probe);
        const double max_thr = ref.run().throughputJobsPerSec;
        cfg.meanInterarrival =
            static_cast<sim::Ticks>(1e12 / (load * max_thr));
        std::printf("open loop: %.0f%% of closed-loop max "
                    "(%.0f jobs/s)\n",
                    load * 100, max_thr);
    }

    if (!trace_file.empty())
        sim::Tracer::instance().enable(
            static_cast<std::size_t>(trace_cap));

    System sys(cfg);
    const RunResults r = sys.run();

    std::printf("== %s / %s / %u cores / %.2f GiB dataset / %.1f%% "
                "DRAM ==\n",
                systemKindName(cfg.kind),
                workload::kindName(cfg.workloadKind), cfg.cores,
                dataset_gib, cfg.dramCacheRatio * 100);
    std::printf("jobs measured          %llu\n",
                static_cast<unsigned long long>(r.jobs));
    std::printf("throughput             %.0f jobs/s\n",
                r.throughputJobsPerSec);
    std::printf("service  avg/p50/p99   %.1f / %.1f / %.1f us\n",
                r.avgServiceUs(), r.serviceUs(0.50), r.serviceUs(0.99));
    if (cfg.meanInterarrival > 0) {
        std::printf("response avg/p99       %.1f / %.1f us\n",
                    r.avgResponseUs(), r.responseUs(0.99));
    }
    std::printf("exec between misses    %.1f us (paper target "
                "5-25)\n",
                r.avgExecBetweenMissesUs);
    std::printf("dram-cache hit ratio   %.2f%%\n",
                100.0 * r.dramCacheHitRatio);
    std::printf("flash reads/writes     %llu / %llu\n",
                static_cast<unsigned long long>(r.flashReads),
                static_cast<unsigned long long>(r.flashWrites));
    std::printf("gc-blocked reads       %llu\n",
                static_cast<unsigned long long>(r.gcBlockedReads));
    std::printf("peak outstanding miss  %llu\n",
                static_cast<unsigned long long>(
                    r.peakOutstandingMisses));
    if (r.shootdowns) {
        std::printf("tlb shootdowns         %llu\n",
                    static_cast<unsigned long long>(r.shootdowns));
    }
    if (auto *dc = sys.dramCache()) {
        std::printf("flash refill bytes     %.2f MB"
                    " (sub-page misses %llu)\n",
                    static_cast<double>(
                        dc->bcTotals().flashBytesRead) / 1e6,
                    static_cast<unsigned long long>(
                        dc->fcStats().subPageMisses.value()));
        std::printf("msr peak occupancy     %llu / %llu"
                    " (%u bc shard%s)\n",
                    static_cast<unsigned long long>(
                        dc->msrPeakOccupancy()),
                    static_cast<unsigned long long>(
                        dc->msrCapacity()),
                    dc->shardCount(),
                    dc->shardCount() == 1 ? "" : "s");
    }
    std::printf("flash write amp        %.2f, wear spread %u "
                "(%u %s device%s)\n",
                sys.flash().writeAmplification(),
                sys.flash().wearSpread(), sys.flash().deviceCount(),
                flash::backendKindName(sys.flash().backendKind()),
                sys.flash().deviceCount() == 1 ? "" : "s");

    if (dump_stats)
        std::fputs(sys.statsRegistry().dump().c_str(), stdout);

    if (!stats_json.empty()) {
        if (stats_json == "-") {
            writeStatsJson(std::cout, cfg, dataset_gib, r, sys);
        } else {
            std::ofstream out(stats_json);
            if (!out) {
                std::fprintf(stderr,
                             "astriflash_sim: cannot open '%s'\n",
                             stats_json.c_str());
                return 1;
            }
            writeStatsJson(out, cfg, dataset_gib, r, sys);
        }
    }

    if (!trace_file.empty()) {
        auto &tracer = sim::Tracer::instance();
        std::ofstream out(trace_file);
        if (!out) {
            std::fprintf(stderr, "astriflash_sim: cannot open '%s'\n",
                         trace_file.c_str());
            return 1;
        }
        tracer.writeJsonl(out);
        std::printf("trace: %llu events recorded (%llu dropped) -> "
                    "%s\n",
                    static_cast<unsigned long long>(tracer.emitted()),
                    static_cast<unsigned long long>(tracer.dropped()),
                    trace_file.c_str());
        tracer.disable();
    }
    return 0;
}
