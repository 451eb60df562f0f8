/**
 * @file
 * Workload generators (§V-A).
 *
 * Seven workloads drive the evaluation: five microbenchmarks capturing
 * data-structure access patterns and database operations (Array Swap,
 * Red-Black Tree, Hash Table, TATP, TPCC) and two Tailbench server
 * workloads (Silo, Masstree). As in the paper, data accesses follow an
 * analytical Zipfian distribution calibrated so each thread triggers a
 * DRAM-cache miss every 5-25 µs of execution at a 3% DRAM-to-dataset
 * ratio.
 *
 * Each workload is described by a Profile: how many accesses go to the
 * always-hot index/metadata region vs. the Zipfian-distributed bulk
 * dataset, the compute interval between accesses, and the store
 * fraction. The op-level pattern (swap pairs, pointer chases, bucket
 * probes, transactions) shapes the interleaving of loads and stores.
 */

#ifndef ASTRIFLASH_WORKLOAD_WORKLOAD_HH
#define ASTRIFLASH_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>

#include "sim/rng.hh"
#include "sim/ticks.hh"

#include "job.hh"
#include "zipfian.hh"

namespace astriflash::workload {

/** The evaluated workloads. */
enum class Kind {
    ArraySwap,
    RedBlackTree,
    HashTable,
    Tatp,
    Tpcc,
    Silo,
    Masstree,
};

/** All seven kinds, in the paper's presentation order. */
inline constexpr Kind kAllKinds[] = {
    Kind::ArraySwap,    Kind::RedBlackTree, Kind::HashTable,
    Kind::Tatp,         Kind::Tpcc,         Kind::Silo,
    Kind::Masstree,
};

/** Human-readable workload name. */
const char *kindName(Kind kind);

/** Generator configuration. */
struct WorkloadConfig {
    std::uint64_t datasetBytes = std::uint64_t{2} << 30; ///< 2 GB.
    double zipfTheta = 0.99;
    std::uint64_t seed = 1;
    /** Fraction of dataset pages forming the always-hot region
     *  (indexes, roots, schema — resident in any 3% cache). */
    double hotRegionFraction = 0.005;
    /**
     * Bulk-data popularity mixture (§II-A, Fig. 1): most cold
     * accesses follow a Zipfian over a hot working set of
     * workingSetFraction of the dataset; the remaining
     * uniformFraction of accesses are uniform over the whole
     * dataset. This reproduces CloudSuite's miss-ratio curves, which
     * drop steeply and then flatten near a 3% DRAM-to-dataset ratio —
     * the knee the paper provisions for.
     */
    double workingSetFraction = 0.02;
    double uniformFraction = 0.03;
    /** Global multiplier on per-op compute (sensitivity studies). */
    double computeScale = 1.0;
};

/** Per-workload shape parameters (exposed for tests/ablation). */
struct Profile {
    std::uint32_t coldAccesses; ///< Zipfian bulk-data accesses per job.
    std::uint32_t hotAccesses;  ///< Hot-region accesses per job.
    sim::Ticks computePerOp;    ///< Compute interval between accesses.
    double storeFraction;       ///< P(access is a store).
};

/** The default profile for @p kind (see workload.cc for calibration). */
Profile defaultProfile(Kind kind);

/**
 * A job generator.
 *
 * Generators are deterministic given (kind, config): two instances
 * with the same parameters produce identical job streams, which keeps
 * cross-configuration comparisons paired.
 */
class Workload
{
  public:
    Workload(Kind kind, const WorkloadConfig &config);
    Workload(Kind kind, const WorkloadConfig &config,
             const Profile &profile);

    /**
     * This generator's shape (kind, profile, page counts, the Zipf
     * normaliser) with job ids back at 1 and both draw streams seeded
     * as the constructor seeds them from @p seed: equal to a fresh
     * Workload(kind(), config() with seed = @p seed, profile()),
     * without summing the Zipf normaliser again.
     */
    Workload reseeded(std::uint64_t seed) const;

    /** Generate the next job. Addresses are dataset-relative bytes. */
    Job nextJob();

    Kind kind() const { return kindVal; }
    const char *name() const { return kindName(kindVal); }
    const Profile &profile() const { return prof; }
    const WorkloadConfig &config() const { return cfg; }

    /** Dataset size in 4 KB pages. */
    std::uint64_t datasetPages() const { return pages; }

    /** Pages in the Zipfian hot working set. */
    std::uint64_t workingSet() const { return workingSetPages; }

    /** Pages in the always-hot index/metadata region. */
    std::uint64_t hotRegionPages() const { return hotPages; }

    /** Cold page index of Zipfian popularity rank @p r (warmup). */
    std::uint64_t
    rankToPage(std::uint64_t r) const
    {
        return zipf.itemForRank(r);
    }

    /** Mean compute per job (analytic, for load calibration). */
    sim::Ticks meanComputePerJob() const;

  private:
    /** Seeds of a generator's Zipf and mixture streams. */
    struct StreamSeeds {
        std::uint64_t zipf;
        std::uint64_t mix;
    };

    /** The stream seeds of generator seed @p seed. */
    static StreamSeeds
    streamSeeds(std::uint64_t seed)
    {
        return {seed * 7919 + 13, seed * 104729 + 1};
    }

    mem::Addr coldAddr();
    mem::Addr hotAddr();
    void appendAccess(std::vector<Op> &ops, mem::Addr addr, bool store);

    // Pattern emitters (dispatched by kind).
    void genArraySwap(std::vector<Op> &ops);
    void genPointerChase(std::vector<Op> &ops, std::uint32_t chase_len);
    void genHashTable(std::vector<Op> &ops);
    void genTransaction(std::vector<Op> &ops, std::uint32_t read_set,
                        std::uint32_t write_set);

    Kind kindVal;
    WorkloadConfig cfg;
    Profile prof;
    std::uint64_t pages;
    std::uint64_t hotPages;
    std::uint64_t coldPages;
    std::uint64_t workingSetPages;
    /** Compute interval before each access: computePerOp, scaled. */
    sim::Ticks computeTicks;
    ZipfianGenerator zipf;
    sim::Rng rng;
    std::uint64_t nextId = 1;
};

/** Factory helper. */
std::unique_ptr<Workload> makeWorkload(Kind kind,
                                       const WorkloadConfig &config);

/** Open-loop Poisson arrival process (tail-latency methodology). */
class PoissonArrivals
{
  public:
    /**
     * @param mean_interarrival  Mean gap between request arrivals.
     * @param seed               RNG seed.
     */
    PoissonArrivals(sim::Ticks mean_interarrival, std::uint64_t seed)
        : mean(static_cast<double>(mean_interarrival)), rng(seed)
    {
    }

    /** Next arrival tick strictly after @p prev. */
    sim::Ticks
    next(sim::Ticks prev)
    {
        const double gap = rng.exponential(mean);
        const auto g = static_cast<sim::Ticks>(gap);
        return prev + (g == 0 ? 1 : g);
    }

  private:
    double mean;
    sim::Rng rng;
};

} // namespace astriflash::workload

#endif // ASTRIFLASH_WORKLOAD_WORKLOAD_HH
