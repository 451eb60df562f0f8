/**
 * @file
 * Statistics collection.
 *
 * Tail latency is the paper's headline metric, so the histogram is an
 * HDR-style log-linear structure: values are bucketed into octaves with
 * 64 linear sub-buckets each, giving <=1.6% relative error at any
 * percentile while using O(kB) memory regardless of sample count.
 *
 * The registry is a component tree: every simulated component registers
 * its typed stats (Counter, Average, Histogram) under a stable dotted
 * namespace ("dcache.bc.msr.occupancy"), and the full tree renders as
 * either human-readable "name = value" lines or nested JSON
 * (`--stats-json`). Registration is non-owning — the stats live in the
 * components and the registry holds pointers — so dumping always
 * reflects live values.
 */

#ifndef ASTRIFLASH_SIM_STATS_HH
#define ASTRIFLASH_SIM_STATS_HH

#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace astriflash::sim {

class JsonWriter;

/** Simple monotonically increasing event counter. */
class Counter
{
  public:
    /** Increment by @p n (default 1). */
    void inc(std::uint64_t n = 1) { count += n; }

    /** Current value. */
    std::uint64_t value() const { return count; }

    /** Reset to zero (between measurement phases). */
    void reset() { count = 0; }

  private:
    std::uint64_t count = 0;
};

/** Running mean/min/max accumulator for a scalar sample stream. */
class Average
{
  public:
    /** Record one sample. */
    void
    sample(double v)
    {
        sum += v;
        ++n;
        if (v < minV)
            minV = v;
        if (v > maxV)
            maxV = v;
    }

    /** Number of samples recorded. */
    std::uint64_t count() const { return n; }

    /** Sum of samples. */
    double total() const { return sum; }

    /** Arithmetic mean (0 if empty). */
    double mean() const { return n ? sum / static_cast<double>(n) : 0.0; }

    /** Smallest sample (+inf if empty). */
    double min() const { return minV; }

    /** Largest sample (-inf if empty). */
    double max() const { return maxV; }

    /** Forget all samples. */
    void
    reset()
    {
        sum = 0.0;
        n = 0;
        minV = std::numeric_limits<double>::infinity();
        maxV = -std::numeric_limits<double>::infinity();
    }

  private:
    double sum = 0.0;
    std::uint64_t n = 0;
    double minV = std::numeric_limits<double>::infinity();
    double maxV = -std::numeric_limits<double>::infinity();
};

/**
 * Log-linear (HDR-style) histogram over non-negative integer values.
 *
 * Bucket layout: values < kSubBuckets land in exact unit buckets;
 * above that, each power-of-two octave is split into kSubBuckets
 * linear sub-buckets, bounding relative error by 1/kSubBuckets.
 */
class Histogram
{
  public:
    Histogram() = default;

    /** Record one sample. */
    void sample(std::uint64_t v);

    /** Record @p weight occurrences of @p v. */
    void sampleN(std::uint64_t v, std::uint64_t weight);

    /**
     * Pre-size the bucket array to cover values up to @p max_value, so
     * sampling in that range never reallocates. Buckets otherwise grow
     * on demand (O(log max) growths over a histogram's lifetime);
     * components with a configured ceiling (e.g. maxSimTicks bounds
     * every latency) call this once at construction.
     */
    void reserveFor(std::uint64_t max_value);

    /** Number of samples. */
    std::uint64_t count() const { return n; }

    /** Sum of all samples. */
    double total() const { return sum; }

    /** Arithmetic mean (0 if empty). */
    double mean() const { return n ? sum / static_cast<double>(n) : 0.0; }

    /** Smallest recorded sample (0 if empty). */
    std::uint64_t min() const { return n ? minV : 0; }

    /** Largest recorded sample (0 if empty). */
    std::uint64_t max() const { return n ? maxV : 0; }

    /**
     * Value at quantile @p q in [0,1] (e.g. 0.99 for p99).
     * Returns the representative (upper-bound) value of the bucket
     * containing the q-th sample; 0 if empty.
     */
    std::uint64_t percentile(double q) const;

    /** Forget all samples. */
    void reset();

    /** Merge another histogram's samples into this one. */
    void merge(const Histogram &other);

    /**
     * Host prefetch hint for the bucket a sample of @p v would land
     * in, if that bucket exists yet; changes nothing. Always inlined,
     * like SetAssocCache::prefetch().
     */
    [[gnu::always_inline]] void
    prefetch(std::uint64_t v) const
    {
        const std::uint32_t idx = bucketIndex(v);
        if (idx < buckets.size())
            __builtin_prefetch(buckets.data() + idx);
    }

  private:
    static constexpr std::uint32_t kSubBucketBits = 6;
    static constexpr std::uint64_t kSubBuckets = 1ull << kSubBucketBits;

    static std::uint32_t
    bucketIndex(std::uint64_t v)
    {
        if (v < kSubBuckets)
            return static_cast<std::uint32_t>(v);
        // Octave = index of the highest set bit beyond the unit region.
        const int msb = 63 - std::countl_zero(v);
        const std::uint32_t octave =
            static_cast<std::uint32_t>(msb) - kSubBucketBits;
        // Linear sub-bucket within the octave.
        const std::uint64_t sub =
            (v >> (msb - static_cast<int>(kSubBucketBits))) - kSubBuckets;
        return static_cast<std::uint32_t>(kSubBuckets) +
               octave * static_cast<std::uint32_t>(kSubBuckets) +
               static_cast<std::uint32_t>(sub);
    }
    static std::uint64_t bucketUpperBound(std::uint32_t idx);

    /** Grow the bucket array to make @p idx addressable. */
    void growTo(std::uint32_t idx);

    /** Demand-grown (see reserveFor); index via bucketIndex. */
    std::vector<std::uint64_t> buckets;
    std::uint64_t n = 0;
    double sum = 0.0;
    std::uint64_t minV = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t maxV = 0;
};

/**
 * Hierarchical registry of named statistics.
 *
 * A registry node holds typed leaf stats plus child registries; the
 * root of the tree belongs to the enclosing system. Components obtain
 * their node with subRegistry("dcache.bc") (dotted paths create
 * intermediate nodes) and register their stats by leaf name, yielding
 * stable fully-qualified names like "dcache.bc.msr.occupancy".
 */
class StatRegistry
{
  public:
    StatRegistry() = default;
    StatRegistry(const StatRegistry &) = delete;
    StatRegistry &operator=(const StatRegistry &) = delete;

    /**
     * Register a live scalar value under @p name.
     *
     * Every registration carries a short human-readable description
     * (enforced by `tools/aflint`); `describe()` renders the
     * resulting data dictionary.
     *
     * @deprecated Prefer the typed registrations below where a typed
     *             stat exists; bare scalar pointers dump a single
     *             number and cannot render distributions.
     */
    void registerScalar(const std::string &name, const double *value,
                        const char *desc);

    /** Register a live integer value (peaks, occupancies) under
     *  @p name. */
    void registerUint(const std::string &name,
                      const std::uint64_t *value, const char *desc);

    /** Register a counter under @p name. */
    void registerCounter(const std::string &name, const Counter *counter,
                         const char *desc);

    /** Register a mean/min/max accumulator under @p name. */
    void registerAverage(const std::string &name, const Average *avg,
                         const char *desc);

    /** Register a latency/occupancy histogram under @p name. */
    void registerHistogram(const std::string &name,
                           const Histogram *hist, const char *desc);

    /**
     * Description of direct leaf @p name in this node ("" if the leaf
     * does not exist).
     */
    const std::string &leafDescription(const std::string &name) const;

    /**
     * Render the subtree's data dictionary: one sorted
     * "full.name: description" line per leaf stat.
     */
    std::string describe() const;

    /**
     * Child registry at dotted @p path relative to this node, created
     * on first use. Returned reference stays valid for the lifetime of
     * this registry.
     */
    StatRegistry &subRegistry(const std::string &path);

    /** Child node, or nullptr if @p path was never registered. */
    const StatRegistry *findSub(const std::string &path) const;

    /**
     * Render "name = value" lines for the whole subtree, sorted by
     * fully-qualified dotted name. Histograms and averages render as
     * one line per derived quantity (count/mean/min/max and p50, p99,
     * p999 for histograms).
     */
    std::string dump() const;

    /** Render the subtree as nested JSON (one object per component). */
    std::string dumpJson() const;

    /** Emit the subtree into an in-flight JSON document. */
    void writeJson(JsonWriter &w) const;

    /**
     * Visit every leaf stat in the subtree with its fully-qualified
     * dotted name, in sorted order (dump() order).
     */
    void forEachStat(
        const std::function<void(const std::string &name)> &fn) const;

    /** Direct child names (one path segment), sorted. */
    std::vector<std::string> childNames() const;

  private:
    enum class LeafKind { Scalar, Uint, Counter, Average, Hist };

    struct Leaf {
        LeafKind kind;
        const void *ptr;
        std::string desc;
    };

    /** Validate and build a leaf entry. */
    static Leaf makeLeaf(LeafKind kind, const void *ptr,
                         const char *desc);

    /** Accumulate "full.name = value" lines for sorting. */
    void collectLines(const std::string &prefix,
                      std::vector<std::string> *lines) const;
    void collectNames(const std::string &prefix,
                      std::vector<std::string> *names) const;
    void collectDescriptions(const std::string &prefix,
                             std::vector<std::string> *lines) const;

    std::map<std::string, Leaf> leaves;
    std::map<std::string, std::unique_ptr<StatRegistry>> children;
};

} // namespace astriflash::sim

#endif // ASTRIFLASH_SIM_STATS_HH
