#include "stats.hh"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "json.hh"
#include "logging.hh"

namespace astriflash::sim {

namespace {

/** Number of buckets covering the full 64-bit value range. */
constexpr std::uint32_t kSubBucketBits = 6;
constexpr std::uint64_t kSubBuckets = 1ull << kSubBucketBits;
// One unit-resolution region + one region of kSubBuckets per octave
// above it. 64-bit values have at most 64 - kSubBucketBits octaves.
constexpr std::uint32_t kNumBuckets =
    static_cast<std::uint32_t>(kSubBuckets) +
    (64 - kSubBucketBits) * static_cast<std::uint32_t>(kSubBuckets);

/** Quantiles a histogram renders in dumps (paper-headline set). */
constexpr double kDumpQuantiles[] = {0.50, 0.99, 0.999};
constexpr const char *kDumpQuantileNames[] = {"p50", "p99", "p999"};

/** Split "a.b.c" into its leading segment and the remainder. */
std::pair<std::string, std::string>
splitPath(const std::string &path)
{
    const std::size_t dot = path.find('.');
    if (dot == std::string::npos)
        return {path, std::string()};
    return {path.substr(0, dot), path.substr(dot + 1)};
}

} // namespace

void
Histogram::growTo(std::uint32_t idx)
{
    // Amortize demand growth: jump straight to the end of the octave
    // so a warming-up latency distribution triggers at most one growth
    // per octave rather than one per new sub-bucket.
    std::uint32_t target = idx + 1;
    if (target < kNumBuckets)
        target = std::min<std::uint32_t>(
            kNumBuckets, (target + kSubBuckets - 1) &
                             ~(static_cast<std::uint32_t>(kSubBuckets) -
                               1));
    buckets.resize(target, 0);
}

void
Histogram::reserveFor(std::uint64_t max_value)
{
    const std::uint32_t idx = bucketIndex(max_value);
    if (idx >= buckets.size())
        growTo(idx);
}

std::uint64_t
Histogram::bucketUpperBound(std::uint32_t idx)
{
    if (idx < kSubBuckets)
        return idx;
    const std::uint32_t rel = idx - static_cast<std::uint32_t>(kSubBuckets);
    const std::uint32_t octave = rel >> kSubBucketBits;
    const std::uint64_t sub = rel & (kSubBuckets - 1);
    // Values in this bucket satisfy (v >> octave) == kSubBuckets + sub,
    // so the inclusive upper edge is one below the next sub-bucket edge.
    return ((kSubBuckets + sub + 1) << octave) - 1;
}

void
Histogram::sample(std::uint64_t v)
{
    sampleN(v, 1);
}

void
Histogram::sampleN(std::uint64_t v, std::uint64_t weight)
{
    if (weight == 0)
        return;
    const std::uint32_t idx = bucketIndex(v);
    if (idx >= buckets.size())
        growTo(idx);
    buckets[idx] += weight;
    n += weight;
    sum += static_cast<double>(v) * static_cast<double>(weight);
    if (v < minV)
        minV = v;
    if (v > maxV)
        maxV = v;
}

std::uint64_t
Histogram::percentile(double q) const
{
    if (n == 0)
        return 0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    // Rank of the target sample (1-based, ceil), standard nearest-rank.
    const double exact = q * static_cast<double>(n);
    std::uint64_t rank = static_cast<std::uint64_t>(exact);
    if (static_cast<double>(rank) < exact || rank == 0)
        ++rank;
    std::uint64_t seen = 0;
    for (std::uint32_t i = 0; i < buckets.size(); ++i) {
        seen += buckets[i];
        if (seen >= rank) {
            const std::uint64_t ub = bucketUpperBound(i);
            return ub > maxV ? maxV : ub;
        }
    }
    return maxV;
}

void
Histogram::reset()
{
    std::fill(buckets.begin(), buckets.end(), 0);
    n = 0;
    sum = 0.0;
    minV = std::numeric_limits<std::uint64_t>::max();
    maxV = 0;
}

void
Histogram::merge(const Histogram &other)
{
    if (other.buckets.size() > buckets.size())
        buckets.resize(other.buckets.size(), 0);
    for (std::size_t i = 0; i < other.buckets.size(); ++i)
        buckets[i] += other.buckets[i];
    n += other.n;
    sum += other.sum;
    if (other.n) {
        if (other.minV < minV)
            minV = other.minV;
        if (other.maxV > maxV)
            maxV = other.maxV;
    }
}

StatRegistry::Leaf
StatRegistry::makeLeaf(LeafKind kind, const void *ptr, const char *desc)
{
    ASTRI_ASSERT_MSG(desc != nullptr && desc[0] != '\0',
                     "stat registration requires a description");
    return Leaf{kind, ptr, desc};
}

void
StatRegistry::registerScalar(const std::string &name, const double *value,
                             const char *desc)
{
    leaves[name] = makeLeaf(LeafKind::Scalar, value, desc);
}

void
StatRegistry::registerUint(const std::string &name,
                           const std::uint64_t *value, const char *desc)
{
    leaves[name] = makeLeaf(LeafKind::Uint, value, desc);
}

void
StatRegistry::registerCounter(const std::string &name,
                              const Counter *counter, const char *desc)
{
    leaves[name] = makeLeaf(LeafKind::Counter, counter, desc);
}

void
StatRegistry::registerAverage(const std::string &name, const Average *avg,
                              const char *desc)
{
    leaves[name] = makeLeaf(LeafKind::Average, avg, desc);
}

void
StatRegistry::registerHistogram(const std::string &name,
                                const Histogram *hist, const char *desc)
{
    leaves[name] = makeLeaf(LeafKind::Hist, hist, desc);
}

const std::string &
StatRegistry::leafDescription(const std::string &name) const
{
    static const std::string kEmpty;
    const auto it = leaves.find(name);
    return it == leaves.end() ? kEmpty : it->second.desc;
}

void
StatRegistry::collectDescriptions(const std::string &prefix,
                                  std::vector<std::string> *lines) const
{
    for (const auto &[name, leaf] : leaves)
        lines->push_back(prefix + name + ": " + leaf.desc);
    for (const auto &[name, child] : children)
        child->collectDescriptions(prefix + name + ".", lines);
}

std::string
StatRegistry::describe() const
{
    std::vector<std::string> lines;
    collectDescriptions(std::string(), &lines);
    std::sort(lines.begin(), lines.end());
    std::string out;
    for (const std::string &line : lines) {
        out += line;
        out += '\n';
    }
    return out;
}

StatRegistry &
StatRegistry::subRegistry(const std::string &path)
{
    ASTRI_ASSERT(!path.empty());
    const auto [head, rest] = splitPath(path);
    auto it = children.find(head);
    if (it == children.end()) {
        it = children
                 .emplace(head, std::make_unique<StatRegistry>())
                 .first;
    }
    return rest.empty() ? *it->second : it->second->subRegistry(rest);
}

const StatRegistry *
StatRegistry::findSub(const std::string &path) const
{
    const auto [head, rest] = splitPath(path);
    const auto it = children.find(head);
    if (it == children.end())
        return nullptr;
    return rest.empty() ? it->second.get() : it->second->findSub(rest);
}

std::vector<std::string>
StatRegistry::childNames() const
{
    std::vector<std::string> names;
    names.reserve(children.size());
    for (const auto &[name, child] : children)
        names.push_back(name);
    return names;
}

void
StatRegistry::collectLines(const std::string &prefix,
                           std::vector<std::string> *lines) const
{
    for (const auto &[name, leaf] : leaves) {
        const std::string full = prefix + name;
        std::ostringstream os;
        switch (leaf.kind) {
          case LeafKind::Scalar:
            os << full << " = "
               << *static_cast<const double *>(leaf.ptr);
            lines->push_back(os.str());
            break;
          case LeafKind::Uint:
            os << full << " = "
               << *static_cast<const std::uint64_t *>(leaf.ptr);
            lines->push_back(os.str());
            break;
          case LeafKind::Counter:
            os << full << " = "
               << static_cast<const Counter *>(leaf.ptr)->value();
            lines->push_back(os.str());
            break;
          case LeafKind::Average: {
            const auto *a = static_cast<const Average *>(leaf.ptr);
            os << full << ".count = " << a->count();
            lines->push_back(os.str());
            if (a->count()) {
                std::ostringstream m;
                m << full << ".mean = " << a->mean();
                lines->push_back(m.str());
                std::ostringstream mn;
                mn << full << ".min = " << a->min();
                lines->push_back(mn.str());
                std::ostringstream mx;
                mx << full << ".max = " << a->max();
                lines->push_back(mx.str());
            }
            break;
          }
          case LeafKind::Hist: {
            const auto *h = static_cast<const Histogram *>(leaf.ptr);
            os << full << ".count = " << h->count();
            lines->push_back(os.str());
            if (h->count()) {
                std::ostringstream m;
                m << full << ".mean = " << h->mean();
                lines->push_back(m.str());
                std::ostringstream mn;
                mn << full << ".min = " << h->min();
                lines->push_back(mn.str());
                std::ostringstream mx;
                mx << full << ".max = " << h->max();
                lines->push_back(mx.str());
                for (std::size_t q = 0; q < std::size(kDumpQuantiles);
                     ++q) {
                    std::ostringstream p;
                    p << full << '.' << kDumpQuantileNames[q] << " = "
                      << h->percentile(kDumpQuantiles[q]);
                    lines->push_back(p.str());
                }
            }
            break;
          }
        }
    }
    for (const auto &[name, child] : children)
        child->collectLines(prefix + name + ".", lines);
}

std::string
StatRegistry::dump() const
{
    std::vector<std::string> lines;
    collectLines(std::string(), &lines);
    std::sort(lines.begin(), lines.end());
    std::string out;
    for (const std::string &line : lines) {
        out += line;
        out += '\n';
    }
    return out;
}

void
StatRegistry::collectNames(const std::string &prefix,
                           std::vector<std::string> *names) const
{
    for (const auto &[name, leaf] : leaves) {
        (void)leaf;
        names->push_back(prefix + name);
    }
    for (const auto &[name, child] : children)
        child->collectNames(prefix + name + ".", names);
}

void
StatRegistry::forEachStat(
    const std::function<void(const std::string &name)> &fn) const
{
    std::vector<std::string> names;
    collectNames(std::string(), &names);
    std::sort(names.begin(), names.end());
    for (const std::string &name : names)
        fn(name);
}

void
StatRegistry::writeJson(JsonWriter &w) const
{
    w.beginObject();
    for (const auto &[name, leaf] : leaves) {
        switch (leaf.kind) {
          case LeafKind::Scalar:
            w.field(name, *static_cast<const double *>(leaf.ptr));
            break;
          case LeafKind::Uint:
            w.field(name,
                    *static_cast<const std::uint64_t *>(leaf.ptr));
            break;
          case LeafKind::Counter:
            w.field(name,
                    static_cast<const Counter *>(leaf.ptr)->value());
            break;
          case LeafKind::Average: {
            const auto *a = static_cast<const Average *>(leaf.ptr);
            w.key(name);
            w.beginObject();
            w.field("count", a->count());
            w.field("mean", a->mean());
            w.field("min", a->count() ? a->min() : 0.0);
            w.field("max", a->count() ? a->max() : 0.0);
            w.endObject();
            break;
          }
          case LeafKind::Hist: {
            const auto *h = static_cast<const Histogram *>(leaf.ptr);
            w.key(name);
            w.beginObject();
            w.field("count", h->count());
            w.field("mean", h->mean());
            w.field("min", h->min());
            w.field("max", h->max());
            for (std::size_t q = 0; q < std::size(kDumpQuantiles); ++q)
                w.field(kDumpQuantileNames[q],
                        h->percentile(kDumpQuantiles[q]));
            w.endObject();
            break;
          }
        }
    }
    for (const auto &[name, child] : children) {
        w.key(name);
        child->writeJson(w);
    }
    w.endObject();
}

std::string
StatRegistry::dumpJson() const
{
    std::ostringstream os;
    JsonWriter w(os);
    writeJson(w);
    os << '\n';
    return os.str();
}

} // namespace astriflash::sim
