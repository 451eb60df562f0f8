/**
 * @file
 * The host prefetch hints change nothing (DESIGN.md §9.4): two copies
 * of each hinted structure driven by the same seeded stream, with
 * hints interleaved into one copy only, must agree on every result,
 * victim and stat. The hinted addresses include ones whose tag would
 * overflow, 0 and the largest address, which a hint must take without
 * complaint.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "mem/cache_hierarchy.hh"
#include "mem/set_assoc_cache.hh"
#include "mem/tlb.hh"
#include "sim/invariant.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

using namespace astriflash::mem;
using astriflash::sim::Histogram;
using astriflash::sim::InvariantChecker;
using astriflash::sim::Rng;
using astriflash::sim::Ticks;

namespace {

constexpr Addr kMaxAddr = std::numeric_limits<Addr>::max();

/**
 * Addresses a hint gets between two operations: one in the stream's
 * range, one anywhere (most of those have no 32-bit tag), 0 and the
 * largest address.
 */
std::vector<Addr>
hintAddrs(Rng &rng, Addr range)
{
    return {rng.uniformInt(range), rng.next(), 0, kMaxAddr};
}

/** The observable outcome of one tag-array operation. */
struct CacheStep {
    bool hit = false;
    std::optional<CacheLine> line;

    bool
    operator==(const CacheStep &o) const
    {
        return hit == o.hit && line.has_value() == o.line.has_value() &&
               (!line || (line->tag_addr == o.line->tag_addr &&
                          line->dirty == o.line->dirty));
    }
};

CacheStep
cacheOp(SetAssocCache &c, unsigned kind, Addr a)
{
    switch (kind) {
      case 0:
        return {c.access(a), std::nullopt};
      case 1:
        return {c.accessWrite(a), std::nullopt};
      case 2:
      case 3:
        return {false, c.fill(a, kind == 3)};
      case 4:
        return {false, c.invalidate(a)};
      default:
        return {c.markDirty(a), std::nullopt};
    }
}

void
expectSameStats(const SetAssocCache &a, const SetAssocCache &b)
{
    const SetAssocCache::Stats &x = a.stats();
    const SetAssocCache::Stats &y = b.stats();
    EXPECT_EQ(x.hits.value(), y.hits.value()) << a.name();
    EXPECT_EQ(x.misses.value(), y.misses.value()) << a.name();
    EXPECT_EQ(x.evictions.value(), y.evictions.value()) << a.name();
    EXPECT_EQ(x.dirtyEvictions.value(), y.dirtyEvictions.value())
        << a.name();
    EXPECT_EQ(x.fills.value(), y.fills.value()) << a.name();
    EXPECT_EQ(x.invalidations.value(), y.invalidations.value())
        << a.name();
    EXPECT_EQ(a.validLines(), b.validLines()) << a.name();
}

/** Drive @p plain and @p hinted alike; only @p hinted gets hints. */
void
driveCachePair(SetAssocCache &plain, SetAssocCache &hinted, Addr range,
               std::uint64_t seed)
{
    Rng rng(seed);
    Rng hints(seed + 100);
    std::uint64_t victims = 0;
    for (int i = 0; i < 40000; ++i) {
        const Addr a = rng.uniformInt(range);
        const auto kind = static_cast<unsigned>(rng.uniformInt(6));
        for (const Addr h : hintAddrs(hints, range))
            hinted.prefetch(h);
        const CacheStep x = cacheOp(plain, kind, a);
        const CacheStep y = cacheOp(hinted, kind, a);
        ASSERT_TRUE(x == y) << plain.name() << " op " << i;
        victims += x.line.has_value();
        ASSERT_EQ(plain.contains(a), hinted.contains(a));
    }
    EXPECT_GT(victims, 1000u) << plain.name();
    expectSameStats(plain, hinted);
    for (Addr a = 0; a < range; a += range / 4096)
        ASSERT_EQ(plain.contains(a), hinted.contains(a));
    InvariantChecker chk;
    hinted.checkInvariants(chk);
    EXPECT_EQ(chk.failures(), 0u);
}

} // namespace

TEST(PrefetchHints, SetAssocCacheUnchanged)
{
    SetAssocCache plain("pow2", 64 * 4 * 64, 64, 4);
    SetAssocCache hinted("pow2", 64 * 4 * 64, 64, 4);
    driveCachePair(plain, hinted, 64 * 4 * 64 * 8, 1);
}

TEST(PrefetchHints, NonPowerOfTwoSetCountUnchanged)
{
    // The DRAM cache's geometry: 983 sets of 8 page-sized ways, with
    // the set found by modulo and 5-word sets straddling host lines.
    constexpr std::uint64_t kCap = 983ull * 8 * kPageSize;
    SetAssocCache plain("dc", kCap, kPageSize, 8);
    SetAssocCache hinted("dc", kCap, kPageSize, 8);
    driveCachePair(plain, hinted, kCap * 3, 3);

    SetAssocCache oddPlain("odd", 983ull * 5 * 64, 64, 5);
    SetAssocCache oddHinted("odd", 983ull * 5 * 64, 64, 5);
    driveCachePair(oddPlain, oddHinted, 983ull * 5 * 64 * 4, 4);
}

TEST(PrefetchHints, CacheHierarchyUnchanged)
{
    const auto levels = defaultHierarchyConfig();
    CacheHierarchy plain("h", levels);
    CacheHierarchy hinted("h", levels);
    Rng rng(5);
    Rng hints(6);
    constexpr Addr kRange = 16ull << 20;
    std::uint64_t writebacks = 0;
    for (int i = 0; i < 100000; ++i) {
        const Addr a = rng.uniformInt(kRange / 64) * 64;
        const bool write = rng.uniformInt(4) == 0;
        for (const Addr h : hintAddrs(hints, kRange))
            hinted.prefetch(h);
        const HierarchyAccess x = plain.access(a, write);
        const HierarchyAccess y = hinted.access(a, write);
        ASSERT_EQ(x.llcMiss, y.llcMiss) << "op " << i;
        ASSERT_EQ(x.hitLevel, y.hitLevel) << "op " << i;
        ASSERT_EQ(x.latency, y.latency) << "op " << i;
        ASSERT_EQ(plain.writebacks(), hinted.writebacks()) << "op " << i;
        if (x.llcMiss) {
            hinted.mshrs().prefetch();
            const Ticks at = Ticks(i);
            plain.mshrs().record(at, at + 700);
            hinted.mshrs().record(at, at + 700);
            plain.fillFromMemory(a, write);
            hinted.fillFromMemory(a, write);
            ASSERT_EQ(plain.writebacks(), hinted.writebacks())
                << "op " << i;
            writebacks += plain.writebacks().size();
        }
    }
    EXPECT_GT(writebacks, 100u);
    EXPECT_EQ(plain.stats().accesses.value(),
              hinted.stats().accesses.value());
    EXPECT_EQ(plain.stats().llcMisses.value(),
              hinted.stats().llcMisses.value());
    EXPECT_EQ(plain.stats().llcWritebacks.value(),
              hinted.stats().llcWritebacks.value());
    EXPECT_EQ(plain.mshrs().stats().heldTicks.value(),
              hinted.mshrs().stats().heldTicks.value());
    for (std::size_t l = 0; l < plain.numLevels(); ++l)
        expectSameStats(plain.level(l), hinted.level(l));
    InvariantChecker chk;
    hinted.checkInvariants(chk);
    EXPECT_EQ(chk.failures(), 0u);
}

TEST(PrefetchHints, TlbUnchanged)
{
    const Tlb::Config cfg;
    Tlb plain("t", cfg);
    Tlb hinted("t", cfg);
    Rng rng(7);
    Rng hints(8);
    constexpr Addr kRange = 4096ull * kPageSize;
    for (int i = 0; i < 50000; ++i) {
        const Addr va = rng.uniformInt(kRange);
        for (const Addr h : hintAddrs(hints, kRange))
            hinted.prefetch(h);
        const Tlb::Result x = plain.lookup(va);
        const Tlb::Result y = hinted.lookup(va);
        ASSERT_EQ(x.miss, y.miss) << "op " << i;
        ASSERT_EQ(x.latency, y.latency) << "op " << i;
        if (x.miss) {
            plain.fill(va);
            hinted.fill(va);
        }
        if (rng.uniformInt(50) == 0) {
            plain.invalidate(va);
            hinted.invalidate(va);
        }
    }
    EXPECT_EQ(plain.stats().l1Hits.value(), hinted.stats().l1Hits.value());
    EXPECT_EQ(plain.stats().l2Hits.value(), hinted.stats().l2Hits.value());
    EXPECT_EQ(plain.stats().misses.value(), hinted.stats().misses.value());
    EXPECT_GT(plain.stats().l2Hits.value(), 0u);
    EXPECT_EQ(plain.stats().shootdowns.value(),
              hinted.stats().shootdowns.value());
}

TEST(PrefetchHints, HistogramUnchanged)
{
    Histogram plain;
    Histogram hinted;
    // An empty histogram has no bucket to hint.
    for (const std::uint64_t v :
         {std::uint64_t{0}, std::uint64_t{63}, std::uint64_t{1} << 40,
          std::numeric_limits<std::uint64_t>::max()})
        hinted.prefetch(v);
    EXPECT_EQ(hinted.count(), 0u);
    Rng rng(9);
    Rng hints(10);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t v = rng.uniformInt(1u << 24);
        hinted.prefetch(v);
        hinted.prefetch(hints.next());
        hinted.prefetch(std::numeric_limits<std::uint64_t>::max());
        plain.sample(v);
        hinted.sample(v);
    }
    EXPECT_EQ(plain.count(), hinted.count());
    EXPECT_EQ(plain.total(), hinted.total());
    EXPECT_EQ(plain.min(), hinted.min());
    EXPECT_EQ(plain.max(), hinted.max());
    for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0})
        EXPECT_EQ(plain.percentile(q), hinted.percentile(q)) << q;
}
