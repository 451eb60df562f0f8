/**
 * @file
 * Unit + property tests for the generic set-associative tag array.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <ostream>
#include <set>
#include <tuple>
#include <vector>

#include "mem/set_assoc_cache.hh"
#include "sim/rng.hh"

using namespace astriflash::mem;

namespace {

SetAssocCache
makeTiny(ReplacementPolicy p = ReplacementPolicy::Lru)
{
    // 4 sets x 2 ways x 64 B lines.
    return SetAssocCache("t", 4 * 2 * 64, 64, 2, p);
}

} // namespace

TEST(SetAssocCache, MissThenHit)
{
    auto c = makeTiny();
    EXPECT_FALSE(c.access(0x100));
    c.fill(0x100);
    EXPECT_TRUE(c.access(0x100));
    EXPECT_TRUE(c.access(0x13f)); // same 64 B line
    EXPECT_FALSE(c.access(0x140)); // next line
}

TEST(SetAssocCache, LruEvictsLeastRecent)
{
    auto c = makeTiny();
    // Two lines in set 0 (line addr multiples of 64*4 = 256).
    c.fill(0);
    c.fill(256);
    EXPECT_TRUE(c.access(0)); // make 0 the MRU
    const auto victim = c.fill(512);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->tag_addr, 256u);
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(256));
}

TEST(SetAssocCache, FifoEvictsOldestFill)
{
    auto c = makeTiny(ReplacementPolicy::Fifo);
    c.fill(0);
    c.fill(256);
    EXPECT_TRUE(c.access(0)); // recency must NOT matter for FIFO
    const auto victim = c.fill(512);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->tag_addr, 0u);
}

TEST(SetAssocCache, RandomPolicyEvictsSomeValidWay)
{
    auto c = makeTiny(ReplacementPolicy::Random);
    c.fill(0);
    c.fill(256);
    const auto victim = c.fill(512);
    ASSERT_TRUE(victim.has_value());
    EXPECT_TRUE(victim->tag_addr == 0 || victim->tag_addr == 256);
}

TEST(SetAssocCache, DirtyTrackedThroughEviction)
{
    auto c = makeTiny();
    c.fill(0);
    EXPECT_TRUE(c.accessWrite(0));
    c.fill(256);
    const auto victim = c.fill(512); // evicts LRU = 0 (dirty)
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->tag_addr, 0u);
    EXPECT_TRUE(victim->dirty);
    EXPECT_EQ(c.stats().dirtyEvictions.value(), 1u);
}

TEST(SetAssocCache, FillWithDirtyFlag)
{
    auto c = makeTiny();
    c.fill(0, true);
    c.fill(256);
    c.access(256);
    const auto victim = c.fill(512);
    ASSERT_TRUE(victim);
    EXPECT_TRUE(victim->dirty);
}

TEST(SetAssocCache, InvalidateReturnsLine)
{
    auto c = makeTiny();
    c.fill(0x40);
    c.markDirty(0x40);
    const auto line = c.invalidate(0x40);
    ASSERT_TRUE(line);
    EXPECT_TRUE(line->dirty);
    EXPECT_FALSE(c.contains(0x40));
    EXPECT_FALSE(c.invalidate(0x40).has_value());
}

TEST(SetAssocCache, MarkDirtyOnlyWhenPresent)
{
    auto c = makeTiny();
    EXPECT_FALSE(c.markDirty(0x40));
    c.fill(0x40);
    EXPECT_TRUE(c.markDirty(0x40));
}

TEST(SetAssocCache, RefillOfResidentLineKeepsSingleCopy)
{
    auto c = makeTiny();
    c.fill(0);
    EXPECT_FALSE(c.fill(0).has_value());
    EXPECT_EQ(c.validLines(), 1u);
}

TEST(SetAssocCache, FlushAllEmpties)
{
    auto c = makeTiny();
    c.fill(0);
    c.fill(64);
    c.flushAll();
    EXPECT_EQ(c.validLines(), 0u);
    EXPECT_FALSE(c.contains(0));
}

TEST(SetAssocCache, StatsCount)
{
    auto c = makeTiny();
    c.access(0);     // miss
    c.fill(0);       // fill
    c.access(0);     // hit
    EXPECT_EQ(c.stats().hits.value(), 1u);
    EXPECT_EQ(c.stats().misses.value(), 1u);
    EXPECT_EQ(c.stats().fills.value(), 1u);
    EXPECT_DOUBLE_EQ(c.stats().missRatio(), 0.5);
}

TEST(SetAssocCacheDeath, RejectsBadGeometry)
{
    EXPECT_EXIT(SetAssocCache("x", 1000, 63, 2), ::testing::ExitedWithCode(1),
                "power of two");
    EXPECT_EXIT(SetAssocCache("x", 1000, 64, 0), ::testing::ExitedWithCode(1),
                "associativity");
    EXPECT_EXIT(SetAssocCache("x", 100, 64, 2), ::testing::ExitedWithCode(1),
                "");
    // An empty way's tag must be an address no line can have.
    EXPECT_EXIT(SetAssocCache("bytes", 64, 1, 2),
                ::testing::ExitedWithCode(1), "bytes: line size 1");
}

/**
 * Property sweep: under random traffic, structural invariants hold
 * for every geometry/policy combination:
 *  - valid lines never exceed capacity/line;
 *  - a filled line is found until evicted;
 *  - per-set occupancy never exceeds associativity (checked via the
 *    global bound and targeted same-set streams).
 */
class CacheProperty
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint64_t, ReplacementPolicy>>
{
};

TEST_P(CacheProperty, InvariantsUnderRandomTraffic)
{
    const auto [ways, sets, policy] = GetParam();
    const std::uint64_t line = 64;
    SetAssocCache c("p", sets * ways * line, line, ways, policy, 77);
    astriflash::sim::Rng rng(123);

    const std::uint64_t frames = sets * ways;
    std::set<Addr> resident;
    for (int i = 0; i < 20000; ++i) {
        const Addr a = rng.uniformInt(frames * 8) * line;
        const bool hit = c.access(a);
        EXPECT_EQ(hit, resident.count(a) != 0) << "addr " << a;
        if (!hit) {
            const auto victim = c.fill(a);
            resident.insert(a);
            if (victim)
                resident.erase(victim->tag_addr);
        }
        ASSERT_LE(c.validLines(), frames);
        ASSERT_EQ(c.validLines(), resident.size());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 8u),
                       ::testing::Values(std::uint64_t{1},
                                         std::uint64_t{16},
                                         std::uint64_t{64}),
                       ::testing::Values(ReplacementPolicy::Lru,
                                         ReplacementPolicy::Fifo,
                                         ReplacementPolicy::Random)));

/** Page-granularity instantiation used by the DRAM cache. */
TEST(SetAssocCache, PageGranularity)
{
    SetAssocCache c("pages", 16 * 8 * 4096, 4096, 8);
    c.fill(0x3000);
    EXPECT_TRUE(c.access(0x3fff));
    EXPECT_FALSE(c.access(0x4000));
    EXPECT_EQ(c.numSets(), 16u);
}

namespace {

/**
 * Reference model for the differential test: the plain array-of-ways
 * tag store, one struct per way with a tag, valid and dirty bits and
 * separate last-use and fill stamps, searched pass by pass.
 * SetAssocCache must agree with it on every result, victim and count.
 */
class RefCache
{
  public:
    std::uint64_t hits = 0, misses = 0, evictions = 0, dirtyEvictions = 0,
                  fills = 0, invalidations = 0, valid = 0;

    RefCache(std::uint64_t sets, std::uint64_t line, std::uint32_t ways,
             ReplacementPolicy policy, std::uint64_t seed)
        : sets(sets), line(line), ways(ways), policy(policy), rng(seed),
          arr(sets * ways)
    {
    }

    bool
    access(Addr addr, bool write)
    {
        ++stamp;
        Way *w = find(addr);
        if (!w) {
            ++misses;
            return false;
        }
        w->lastUse = stamp;
        w->dirty = w->dirty || write;
        ++hits;
        return true;
    }

    bool contains(Addr addr) { return find(addr) != nullptr; }

    std::optional<CacheLine>
    fill(Addr addr, bool dirty)
    {
        ++stamp;
        if (Way *w = find(addr)) {
            w->lastUse = stamp;
            w->dirty = w->dirty || dirty;
            return std::nullopt;
        }
        Way &w = victim(set(addr));
        std::optional<CacheLine> evicted;
        if (w.valid) {
            evicted = CacheLine{w.tag, w.dirty};
            ++evictions;
            dirtyEvictions += w.dirty;
        } else {
            ++valid;
        }
        w = Way{addr / line * line, true, dirty, stamp, stamp};
        ++fills;
        return evicted;
    }

    std::optional<CacheLine>
    invalidate(Addr addr)
    {
        Way *w = find(addr);
        if (!w)
            return std::nullopt;
        const CacheLine out{w->tag, w->dirty};
        *w = Way{};
        --valid;
        ++invalidations;
        return out;
    }

    bool
    markDirty(Addr addr)
    {
        Way *w = find(addr);
        if (w)
            w->dirty = true;
        return w != nullptr;
    }

    void
    flushAll()
    {
        for (Way &w : arr)
            w.valid = w.dirty = false;
        valid = 0;
    }

  private:
    struct Way {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
        std::uint64_t fillTime = 0;
    };

    Way *set(Addr addr) { return &arr[addr / line % sets * ways]; }

    Way *
    find(Addr addr)
    {
        Way *base = set(addr);
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (base[w].valid && base[w].tag == addr / line * line)
                return &base[w];
        }
        return nullptr;
    }

    Way &
    victim(Way *base)
    {
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (!base[w].valid)
                return base[w];
        }
        if (policy == ReplacementPolicy::Random)
            return base[rng.uniformInt(ways)];
        std::uint32_t old = 0;
        for (std::uint32_t w = 1; w < ways; ++w) {
            const bool older = policy == ReplacementPolicy::Fifo
                ? base[w].fillTime < base[old].fillTime
                : base[w].lastUse < base[old].lastUse;
            if (older)
                old = w;
        }
        return base[old];
    }

    std::uint64_t sets, line;
    std::uint32_t ways;
    ReplacementPolicy policy;
    astriflash::sim::Rng rng;
    std::vector<Way> arr;
    std::uint64_t stamp = 0;
};

/** Sets x ways x line bytes of one array under test. */
struct Geometry {
    std::uint64_t sets;
    std::uint32_t ways;
    std::uint64_t line;
};

void
PrintTo(const Geometry &g, std::ostream *os)
{
    *os << g.sets << "x" << g.ways << "x" << g.line << "B";
}

} // namespace

/**
 * Differential test: a seeded random mix of every mutating and probing
 * call, replayed against SetAssocCache and RefCache, must give equal
 * results, victims (tag and dirtiness), valid-line counts and stats
 * after every operation.
 */
class CacheDifferential
    : public ::testing::TestWithParam<std::tuple<Geometry, ReplacementPolicy>>
{
};

TEST_P(CacheDifferential, MatchesReferenceModel)
{
    const auto [g, policy] = GetParam();
    SetAssocCache c("d", g.sets * g.ways * g.line, g.line, g.ways, policy,
                    91);
    RefCache ref(g.sets, g.line, g.ways, policy, 91);
    astriflash::sim::Rng rng(2024);

    const auto sameLine = [](const std::optional<CacheLine> &a,
                             const std::optional<CacheLine> &b) {
        return a.has_value() == b.has_value() &&
            (!a || (a->tag_addr == b->tag_addr && a->dirty == b->dirty));
    };
    // Three lines per frame keep hits, misses and evictions all common;
    // the high bits and in-line offsets exercise tag alignment.
    const std::uint64_t lines = g.sets * g.ways * 3;
    const auto &st = c.stats();
    for (int i = 0; i < 150000; ++i) {
        const Addr a = (rng.uniformInt(4) << 40) +
            rng.uniformInt(lines) * g.line + rng.uniformInt(g.line);
        const std::uint64_t op = rng.uniformInt(1000);
        if (op < 350) {
            ASSERT_EQ(c.access(a), ref.access(a, false)) << "op " << i;
        } else if (op < 500) {
            ASSERT_EQ(c.accessWrite(a), ref.access(a, true)) << "op " << i;
        } else if (op < 800) {
            const bool dirty = op >= 700;
            ASSERT_TRUE(sameLine(c.fill(a, dirty), ref.fill(a, dirty)))
                << "op " << i;
        } else if (op < 880) {
            ASSERT_TRUE(sameLine(c.invalidate(a), ref.invalidate(a)))
                << "op " << i;
        } else if (op < 940) {
            ASSERT_EQ(c.markDirty(a), ref.markDirty(a)) << "op " << i;
        } else if (op < 999) {
            ASSERT_EQ(c.contains(a), ref.contains(a)) << "op " << i;
        } else if (rng.uniformInt(20) == 0) {
            c.flushAll();
            ref.flushAll();
        }
        ASSERT_EQ(c.validLines(), ref.valid) << "op " << i;
        ASSERT_EQ(st.hits.value(), ref.hits) << "op " << i;
        ASSERT_EQ(st.misses.value(), ref.misses) << "op " << i;
        ASSERT_EQ(st.evictions.value(), ref.evictions) << "op " << i;
        ASSERT_EQ(st.dirtyEvictions.value(), ref.dirtyEvictions)
            << "op " << i;
        ASSERT_EQ(st.fills.value(), ref.fills) << "op " << i;
        ASSERT_EQ(st.invalidations.value(), ref.invalidations)
            << "op " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Combine(
        ::testing::Values(Geometry{1, 48, 4096},    // TLB L1
                          Geometry{256, 5, 4096},   // TLB L2
                          Geometry{256, 4, 64},     // L1D
                          Geometry{1024, 8, 64},    // L2
                          Geometry{1024, 16, 64},   // LLC
                          Geometry{983, 8, 4096}),  // DRAM-cache pages
        ::testing::Values(ReplacementPolicy::Lru, ReplacementPolicy::Fifo,
                          ReplacementPolicy::Random)));
