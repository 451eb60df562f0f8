/**
 * @file
 * Unit + property tests for the generic set-associative tag array.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <ostream>
#include <set>
#include <tuple>
#include <vector>

#include "mem/set_assoc_cache.hh"
#include "sim/invariant.hh"
#include "sim/rng.hh"

using namespace astriflash::mem;

namespace {

SetAssocCache
makeTiny()
{
    // 4 sets x 2 ways x 64 B lines.
    return SetAssocCache("t", 4 * 2 * 64, 64, 2);
}

/**
 * Which of three seeded call streams a parameterised test replays:
 * stream First runs each test's base seed, Second and Third the two
 * seeds after it. A scoped enum, so gtest names an instance by its
 * raw bytes.
 */
enum class Stream { First, Second, Third };

/** Seed of @p stream for a test whose base seed is @p base. */
std::uint64_t
seedOf(std::uint64_t base, Stream stream)
{
    return base + static_cast<std::uint64_t>(stream);
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

TEST(SetAssocCacheDeath, RejectsWaysTheRestartedClockCannotExceed)
{
    // renumber() restarts the clock at the associativity, which must
    // leave room below kMaxStamp for the stamps that follow.
    const std::uint32_t ways = SetAssocCache::kMaxStamp;
    EXPECT_EXIT(SetAssocCache("wide", std::uint64_t{ways} * 64, 64, ways),
                ::testing::ExitedWithCode(1),
                "wide: associativity 32767 must be below 32767");
    SetAssocCache ok("wide", std::uint64_t{ways - 1} * 64, 64, ways - 1);
    EXPECT_EQ(ok.numSets(), 1u);
}

TEST(SetAssocCacheDeath, RejectsAddressWhoseTagCannotFit)
{
    // One set of 4 KB pages: a tag is the page number, so the last
    // representable page is 2^32 - 2 and 2^32 - 1 would read as empty.
    SetAssocCache c("tlb.l1", 48 * 4096, 4096, 48);
    const Addr last = ((Addr{1} << 32) - 2) << 12;
    c.fill(last);
    EXPECT_TRUE(c.contains(last + 4095));
    EXPECT_EXIT(c.access(last + 4096), ::testing::ExitedWithCode(1),
                "tlb.l1: address 0xffffffff000 has no 32-bit tag");
    EXPECT_EXIT(c.fill(Addr{1} << 44), ::testing::ExitedWithCode(1),
                "tlb.l1: address 0x100000000000");
    EXPECT_EXIT(c.contains(~Addr{0}), ::testing::ExitedWithCode(1),
                "tlb.l1: address");

    // Set bits leave the tag: 1024 sets of 64 B lines reach 2^48.
    SetAssocCache llc("llc", 1024 * 16 * 64, 64, 16);
    const Addr high = (Addr{1} << 48) - 64 * 1024 - 64;
    llc.fill(high);
    EXPECT_TRUE(llc.contains(high));
    EXPECT_EXIT(llc.markDirty(Addr{1} << 48), ::testing::ExitedWithCode(1),
                "llc: address 0x1000000000000");
}

/**
 * Property sweep: under random traffic, structural invariants hold
 * for every geometry and call stream:
 *  - valid lines never exceed capacity/line;
 *  - a filled line is found until evicted;
 *  - per-set occupancy never exceeds associativity (checked via the
 *    global bound and targeted same-set streams).
 */
class CacheProperty
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint64_t, Stream>>
{
};

TEST_P(CacheProperty, InvariantsUnderRandomTraffic)
{
    const auto [ways, sets, stream] = GetParam();
    const std::uint64_t line = 64;
    SetAssocCache c("p", sets * ways * line, line, ways);
    astriflash::sim::Rng rng(seedOf(123, stream));

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
                       ::testing::Values(Stream::First, Stream::Second,
                                         Stream::Third)));

/**
 * victimWay() takes an empty way as the least meta word, so the audit
 * must find every valid way stamped in 1..clock, every empty way and
 * every padding word holding 0, whatever mix of calls left them.
 * Three in five calls advance the clock, so the run crosses at least
 * one renumbering.
 */
TEST(SetAssocCache, AuditHoldsUnderEveryCall)
{
    const int calls = 3 * (SetAssocCache::kMaxStamp + 1);
    SetAssocCache c("a", 8 * 4 * 64, 64, 4);
    astriflash::sim::Rng rng(17);
    for (int i = 0; i < calls; ++i) {
        const Addr a = rng.uniformInt(8 * 4 * 3) * 64;
        switch (rng.uniformInt(5)) {
          case 0: c.access(a); break;
          case 1: c.accessWrite(a); break;
          case 2: c.fill(a, rng.uniformInt(2) == 0); break;
          case 3: c.markDirty(a); break;
          default: c.invalidate(a); break;
        }
        if (i % 97 == 0)
            c.flushAll();
        astriflash::sim::InvariantChecker chk;
        c.checkInvariants(chk);
        ASSERT_EQ(chk.failures(), 0u)
            << "call " << i << ": " << chk.violations().front().detail;
    }
    EXPECT_GT(c.stats().evictions.value(), 0u);
}

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
 * LRU reference model for the differential test: the plain
 * array-of-ways tag store, one struct per way with a tag, valid and
 * dirty bits and a 64-bit last-use stamp, searched pass by pass.
 * SetAssocCache must agree with it on every result, victim and count.
 */
class RefCache
{
  public:
    std::uint64_t hits = 0, misses = 0, evictions = 0, dirtyEvictions = 0,
                  fills = 0, invalidations = 0, valid = 0;

    RefCache(std::uint64_t sets, std::uint64_t line, std::uint32_t ways)
        : sets(sets), line(line), ways(ways), arr(sets * ways)
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

    /** Calls that advanced the clock: every access and fill. */
    std::uint64_t clock() const { return stamp; }

    /**
     * Account @p n read hits whose recency later hits overwrite: they
     * only advance the clock and the hit count.
     */
    void
    skipHits(std::uint64_t n)
    {
        stamp += n;
        hits += n;
    }

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
        w = Way{addr / line * line, true, dirty, stamp};
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
        std::uint32_t old = 0;
        for (std::uint32_t w = 1; w < ways; ++w) {
            if (base[w].lastUse < base[old].lastUse)
                old = w;
        }
        return base[old];
    }

    std::uint64_t sets, line;
    std::uint32_t ways;
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

/**
 * A SetAssocCache and a RefCache of one geometry driven in lockstep.
 * Each call makes the same call on both and returns the array's
 * result; agrees() says whether every result so far and every
 * counter now are equal.
 */
class Lockstep
{
  public:
    SetAssocCache c;
    RefCache ref;

    explicit Lockstep(const Geometry &g)
        : c("d", g.sets * g.ways * g.line, g.line, g.ways),
          ref(g.sets, g.line, g.ways)
    {
    }

    bool
    access(Addr a, bool write)
    {
        const bool hit = write ? c.accessWrite(a) : c.access(a);
        same &= hit == ref.access(a, write);
        return hit;
    }

    void
    fill(Addr a, bool dirty)
    {
        same &= sameLine(c.fill(a, dirty), ref.fill(a, dirty));
    }

    void
    invalidate(Addr a)
    {
        same &= sameLine(c.invalidate(a), ref.invalidate(a));
    }

    bool
    markDirty(Addr a)
    {
        const bool present = c.markDirty(a);
        same &= present == ref.markDirty(a);
        return present;
    }

    void contains(Addr a) { same &= c.contains(a) == ref.contains(a); }

    void
    flushAll()
    {
        c.flushAll();
        ref.flushAll();
    }

    bool
    agrees() const
    {
        const auto &st = c.stats();
        return same && c.validLines() == ref.valid &&
            st.hits.value() == ref.hits &&
            st.misses.value() == ref.misses &&
            st.evictions.value() == ref.evictions &&
            st.dirtyEvictions.value() == ref.dirtyEvictions &&
            st.fills.value() == ref.fills &&
            st.invalidations.value() == ref.invalidations;
    }

  private:
    static bool
    sameLine(const std::optional<CacheLine> &a,
             const std::optional<CacheLine> &b)
    {
        return a.has_value() == b.has_value() &&
            (!a || (a->tag_addr == b->tag_addr && a->dirty == b->dirty));
    }

    bool same = true;
};

/**
 * A random address over three lines per frame of @p g, which keeps
 * hits, misses and evictions all common; the high bits and in-line
 * offsets exercise the tag bits above the set index. The high bits
 * start at bit 40, or lower where the 32-bit tag would not hold them
 * (one set of small lines).
 */
Addr
randomAddr(const Geometry &g, astriflash::sim::Rng &rng)
{
    const unsigned setBits = isPowerOfTwo(g.sets) ? log2i(g.sets) : 0;
    const unsigned high = std::min(40u, 30 + log2i(g.line) + setBits);
    return (rng.uniformInt(4) << high) +
        rng.uniformInt(g.sets * g.ways * 3) * g.line +
        rng.uniformInt(g.line);
}

/** @p ops calls of a seeded random mix of every call, checked. */
void
randomMix(Lockstep &rig, const Geometry &g, astriflash::sim::Rng &rng,
          int ops)
{
    for (int i = 0; i < ops; ++i) {
        const Addr a = randomAddr(g, rng);
        const std::uint64_t op = rng.uniformInt(1000);
        if (op < 350) {
            rig.access(a, false);
        } else if (op < 500) {
            rig.access(a, true);
        } else if (op < 800) {
            rig.fill(a, op >= 700);
        } else if (op < 880) {
            rig.invalidate(a);
        } else if (op < 940) {
            rig.markDirty(a);
        } else if (op < 999) {
            rig.contains(a);
        } else if (rng.uniformInt(20) == 0) {
            rig.flushAll();
        }
        ASSERT_TRUE(rig.agrees()) << "op " << i;
    }
}

} // namespace

/**
 * Differential tests: seeded call sequences replayed against
 * SetAssocCache and RefCache must give equal results, victims (tag
 * and dirtiness), valid-line counts and stats after every operation.
 */
class CacheDifferential
    : public ::testing::TestWithParam<std::tuple<Geometry, Stream>>
{
};

TEST_P(CacheDifferential, MatchesReferenceModel)
{
    const auto [g, stream] = GetParam();
    Lockstep rig(g);
    astriflash::sim::Rng rng(seedOf(2024, stream));
    randomMix(rig, g, rng, 150000);
}

/**
 * The hierarchy's shapes: a missing access or markDirty followed by
 * the fill of the same line (CacheHierarchy::fillFromMemory and
 * cascadeVictim), sometimes with an access, an invalidate, a
 * markDirty or a flushAll in between, a fill of another line, or a
 * fill of the missed line at another offset within it, after which
 * the fill of the missed address is a refill.
 */
TEST_P(CacheDifferential, MissThenFillMatchesReferenceModel)
{
    const auto [g, stream] = GetParam();
    Lockstep rig(g);
    astriflash::sim::Rng rng(seedOf(77, stream));
    for (int i = 0; i < 60000; ++i) {
        const Addr a = randomAddr(g, rng);
        // A markDirty miss is followed by a dirty fill, as in a cascade.
        const bool cascade = rng.uniformInt(3) == 0;
        const bool write = cascade || rng.uniformInt(4) == 0;
        const bool missed =
            cascade ? !rig.markDirty(a) : !rig.access(a, write);
        if (missed) {
            const Addr b = randomAddr(g, rng);
            switch (rng.uniformInt(12)) {
              case 0: rig.access(b, false); break;
              case 1: rig.access(a, false); break;
              case 2: rig.invalidate(b); break;
              case 3: rig.invalidate(a); break;
              case 4: rig.markDirty(b); break;
              case 5: rig.contains(b); break;
              case 6: rig.fill(b, write); break;
              case 7:
                if (rng.uniformInt(50) == 0)
                    rig.flushAll();
                break;
              case 8: rig.fill(a ^ (g.line - 1), !write); break;
              default: break;
            }
            rig.fill(a, write);
        }
        ASSERT_TRUE(rig.agrees()) << "step " << i;
    }
}

/**
 * The random mix run for four times kMaxStamp calls per clock, so each
 * of the array's clocks, the smallest of the three-clock geometry's
 * included, renumbers its sets at least three times between calls
 * that RefCache, with 64-bit stamps, never renumbers; the array is
 * audited between stretches of the mix.
 */
TEST_P(CacheDifferential, MatchesReferenceModelAcrossRenumberings)
{
    const auto [g, stream] = GetParam();
    Lockstep rig(g);
    astriflash::sim::Rng rng(seedOf(4099, stream));
    const std::uint64_t clocks =
        (g.sets + SetAssocCache::kClockSets - 1) / SetAssocCache::kClockSets;
    const std::uint64_t ticks = 4 * (SetAssocCache::kMaxStamp + 1) * clocks;
    while (rig.ref.clock() < ticks) {
        ASSERT_NO_FATAL_FAILURE(randomMix(rig, g, rng, 4096));
        astriflash::sim::InvariantChecker chk;
        rig.c.checkInvariants(chk);
        ASSERT_EQ(chk.failures(), 0u)
            << "clock " << rig.ref.clock() << ": "
            << chk.violations().front().detail;
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
                          Geometry{983, 8, 4096},   // DRAM-cache pages
                          Geometry{3000, 8, 4096},  // three clocks
                          Geometry{1, 1, 64},       // one way
                          Geometry{64, 3, 64},      // ways % 4 != 0
                          Geometry{1, 96, 4096}),   // two 64-way blocks
        ::testing::Values(Stream::First, Stream::Second, Stream::Third)));

/**
 * The 15-bit clock wraps without changing a victim: after a random
 * mix, hits on one hot line per set drive the array's clock past
 * kMaxStamp three times, each renumbering every set's stamps, and the
 * mix continues against RefCache, whose stamps are 64-bit. The other
 * ways keep the older stamps and dirty bits the mix left them, so
 * each renumbering must order them against the hot lines.
 */
class CacheClockWrap : public ::testing::TestWithParam<Stream>
{
};

TEST_P(CacheClockWrap, RenumberingKeepsEveryVictim)
{
    const Geometry g{4, 4, 4096};
    Lockstep rig(g);
    astriflash::sim::Rng rng(seedOf(31, GetParam()));
    ASSERT_NO_FATAL_FAILURE(randomMix(rig, g, rng, 20000));

    // One hot line per set, resident in both models.
    std::vector<Addr> hot;
    for (std::uint64_t s = 0; s < g.sets; ++s) {
        const Addr a = (Addr{1} << 40) + s * g.line;
        if (!rig.access(a, false))
            rig.fill(a, false);
        hot.push_back(a);
    }
    ASSERT_TRUE(rig.agrees());

    // The array alone takes the rounds, RefCache only counts them: the
    // final round, on both, overwrites every hot line's recency.
    const std::uint64_t rounds =
        3 * (SetAssocCache::kMaxStamp + 1) / hot.size() + 1;
    const std::uint64_t hitsBefore = rig.c.stats().hits.value();
    for (std::uint64_t r = 0; r < rounds; ++r) {
        for (const Addr a : hot)
            rig.c.access(a);
    }
    ASSERT_EQ(rig.c.stats().hits.value() - hitsBefore, rounds * hot.size());
    rig.ref.skipHits(rounds * hot.size());
    for (const Addr a : hot)
        rig.access(a, false);
    ASSERT_TRUE(rig.agrees());

    astriflash::sim::InvariantChecker chk;
    rig.c.checkInvariants(chk);
    EXPECT_EQ(chk.failures(), 0u);

    ASSERT_NO_FATAL_FAILURE(randomMix(rig, g, rng, 150000));
}

INSTANTIATE_TEST_SUITE_P(Streams, CacheClockWrap,
                         ::testing::Values(Stream::First, Stream::Second));
