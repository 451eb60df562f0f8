/**
 * @file
 * Tests for the Zipfian popularity generator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "workload/zipfian.hh"

using namespace astriflash::workload;

TEST(Zipfian, DrawsInRange)
{
    ZipfianGenerator z(1000, 0.99, true, 1);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(z.next(), 1000u);
}

TEST(Zipfian, RankZeroIsMostPopular)
{
    ZipfianGenerator z(10000, 0.99, false, 2);
    std::vector<std::uint64_t> counts(10000, 0);
    for (int i = 0; i < 200000; ++i)
        ++counts[z.nextRank()];
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[10], counts[1000]);
}

TEST(Zipfian, RankFrequenciesMatchAnalyticRatio)
{
    // P(rank r) proportional to 1/(r+1)^theta.
    const double theta = 0.8;
    ZipfianGenerator z(100000, theta, false, 3);
    std::uint64_t c0 = 0, c9 = 0;
    for (int i = 0; i < 2000000; ++i) {
        const std::uint64_t r = z.nextRank();
        c0 += r == 0;
        c9 += r == 9;
    }
    const double expected = std::pow(10.0, theta); // p0 / p9
    const double measured =
        static_cast<double>(c0) / static_cast<double>(c9);
    EXPECT_NEAR(measured, expected, expected * 0.1);
}

TEST(Zipfian, HotAccessFractionAnalytic)
{
    ZipfianGenerator z(100000, 0.99, false, 4);
    EXPECT_DOUBLE_EQ(z.hotAccessFraction(0), 0.0);
    EXPECT_DOUBLE_EQ(z.hotAccessFraction(100000), 1.0);
    const double f1 = z.hotAccessFraction(1000);
    const double f2 = z.hotAccessFraction(10000);
    EXPECT_GT(f1, 0.0);
    EXPECT_LT(f1, f2);
    EXPECT_LT(f2, 1.0);
}

TEST(Zipfian, HotAccessFractionMatchesMeasurement)
{
    const std::uint64_t n = 50000;
    ZipfianGenerator z(n, 0.99, false, 5);
    const std::uint64_t hot = n / 20; // top 5% of ranks
    const double analytic = z.hotAccessFraction(hot);
    std::uint64_t hits = 0;
    const int draws = 500000;
    for (int i = 0; i < draws; ++i)
        hits += z.nextRank() < hot;
    EXPECT_NEAR(static_cast<double>(hits) / draws, analytic, 0.01);
}

TEST(Zipfian, ScrambleSpreadsHotItems)
{
    ZipfianGenerator z(100000, 0.99, true, 6);
    // The top-16 ranks should not land in one small address region.
    std::uint64_t lo = ~0ull, hi = 0;
    for (std::uint64_t r = 0; r < 16; ++r) {
        const std::uint64_t item = z.itemForRank(r);
        lo = std::min(lo, item);
        hi = std::max(hi, item);
    }
    EXPECT_GT(hi - lo, 100000u / 4);
}

TEST(Zipfian, ScrambledDrawsMatchItemForRank)
{
    ZipfianGenerator a(5000, 0.99, true, 7);
    ZipfianGenerator b(5000, 0.99, false, 7);
    // Same seed: a.next() == itemForRank(b.nextRank()).
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), a.itemForRank(b.nextRank()));
}

TEST(Zipfian, LargeItemCountUsesApproximation)
{
    // > 2^22 items exercises the extrapolated zeta; draws must stay
    // in range and remain skewed.
    ZipfianGenerator z(std::uint64_t{1} << 26, 0.99, false, 8);
    std::uint64_t top = 0;
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t r = z.nextRank();
        ASSERT_LT(r, std::uint64_t{1} << 26);
        top += r < 1000;
    }
    EXPECT_GT(top, 1000u); // far more than the uniform 0.15 expected
}

TEST(Zipfian, Deterministic)
{
    ZipfianGenerator a(1234, 0.9, true, 42), b(1234, 0.9, true, 42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Zipfian, RankAndItemSequencesArePinned)
{
    // Recorded once: any change to the draw arithmetic (the
    // normaliser, the rank-1 cut, the scramble fold) moves these.
    ZipfianGenerator ranks(5216, 0.99, false, 77);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (int i = 0; i < 10000; ++i) {
        h ^= ranks.nextRank();
        h *= 0x100000001b3ull;
    }
    EXPECT_EQ(h, 0x15f33cfbb7a45421ull);

    ZipfianGenerator items(983, 0.9, true, 78);
    std::uint64_t first[8];
    for (std::uint64_t &v : first)
        v = items.next();
    const std::uint64_t expected_first[8] = {704, 357, 822, 314,
                                             966, 967, 963, 662};
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(first[i], expected_first[i]) << "draw " << i;
    std::uint64_t g = 0xcbf29ce484222325ull;
    for (int i = 0; i < 10000; ++i) {
        g ^= items.next();
        g *= 0x100000001b3ull;
    }
    EXPECT_EQ(g, 0x292564f3193b0a81ull);
}
