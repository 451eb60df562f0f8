/**
 * @file
 * Statistical sanity tests for the RNG and its distributions.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/rng.hh"

using namespace astriflash::sim;

TEST(Rng, DeterministicGivenSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LE(same, 1);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0;
    for (int i = 0; i < 100000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100000, 0.5, 0.01);
}

TEST(Rng, UniformIntRespectsBound)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(rng.uniformInt(17), 17u);
    EXPECT_EQ(rng.uniformInt(0), 0u);
    EXPECT_EQ(rng.uniformInt(1), 0u);
}

TEST(Rng, UniformIntRangeInclusive)
{
    Rng rng(11);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t v = rng.uniformInt(5, 8);
        ASSERT_GE(v, 5u);
        ASSERT_LE(v, 8u);
        hit_lo |= v == 5;
        hit_hi |= v == 8;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, UniformIntFullRangeIsOneRawDraw)
{
    // hi - lo + 1 wraps to 0 over the whole 64-bit range; the draw
    // must still be uniform, not stuck at lo.
    Rng rng(21), raw(21);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.uniformInt(0, ~std::uint64_t{0}), raw.next());
    Rng spread(22);
    std::uint64_t ored = 0;
    for (int i = 0; i < 64; ++i)
        ored |= spread.uniformInt(0, ~std::uint64_t{0});
    EXPECT_GT(ored, std::uint64_t{1} << 63);
}

TEST(Rng, UniformIntIsUnbiased)
{
    // Debiased-modulo rejection: each residue of a non-power-of-two
    // bound appears with near-equal frequency.
    Rng rng(13);
    const std::uint64_t bound = 10;
    std::uint64_t counts[10] = {};
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.uniformInt(bound)];
    for (std::uint64_t c : counts)
        EXPECT_NEAR(static_cast<double>(c), n / 10.0, n * 0.005);
}

TEST(Rng, ChanceEdges)
{
    Rng rng(5);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(21);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(50.0);
    EXPECT_NEAR(sum / n, 50.0, 0.5);
}

TEST(Rng, NormalMoments)
{
    Rng rng(23);
    double sum = 0, sq = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.normal(10.0, 3.0);
        sum += v;
        sq += v * v;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Rng, PoissonMeanSmallAndLarge)
{
    Rng rng(27);
    for (double mean : {0.5, 4.0, 200.0}) {
        double sum = 0;
        const int n = 50000;
        for (int i = 0; i < n; ++i)
            sum += static_cast<double>(rng.poisson(mean));
        EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.05) << mean;
    }
    EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(31);
    Rng b = a.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LE(same, 1);
}
