/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * A self-contained xoshiro256** implementation (no libc rand state, no
 * std::mt19937 size) so every model owns an independent, seedable,
 * reproducible stream. Distribution helpers cover the draws the paper's
 * methodology needs: uniform, exponential (Poisson arrivals), normal,
 * and bounded integers.
 */

#ifndef ASTRIFLASH_SIM_RNG_HH
#define ASTRIFLASH_SIM_RNG_HH

#include <cstdint>

namespace astriflash::sim {

/** xoshiro256** PRNG with distribution helpers. */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit draw. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /**
     * Uniform integer in [0, bound) by debiased modulo: a raw draw in
     * the uneven tail of 2^64 mod bound values is rejected and
     * redrawn. Returns 0 for a bound of 0.
     */
    std::uint64_t uniformInt(std::uint64_t bound);

    /**
     * Uniform integer in [lo, hi] inclusive; the full range
     * [0, 2^64 - 1] is one raw draw.
     */
    std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi);

    /** Bernoulli trial with probability @p p. */
    bool chance(double p);

    /** Exponential variate with given mean (= 1/rate). */
    double exponential(double mean);

    /** Standard normal variate (Box-Muller, cached pair). */
    double normal();

    /** Normal variate with mean/stddev. */
    double normal(double mean, double stddev);

    /**
     * Poisson-distributed count with given mean (Knuth for small means,
     * normal approximation above 64).
     */
    std::uint64_t poisson(double mean);

    /** Fork an independent stream (seeded from this one). */
    Rng fork();

  private:
    std::uint64_t s[4];
    double cachedNormal = 0.0;
    bool hasCachedNormal = false;
};

} // namespace astriflash::sim

#endif // ASTRIFLASH_SIM_RNG_HH
