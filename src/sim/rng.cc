#include "rng.hh"

#include <cmath>

namespace astriflash::sim {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    // Expand the seed so that nearby seeds give uncorrelated streams.
    std::uint64_t x = seed;
    for (auto &word : s)
        word = splitmix64(x);
    // All-zero state would be a fixed point; splitmix64 cannot produce
    // four zero outputs from any input, so no check is needed.
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0,1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t bound)
{
    if (bound == 0)
        return 0;
    // Debiased modulo via rejection of the uneven tail.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::uint64_t
Rng::uniformInt(std::uint64_t lo, std::uint64_t hi)
{
    const std::uint64_t span = hi - lo + 1;
    // A span of 0 is the wrapped 2^64: every raw draw is in range.
    return lo + (span == 0 ? next() : uniformInt(span));
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

double
Rng::exponential(double mean)
{
    // Inverse-CDF; guard against log(0).
    double u = uniform();
    if (u <= 0.0)
        u = 0x1.0p-53;
    return -mean * std::log(u);
}

double
Rng::normal()
{
    if (hasCachedNormal) {
        hasCachedNormal = false;
        return cachedNormal;
    }
    double u1 = uniform();
    if (u1 <= 0.0)
        u1 = 0x1.0p-53;
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedNormal = r * std::sin(theta);
    hasCachedNormal = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

std::uint64_t
Rng::poisson(double mean)
{
    if (mean <= 0.0)
        return 0;
    if (mean < 64.0) {
        // Knuth's product-of-uniforms method.
        const double limit = std::exp(-mean);
        double prod = uniform();
        std::uint64_t k = 0;
        while (prod > limit) {
            prod *= uniform();
            ++k;
        }
        return k;
    }
    // Normal approximation for large means.
    const double v = normal(mean, std::sqrt(mean));
    return v < 0.0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
}

Rng
Rng::fork()
{
    return Rng(next());
}

} // namespace astriflash::sim
