#include "zipfian.hh"

#include <cmath>

#include "sim/logging.hh"

namespace astriflash::workload {

namespace {
// Beyond this, the harmonic sum is extrapolated in closed form; the
// relative error of the integral approximation is far below the run-
// to-run noise of the simulations.
constexpr std::uint64_t kExactZetaLimit = 1ull << 22;
} // namespace

double
ZipfianGenerator::zetaExact(std::uint64_t n, double theta)
{
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i)
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
    return sum;
}

double
ZipfianGenerator::zeta(std::uint64_t n, double theta)
{
    if (n <= kExactZetaLimit)
        return zetaExact(n, theta);
    // zeta(n) ~= zeta(n0) + integral_{n0}^{n} x^-theta dx.
    const double z0 = zetaExact(kExactZetaLimit, theta);
    const double n0 = static_cast<double>(kExactZetaLimit);
    const double nn = static_cast<double>(n);
    return z0 + (std::pow(nn, 1.0 - theta) - std::pow(n0, 1.0 - theta)) /
                    (1.0 - theta);
}

ZipfianGenerator::ZipfianGenerator(std::uint64_t items, double theta,
                                   bool scramble, std::uint64_t seed)
    : n(items), skew(theta), scrambled(scramble), rng(seed)
{
    if (items == 0)
        ASTRI_FATAL("zipfian: need at least one item");
    if (theta <= 0.0 || theta >= 1.0)
        ASTRI_FATAL("zipfian: theta must be in (0,1), got %f", theta);
    zetan = zeta(n, skew);
    zeta2 = zetaExact(2 < n ? 2 : n, skew);
    alpha = 1.0 / (1.0 - skew);
    eta = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - skew)) /
          (1.0 - zeta2 / zetan);
    rankOneCut = 1.0 + std::pow(0.5, skew);
}

ZipfianGenerator
ZipfianGenerator::reseeded(std::uint64_t seed) const
{
    ZipfianGenerator z(*this);
    z.rng = sim::Rng(seed);
    return z;
}

std::uint64_t
ZipfianGenerator::nextRank()
{
    const double u = rng.uniform();
    const double uz = u * zetan;
    if (uz < 1.0)
        return 0;
    if (uz < rankOneCut)
        return 1;
    const double v =
        static_cast<double>(n) *
        std::pow(eta * u - eta + 1.0, alpha);
    std::uint64_t rank = static_cast<std::uint64_t>(v);
    if (rank >= n)
        rank = n - 1;
    return rank;
}

std::uint64_t
ZipfianGenerator::scrambleRank(std::uint64_t rank) const
{
    if (!scrambled)
        return rank;
    // FNV-1a 64-bit over the rank bytes, folded onto the item range.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (int i = 0; i < 8; ++i) {
        h ^= (rank >> (i * 8)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h % n;
}

std::uint64_t
ZipfianGenerator::next()
{
    return scrambleRank(nextRank());
}

double
ZipfianGenerator::hotAccessFraction(std::uint64_t hot_items) const
{
    if (hot_items == 0)
        return 0.0;
    if (hot_items >= n)
        return 1.0;
    return zeta(hot_items, skew) / zetan;
}

} // namespace astriflash::workload
