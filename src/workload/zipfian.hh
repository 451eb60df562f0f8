/**
 * @file
 * Zipfian item-popularity generator (YCSB-style).
 *
 * The paper models all data accesses with an analytical Zipfian
 * distribution (§V-A), the standard skew model for datacenter object
 * popularity. This implementation follows Gray et al.'s rejection-free
 * inversion used by YCSB, with an exact harmonic sum for small item
 * counts and the usual closed-form extrapolation for large ones, plus
 * optional FNV scrambling so "hot" items are scattered across the
 * address space rather than clustered at low ranks.
 */

#ifndef ASTRIFLASH_WORKLOAD_ZIPFIAN_HH
#define ASTRIFLASH_WORKLOAD_ZIPFIAN_HH

#include <cstdint>

#include "sim/rng.hh"

namespace astriflash::workload {

/** Draws item indices in [0, items) with Zipfian popularity. */
class ZipfianGenerator
{
  public:
    /**
     * @param items      Number of distinct items (> 0).
     * @param theta      Skew parameter in (0, 1); 0.99 is the YCSB
     *                   default and matches "hot fraction" behaviour
     *                   observed in datacenter caches.
     * @param scramble   Hash ranks onto items (YCSB scrambled mode).
     * @param seed       RNG seed.
     */
    ZipfianGenerator(std::uint64_t items, double theta = 0.99,
                     bool scramble = true, std::uint64_t seed = 42);

    /**
     * This generator's shape (items, skew, scrambling and the
     * normaliser computed from them) with its draw stream restarted
     * as the constructor would start it from @p seed. Equal to a
     * fresh construction with the same arguments, without summing
     * the normaliser again.
     */
    ZipfianGenerator reseeded(std::uint64_t seed) const;

    /** Draw the next item index. */
    std::uint64_t next();

    /**
     * Draw a popularity *rank* (0 = most popular), before scrambling.
     * Useful for analytical hot-set studies.
     */
    std::uint64_t nextRank();

    std::uint64_t items() const { return n; }
    double theta() const { return skew; }

    /**
     * Fraction of accesses expected to land in the @p hot_items most
     * popular items (analytic, for validation and Fig. 1 analysis).
     */
    double hotAccessFraction(std::uint64_t hot_items) const;

    /** Item index a given popularity rank maps to (scramble-aware). */
    std::uint64_t itemForRank(std::uint64_t rank) const
    {
        return scrambleRank(rank);
    }

  private:
    static double zetaExact(std::uint64_t n, double theta);
    static double zeta(std::uint64_t n, double theta);

    std::uint64_t scrambleRank(std::uint64_t rank) const;

    std::uint64_t n;
    double skew;
    bool scrambled;
    double zetan;
    double zeta2;
    double alpha;
    double eta;
    /** 1 + 0.5^theta: scaled draws below it (and above 1) are rank 1. */
    double rankOneCut;
    sim::Rng rng;
};

} // namespace astriflash::workload

#endif // ASTRIFLASH_WORKLOAD_ZIPFIAN_HH
