/**
 * @file
 * Tests for the workload generators.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <set>

#include "workload/workload.hh"

using namespace astriflash::workload;
using astriflash::mem::kPageSize;

namespace {

WorkloadConfig
smallCfg()
{
    WorkloadConfig c;
    c.datasetBytes = 64ull << 20; // 64 MB
    c.seed = 3;
    return c;
}

} // namespace

TEST(Workload, AllKindsProduceJobs)
{
    for (Kind k : kAllKinds) {
        Workload w(k, smallCfg());
        const Job j = w.nextJob();
        EXPECT_GT(j.ops.size(), 8u) << kindName(k);
        EXPECT_GT(j.id, 0u);
    }
}

TEST(Workload, AddressesWithinDataset)
{
    for (Kind k : kAllKinds) {
        Workload w(k, smallCfg());
        for (int i = 0; i < 50; ++i) {
            const Job j = w.nextJob();
            for (const Op &op : j.ops) {
                if (op.type == Op::Type::Compute)
                    continue;
                ASSERT_LT(op.addr, smallCfg().datasetBytes)
                    << kindName(k);
                ASSERT_EQ(op.addr % 64, 0u); // block aligned
            }
        }
    }
}

TEST(Workload, DeterministicGivenSeed)
{
    for (Kind k : {Kind::Tatp, Kind::Masstree}) {
        Workload a(k, smallCfg()), b(k, smallCfg());
        for (int i = 0; i < 10; ++i) {
            const Job ja = a.nextJob();
            const Job jb = b.nextJob();
            ASSERT_EQ(ja.ops.size(), jb.ops.size());
            for (std::size_t o = 0; o < ja.ops.size(); ++o) {
                ASSERT_EQ(ja.ops[o].addr, jb.ops[o].addr);
                ASSERT_EQ(static_cast<int>(ja.ops[o].type),
                          static_cast<int>(jb.ops[o].type));
            }
        }
    }
}

TEST(Workload, ComputePrecedesEveryAccess)
{
    Workload w(Kind::Tatp, smallCfg());
    const Job j = w.nextJob();
    for (std::size_t i = 0; i < j.ops.size(); ++i) {
        if (j.ops[i].type != Op::Type::Compute) {
            ASSERT_GT(i, 0u);
            EXPECT_EQ(static_cast<int>(j.ops[i - 1].type),
                      static_cast<int>(Op::Type::Compute));
        }
    }
}

TEST(Workload, StoreFractionRoughlyMatchesProfile)
{
    for (Kind k : kAllKinds) {
        Workload w(k, smallCfg());
        std::uint64_t loads = 0, stores = 0;
        for (int i = 0; i < 300; ++i) {
            const Job j = w.nextJob();
            for (const Op &op : j.ops) {
                loads += op.type == Op::Type::Load;
                stores += op.type == Op::Type::Store;
            }
        }
        const double frac =
            static_cast<double>(stores) /
            static_cast<double>(loads + stores);
        // Store fraction applies to record/leaf accesses; index reads
        // dilute it, so only check broad consistency.
        EXPECT_GT(frac, 0.0) << kindName(k);
        EXPECT_LT(frac, 0.6) << kindName(k);
        if (k == Kind::ArraySwap) {
            EXPECT_NEAR(frac, 0.5, 0.01);
        }
    }
}

TEST(Workload, MeanComputeMatchesGeneratedOps)
{
    for (Kind k : kAllKinds) {
        Workload w(k, smallCfg());
        double total = 0;
        const int jobs = 200;
        for (int i = 0; i < jobs; ++i) {
            const Job j = w.nextJob();
            for (const Op &op : j.ops) {
                if (op.type == Op::Type::Compute)
                    total += static_cast<double>(op.compute);
            }
        }
        const double measured = total / jobs;
        const double predicted =
            static_cast<double>(w.meanComputePerJob());
        EXPECT_NEAR(measured, predicted, predicted * 0.15)
            << kindName(k);
    }
}

TEST(Workload, TatpJobsAreShortTransactions)
{
    // §VI-C: TATP "takes ten us on average" — compute plus on-chip
    // time lands near 10 us.
    Workload w(Kind::Tatp, smallCfg());
    const double us =
        static_cast<double>(w.meanComputePerJob()) / 1e6;
    EXPECT_GT(us, 5.0);
    EXPECT_LT(us, 15.0);
}

TEST(Workload, TpccIsComputeHeaviest)
{
    WorkloadConfig c = smallCfg();
    std::uint64_t tpcc = Workload(Kind::Tpcc, c).meanComputePerJob();
    for (Kind k : kAllKinds) {
        if (k == Kind::Tpcc)
            continue;
        EXPECT_GT(tpcc, Workload(k, c).meanComputePerJob())
            << kindName(k);
    }
}

TEST(Workload, HotRegionPagesDistinctFromColdPages)
{
    Workload w(Kind::Tatp, smallCfg());
    const std::uint64_t dataset_pages =
        smallCfg().datasetBytes / kPageSize;
    const std::uint64_t hot = w.hotRegionPages();
    EXPECT_GT(hot, 0u);
    EXPECT_LT(hot, dataset_pages / 20);
    EXPECT_LE(w.workingSet(), dataset_pages);
}

TEST(Workload, ColdAccessSkewFollowsMixture)
{
    // ~97% of cold accesses land inside the working set.
    WorkloadConfig c = smallCfg();
    Workload w(Kind::ArraySwap, c); // pure cold accesses
    const std::uint64_t ws_bytes = w.workingSet() * kPageSize;
    std::uint64_t in_ws = 0, total = 0;
    for (int i = 0; i < 500; ++i) {
        const Job j = w.nextJob();
        for (const Op &op : j.ops) {
            if (op.type == Op::Type::Compute)
                continue;
            ++total;
            in_ws += op.addr < ws_bytes;
        }
    }
    const double frac =
        static_cast<double>(in_ws) / static_cast<double>(total);
    // uniformFraction=0.03 of accesses go uniform; nearly all others
    // stay inside the working set (a few uniform draws also land
    // there by chance).
    EXPECT_GT(frac, 0.95);
    EXPECT_LT(frac, 0.995);
}

TEST(Workload, ComputeScaleMultiplies)
{
    WorkloadConfig c = smallCfg();
    c.computeScale = 2.0;
    Workload scaled(Kind::Tatp, c);
    Workload base(Kind::Tatp, smallCfg());
    EXPECT_NEAR(static_cast<double>(scaled.meanComputePerJob()),
                2.0 * static_cast<double>(base.meanComputePerJob()),
                static_cast<double>(base.meanComputePerJob()) * 0.01);
}

TEST(Workload, PoissonArrivalsHaveConfiguredMean)
{
    PoissonArrivals p(astriflash::sim::microseconds(5), 9);
    astriflash::sim::Ticks t = 0;
    const int n = 100000;
    astriflash::sim::Ticks prev = 0;
    double sum = 0;
    for (int i = 0; i < n; ++i) {
        t = p.next(t);
        sum += static_cast<double>(t - prev);
        prev = t;
    }
    EXPECT_NEAR(sum / n,
                static_cast<double>(astriflash::sim::microseconds(5)),
                static_cast<double>(
                    astriflash::sim::microseconds(5)) * 0.02);
}

TEST(Workload, KindNamesUnique)
{
    std::set<std::string> names;
    for (Kind k : kAllKinds)
        names.insert(kindName(k));
    EXPECT_EQ(names.size(), 7u);
}

namespace {

/** FNV-1a over every field of the first @p jobs jobs of @p w. */
std::uint64_t
streamDigest(Workload &w, int jobs)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (int i = 0; i < jobs; ++i) {
        const Job j = w.nextJob();
        mix(j.id);
        mix(j.ops.size());
        for (const Op &op : j.ops) {
            mix(static_cast<std::uint64_t>(op.type));
            mix(op.addr);
            mix(op.compute);
        }
    }
    return h;
}

/** The two configurations the pinned streams are recorded at. */
WorkloadConfig
pinnedCfg(int which)
{
    WorkloadConfig c;
    if (which == 0) {
        // The defaults at a System-style per-core seed.
        c.seed = 1 * 1000003 + 5;
    } else {
        // A small dataset, a milder skew and a fractional compute
        // scale, so the scaled compute interval is rounded.
        c.datasetBytes = 96ull << 20;
        c.zipfTheta = 0.9;
        c.computeScale = 1.37;
        c.seed = 2 * 1000003 + 250;
    }
    return c;
}

} // namespace

TEST(WorkloadStream, FirstJobsArePinned)
{
    // Digests of the first 200 jobs of every kind, recorded once. A
    // change here changes every job stream, stat and golden file.
    const std::uint64_t expected[2][7] = {
        {0xfbfd06f7e0e3e9bdull, 0x5fbb1a7ea39f7184ull,
         0x811690ca416ffc33ull, 0x556a9bc0f1d68eceull,
         0xe4832b26bb229174ull, 0xd880df939f3a86f3ull,
         0xc5e6e4ef7a9d2908ull},
        {0x928eadeb03a55631ull, 0xd7ef2d9540e276d2ull,
         0x770cfb47afb83eb5ull, 0xd7a37bb6990ae9b5ull,
         0xd9a603656788c2a7ull, 0xcf3006df3139127aull,
         0x516779c61e89e86dull},
    };
    for (int which = 0; which < 2; ++which) {
        for (std::size_t k = 0; k < std::size(kAllKinds); ++k) {
            Workload w(kAllKinds[k], pinnedCfg(which));
            const std::uint64_t got = streamDigest(w, 200);
            EXPECT_EQ(got, expected[which][k])
                << kindName(kAllKinds[k]) << " config " << which;
        }
    }
}

TEST(WorkloadStream, ReseededMatchesFreshConstruction)
{
    // A System builds core 0's generator and reseeds copies of it for
    // the other cores; each copy must be the generator a fresh
    // construction at its seed would be, including after the source
    // has drawn jobs of its own.
    for (int which = 0; which < 2; ++which) {
        for (Kind k : kAllKinds) {
            Workload source(k, pinnedCfg(which));
            source.nextJob();
            for (std::uint64_t seed : {std::uint64_t{7},
                                       pinnedCfg(which).seed + 1}) {
                WorkloadConfig c = pinnedCfg(which);
                c.seed = seed;
                Workload fresh(k, c);
                Workload copy = source.reseeded(seed);
                EXPECT_EQ(copy.config().seed, seed);
                EXPECT_EQ(streamDigest(copy, 200), streamDigest(fresh, 200))
                    << kindName(k) << " config " << which << " seed "
                    << seed;
            }
        }
    }
}
