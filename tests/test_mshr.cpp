/**
 * @file
 * Tests for the on-chip MSHR file's hold-time recorder.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "mem/address.hh"
#include "mem/mshr.hh"
#include "sim/rng.hh"

using namespace astriflash::mem;
using astriflash::sim::Ticks;

TEST(Mshr, AllocateMergeRelease)
{
    // Each record is one allocation and one free of the core's only
    // entry; nothing is ever left live to merge onto.
    MshrFile m;
    m.record(100, 160);
    m.record(200, 200);
    EXPECT_EQ(m.stats().allocations.value(), 2u);
    EXPECT_EQ(m.stats().frees.value(), 2u);
    EXPECT_EQ(m.stats().merges.value(), 0u);
}

TEST(Mshr, NeverMergesOrStalls)
{
    MshrFile m;
    for (Ticks i = 0; i < 1000; ++i)
        m.record(i, i + 700);
    EXPECT_EQ(m.stats().merges.value(), 0u);
    EXPECT_EQ(m.stats().fullStalls.value(), 0u);
    EXPECT_EQ(m.stats().peakOccupancy, 1u);
}

TEST(Mshr, PeakOccupancyTracked)
{
    MshrFile m;
    EXPECT_EQ(m.stats().peakOccupancy, 0u);
    m.record(0, 10);
    EXPECT_EQ(m.stats().peakOccupancy, 1u);
}

TEST(Mshr, HoldTimeMeasuredFromAllocateToRelease)
{
    MshrFile m;
    m.record(100, 160); // held 60 ticks
    m.record(250, 290); // held 40 ticks
    EXPECT_EQ(m.stats().heldTicks.value(), 100u);
    EXPECT_EQ(m.stats().holdTime.count(), 2u);
    EXPECT_EQ(m.stats().holdTime.min(), 40u);
    EXPECT_EQ(m.stats().holdTime.max(), 60u);
    EXPECT_DOUBLE_EQ(m.stats().holdTime.mean(), 50.0);
}

TEST(Mshr, HoldTimeClampsReleaseBeforeAllocate)
{
    // The miss-response release path can carry a timestamp from a
    // skewed core clock; an earlier release tick charges zero, never
    // an underflowed duration.
    MshrFile m;
    m.record(1000, 400);
    EXPECT_EQ(m.stats().heldTicks.value(), 0u);
    EXPECT_EQ(m.stats().holdTime.count(), 1u);
    EXPECT_EQ(m.stats().holdTime.max(), 0u);
}

TEST(Mshr, PrefetchChangesNothing)
{
    // The hint reads the last hold time's bucket, whether or not it
    // exists yet, and leaves every stat as it was.
    MshrFile m;
    m.prefetch();
    m.record(0, 1u << 20);
    m.prefetch();
    m.record(5, 3);
    m.prefetch();
    EXPECT_EQ(m.stats().allocations.value(), 2u);
    EXPECT_EQ(m.stats().heldTicks.value(), 1u << 20);
    EXPECT_EQ(m.stats().holdTime.count(), 2u);
}

namespace {

/** The hash-map CAM the file once was, as a reference. */
struct RefMshr {
    struct Entry {
        std::uint32_t waiters;
        Ticks allocatedAt;
    };

    std::unordered_map<std::uint64_t, Entry> table;
    std::uint64_t allocations = 0, merges = 0, fullStalls = 0, frees = 0;
    std::uint64_t heldTicks = 0, peak = 0;
    std::uint64_t holdMin = ~std::uint64_t{0}, holdMax = 0;

    void
    allocate(Addr addr, Ticks now)
    {
        if (auto it = table.find(addr / 64); it != table.end()) {
            ++it->second.waiters;
            ++merges;
            return;
        }
        table.emplace(addr / 64, Entry{1, now});
        ++allocations;
        peak = std::max<std::uint64_t>(peak, table.size());
    }

    void
    release(Addr addr, Ticks now)
    {
        auto it = table.find(addr / 64);
        if (it == table.end())
            return;
        const Ticks held =
            now > it->second.allocatedAt ? now - it->second.allocatedAt : 0;
        table.erase(it);
        ++frees;
        heldTicks += held;
        holdMin = std::min(holdMin, held);
        holdMax = std::max(holdMax, held);
    }
};

} // namespace

TEST(Mshr, MatchesHashMapReference)
{
    // Driven the way SimCore drives it, an allocate at the LLC miss
    // and a release at the answer before the next miss, the CAM never
    // holds two entries, and the recorder must keep every one of its
    // stats. Ticks jitter, so some releases declare a tick before
    // their allocation's.
    for (const std::uint64_t seed : {1, 2, 3, 4}) {
        MshrFile m;
        RefMshr ref;
        astriflash::sim::Rng rng(seed);
        Ticks now = 0;
        for (int op = 0; op < 20000; ++op) {
            const Addr addr = rng.uniformInt(1u << 20) * 64;
            now += rng.uniformInt(50);
            const Ticks miss = now + 100;
            const Ticks answer = now + rng.uniformInt(2000);
            ref.allocate(addr, miss);
            ref.release(addr, answer);
            m.record(miss, answer);

            const MshrFile::Stats &st = m.stats();
            ASSERT_EQ(st.allocations.value(), ref.allocations);
            ASSERT_EQ(st.merges.value(), ref.merges);
            ASSERT_EQ(st.fullStalls.value(), ref.fullStalls);
            ASSERT_EQ(st.frees.value(), ref.frees);
            ASSERT_EQ(st.heldTicks.value(), ref.heldTicks);
            ASSERT_EQ(st.holdTime.count(), ref.frees);
            ASSERT_EQ(st.holdTime.min(), ref.holdMin);
            ASSERT_EQ(st.holdTime.max(), ref.holdMax);
            ASSERT_EQ(st.peakOccupancy, ref.peak);

            astriflash::sim::InvariantChecker chk;
            m.checkInvariants(chk);
            ASSERT_EQ(chk.failures(), 0u) << "seed " << seed << " op " << op;
        }
        EXPECT_GT(m.stats().heldTicks.value(), 0u);
    }
}
