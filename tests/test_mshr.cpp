/**
 * @file
 * Tests for the on-chip MSHR file.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "mem/mshr.hh"
#include "sim/rng.hh"

using namespace astriflash::mem;
using astriflash::sim::Ticks;

TEST(Mshr, AllocateMergeRelease)
{
    MshrFile m("m", 4);
    EXPECT_EQ(m.allocate(0x100), MshrAlloc::New);
    EXPECT_EQ(m.allocate(0x108), MshrAlloc::Merged); // same 64 B line
    EXPECT_EQ(m.occupancy(), 1u);
    EXPECT_TRUE(m.contains(0x100));
    EXPECT_EQ(m.release(0x100), 2u);
    EXPECT_FALSE(m.contains(0x100));
    EXPECT_EQ(m.release(0x100), 0u);
}

TEST(Mshr, FullBlocks)
{
    MshrFile m("m", 2);
    EXPECT_EQ(m.allocate(0x000), MshrAlloc::New);
    EXPECT_EQ(m.allocate(0x040), MshrAlloc::New);
    EXPECT_EQ(m.allocate(0x080), MshrAlloc::Full);
    EXPECT_TRUE(m.full());
    EXPECT_EQ(m.stats().fullStalls.value(), 1u);
    m.release(0x000);
    EXPECT_EQ(m.allocate(0x080), MshrAlloc::New);
}

TEST(Mshr, PeakOccupancyTracked)
{
    MshrFile m("m", 8);
    for (int i = 0; i < 5; ++i)
        m.allocate(i * 64);
    for (int i = 0; i < 5; ++i)
        m.release(i * 64);
    EXPECT_EQ(m.stats().peakOccupancy, 5u);
    EXPECT_EQ(m.occupancy(), 0u);
}

TEST(Mshr, LineGranularityConfigurable)
{
    MshrFile m("m", 4, 4096);
    EXPECT_EQ(m.allocate(0x0), MshrAlloc::New);
    EXPECT_EQ(m.allocate(0xfff), MshrAlloc::Merged);
    EXPECT_EQ(m.allocate(0x1000), MshrAlloc::New);
}

TEST(Mshr, HoldTimeMeasuredFromAllocateToRelease)
{
    MshrFile m("m", 4);
    m.allocate(0x000, 100);
    m.allocate(0x040, 250);
    EXPECT_EQ(m.release(0x000, 160), 1u); // held 60 ticks
    EXPECT_EQ(m.release(0x040, 290), 1u); // held 40 ticks
    EXPECT_EQ(m.stats().heldTicks.value(), 100u);
    EXPECT_EQ(m.stats().holdTime.count(), 2u);
    EXPECT_EQ(m.stats().holdTime.min(), 40u);
    EXPECT_EQ(m.stats().holdTime.max(), 60u);
    EXPECT_DOUBLE_EQ(m.stats().holdTime.mean(), 50.0);
}

TEST(Mshr, HoldTimeKeepsAllocationTickAcrossMerges)
{
    // Merges ride the original entry: the hold time spans from the
    // FIRST allocation to the release, whatever the merge ticks were.
    MshrFile m("m", 4);
    m.allocate(0x000, 10);
    EXPECT_EQ(m.allocate(0x008, 500), MshrAlloc::Merged);
    EXPECT_EQ(m.release(0x000, 70), 2u);
    EXPECT_EQ(m.stats().heldTicks.value(), 60u);
    EXPECT_EQ(m.stats().holdTime.count(), 1u);
}

TEST(Mshr, HoldTimeClampsReleaseBeforeAllocate)
{
    // The miss-response release path can carry a timestamp from a
    // skewed core clock; an earlier release tick charges zero, never
    // an underflowed duration.
    MshrFile m("m", 4);
    m.allocate(0x000, 1000);
    m.release(0x000, 400);
    EXPECT_EQ(m.stats().heldTicks.value(), 0u);
    EXPECT_EQ(m.stats().holdTime.count(), 1u);
    EXPECT_EQ(m.stats().holdTime.max(), 0u);
}

TEST(Mshr, ReleasingAMiddleEntryKeepsTheOthers)
{
    // release() moves the last entry into the freed slot; the other
    // seven must all still be found, with their own waiters and
    // allocation ticks.
    MshrFile m("m", 8);
    for (Ticks i = 0; i < 8; ++i)
        EXPECT_EQ(m.allocate(i * 64, 10 * i), MshrAlloc::New);
    EXPECT_EQ(m.allocate(7 * 64 + 8), MshrAlloc::Merged);
    EXPECT_EQ(m.release(3 * 64, 100), 1u);
    EXPECT_EQ(m.occupancy(), 7u);
    EXPECT_FALSE(m.contains(3 * 64));
    for (Ticks i : {0, 1, 2, 4, 5, 6, 7})
        EXPECT_TRUE(m.contains(i * 64)) << "line " << i;
    EXPECT_EQ(m.release(7 * 64, 100), 2u);
    EXPECT_EQ(m.stats().heldTicks.value(), (100 - 30) + (100 - 70));
    for (Ticks i : {0, 1, 2, 4, 5, 6})
        EXPECT_EQ(m.release(i * 64, 100), 1u) << "line " << i;
    EXPECT_EQ(m.occupancy(), 0u);

    astriflash::sim::InvariantChecker chk;
    m.checkInvariants(chk);
    EXPECT_EQ(chk.failures(), 0u);
}

namespace {

/** The hash-map MSHR file the vector replaced, as a reference. */
struct RefMshr {
    struct Entry {
        std::uint32_t waiters;
        Ticks allocatedAt;
    };

    std::uint32_t capacity;
    std::uint64_t line;
    std::unordered_map<std::uint64_t, Entry> table;
    std::uint64_t allocations = 0, merges = 0, fullStalls = 0, frees = 0;
    std::uint64_t heldTicks = 0, peak = 0;
    std::uint64_t holdMin = ~std::uint64_t{0}, holdMax = 0;

    MshrAlloc
    allocate(Addr addr, Ticks now)
    {
        if (auto it = table.find(addr / line); it != table.end()) {
            ++it->second.waiters;
            ++merges;
            return MshrAlloc::Merged;
        }
        if (table.size() >= capacity) {
            ++fullStalls;
            return MshrAlloc::Full;
        }
        table.emplace(addr / line, Entry{1, now});
        ++allocations;
        peak = std::max<std::uint64_t>(peak, table.size());
        return MshrAlloc::New;
    }

    std::uint32_t
    release(Addr addr, Ticks now)
    {
        auto it = table.find(addr / line);
        if (it == table.end())
            return 0;
        const std::uint32_t waiters = it->second.waiters;
        const Ticks held =
            now > it->second.allocatedAt ? now - it->second.allocatedAt : 0;
        table.erase(it);
        ++frees;
        heldTicks += held;
        holdMin = std::min(holdMin, held);
        holdMax = std::max(holdMax, held);
        return waiters;
    }
};

} // namespace

TEST(Mshr, MatchesHashMapReference)
{
    // Seeded allocate / merge / full / release in any order over a
    // pool of lines wider than the file, compared after every call.
    for (const std::uint64_t seed : {1, 2, 3, 4}) {
        const std::uint32_t entries = seed % 2 ? 8 : 3;
        const std::uint64_t line = seed <= 2 ? 64 : 4096;
        MshrFile m("m", entries, line);
        RefMshr ref{entries, line, {}};
        astriflash::sim::Rng rng(seed);
        Ticks now = 0;
        for (int op = 0; op < 20000; ++op) {
            const Addr addr =
                rng.uniformInt(2 * entries) * line + rng.uniformInt(line);
            // Ticks jitter, so some releases declare a tick before
            // their allocation's.
            now += rng.uniformInt(50);
            const Ticks at = now + rng.uniformInt(100);
            if (rng.uniformInt(2) == 0)
                ASSERT_EQ(m.allocate(addr, at), ref.allocate(addr, at));
            else
                ASSERT_EQ(m.release(addr, at), ref.release(addr, at));

            ASSERT_EQ(m.contains(addr), ref.table.count(addr / line) != 0);
            ASSERT_EQ(m.occupancy(), ref.table.size());
            ASSERT_EQ(m.full(), ref.table.size() >= entries);
            const MshrFile::Stats &st = m.stats();
            ASSERT_EQ(st.allocations.value(), ref.allocations);
            ASSERT_EQ(st.merges.value(), ref.merges);
            ASSERT_EQ(st.fullStalls.value(), ref.fullStalls);
            ASSERT_EQ(st.frees.value(), ref.frees);
            ASSERT_EQ(st.heldTicks.value(), ref.heldTicks);
            ASSERT_EQ(st.holdTime.count(), ref.frees);
            if (ref.frees != 0) {
                ASSERT_EQ(st.holdTime.min(), ref.holdMin);
                ASSERT_EQ(st.holdTime.max(), ref.holdMax);
            }
            ASSERT_EQ(st.peakOccupancy, ref.peak);

            astriflash::sim::InvariantChecker chk;
            m.checkInvariants(chk);
            ASSERT_EQ(chk.failures(), 0u) << "seed " << seed << " op " << op;
        }
        EXPECT_GT(m.stats().merges.value(), 0u);
        EXPECT_GT(m.stats().fullStalls.value(), 0u);
        EXPECT_GT(m.stats().frees.value(), 0u);
    }
}

TEST(MshrDeath, RejectsZeroEntries)
{
    EXPECT_EXIT(MshrFile("m", 0), ::testing::ExitedWithCode(1),
                "at least one entry");
}
