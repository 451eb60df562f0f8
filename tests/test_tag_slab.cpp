/**
 * @file
 * Tests for the tag-array slab: a System's slab is sized exactly for
 * its cores' real geometries, spans are aligned and disjoint, running
 * out is fatal, slab-backed arrays behave as heap-backed ones, and
 * under AddressSanitizer the bytes around each span stay poisoned.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "core/system.hh"
#include "mem/cache_hierarchy.hh"
#include "mem/tag_slab.hh"
#include "mem/tlb.hh"
#include "sim/rng.hh"

#ifdef ASTRIFLASH_ASAN
#include <sanitizer/asan_interface.h>
#endif

using namespace astriflash;
using mem::TagSlab;

TEST(TagSlab, SystemUsesExactlyItsSlab)
{
    // The size formula in System must track the geometries SimCore
    // really builds; any drift leaves bytes unused or runs out.
    for (const std::uint32_t cores : {core::SystemConfig{}.cores, 256u}) {
        core::SystemConfig cfg;
        cfg.cores = cores;
        core::System sys(cfg);
        EXPECT_GT(sys.tagSlab().size(), 0u);
        EXPECT_EQ(sys.tagSlab().used(), sys.tagSlab().size())
            << cores << " cores";
    }
}

TEST(TagSlab, SpansAreAlignedAndDisjoint)
{
    const std::vector<std::size_t> sizes{1, 63, 64, 65, 200, 4096, 8};
    std::size_t total = 0;
    for (const std::size_t n : sizes)
        total += TagSlab::spanBytes(n);
    TagSlab slab(total);

    std::vector<std::pair<std::uintptr_t, std::uintptr_t>> spans;
    for (const std::size_t n : sizes) {
        void *p = slab.allocate(n);
        const auto at = reinterpret_cast<std::uintptr_t>(p);
        EXPECT_EQ(at % TagSlab::kSpanAlign, 0u) << n << " bytes";
        std::memset(p, 0xab, n);
        spans.emplace_back(at, at + n);
    }
    EXPECT_EQ(slab.used(), slab.size());
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i)
        EXPECT_LE(spans[i - 1].second + TagSlab::kGuard, spans[i].first);
}

TEST(TagSlab, SlabBackedHierarchyMatchesHeapBacked)
{
    const auto levels = mem::defaultHierarchyConfig();
    TagSlab slab(mem::CacheHierarchy::storageBytes(levels));
    mem::CacheHierarchy heap("h", levels);
    mem::CacheHierarchy slabbed("h", levels, &slab);
    EXPECT_EQ(slab.used(), slab.size());

    sim::Rng rng(9);
    for (int i = 0; i < 200000; ++i) {
        const mem::Addr a = rng.uniformInt((8 << 20) / 64) * 64;
        const bool write = rng.uniformInt(4) == 0;
        const mem::HierarchyAccess x = heap.access(a, write);
        const mem::HierarchyAccess y = slabbed.access(a, write);
        ASSERT_EQ(x.hitLevel, y.hitLevel) << "access " << i;
        if (x.llcMiss) {
            heap.fillFromMemory(a, write);
            slabbed.fillFromMemory(a, write);
        }
        ASSERT_EQ(heap.writebacks(), slabbed.writebacks()) << "access " << i;
    }
    for (std::size_t l = 0; l < heap.numLevels(); ++l) {
        EXPECT_EQ(heap.level(l).stats().evictions.value(),
                  slabbed.level(l).stats().evictions.value());
        EXPECT_EQ(heap.level(l).validLines(), slabbed.level(l).validLines());
    }
}

TEST(TagSlabDeath, RunningOutIsFatal)
{
    EXPECT_EXIT(
        {
            TagSlab slab(TagSlab::spanBytes(128));
            slab.allocate(128);
            slab.allocate(1);
        },
        ::testing::ExitedWithCode(1),
        "tag slab: 1 bytes requested .* only 0 of [0-9]+ remain");
}

TEST(TagSlabDeath, GuardsPoisonOverruns)
{
#ifndef ASTRIFLASH_ASAN
    GTEST_SKIP() << "the slab poisons only under AddressSanitizer";
#else
    TagSlab slab(2 * TagSlab::spanBytes(64) + 256);
    auto *first = static_cast<char *>(slab.allocate(64));
    auto *second = static_cast<char *>(slab.allocate(64));
    EXPECT_FALSE(__asan_address_is_poisoned(first));
    EXPECT_FALSE(__asan_address_is_poisoned(first + 63));
    EXPECT_TRUE(__asan_address_is_poisoned(first + 64));
    EXPECT_TRUE(__asan_address_is_poisoned(second + 64));
    // Bytes not yet handed out stay poisoned too.
    EXPECT_TRUE(__asan_address_is_poisoned(second + 64 + TagSlab::kGuard));
    EXPECT_DEATH(static_cast<volatile char *>(first)[64] = 1,
                 "use-after-poison");
#endif
}
