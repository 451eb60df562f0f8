/**
 * @file
 * On-chip cache hierarchy (L1D + L2 + shared-LLC slice).
 *
 * The hierarchy is timing-directed and synchronous: a lookup walks the
 * levels, accumulates per-level access latency, and maintains the tag
 * arrays (fills on the refill path, dirty-writeback cascade on
 * eviction). DRAM-cache/flash time is added by the caller, which then
 * installs the refilled block via fillFromMemory().
 *
 * A System keeps every core's level arrays in one TagSlab
 * (tag_slab.hh), sized by storageBytes(), so an LLC miss walks sets
 * on huge host pages; standalone hierarchies use the heap. The MSHR
 * file backing LLC misses records hold times only (mshr.hh).
 */

#ifndef ASTRIFLASH_MEM_CACHE_HIERARCHY_HH
#define ASTRIFLASH_MEM_CACHE_HIERARCHY_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/ticks.hh"

#include "address.hh"
#include "mshr.hh"
#include "set_assoc_cache.hh"

namespace astriflash::mem {

/** Configuration of one cache level. */
struct CacheLevelConfig {
    std::string name;
    std::uint64_t capacity = 0;
    std::uint64_t lineSize = kBlockSize;
    std::uint32_t ways = 8;
    sim::Ticks accessLatency = 0; ///< Lookup latency of this level.
};

/** Result of a hierarchy lookup. */
struct HierarchyAccess {
    bool llcMiss = false;   ///< True if no level held the block.
    int hitLevel = -1;      ///< 0-based level index of the hit, or -1.
    sim::Ticks latency = 0; ///< Accumulated on-chip lookup latency.
};

/**
 * A per-core cache hierarchy.
 *
 * The paper models ARM A76 cores with private L1/L2 and a 1 MB LLC
 * slice per core; we instantiate one hierarchy per core accordingly
 * (LLC sharing effects are secondary to the DRAM-cache behaviour under
 * page-grained Zipfian traffic).
 */
class CacheHierarchy
{
  public:
    struct Stats {
        sim::Counter accesses;
        sim::Counter llcMisses;
        sim::Counter llcWritebacks; ///< Dirty blocks pushed to memory.
    };

    /**
     * @param slab  Where every level's tag array lives, or null for
     *        the heap; see SetAssocCache.
     */
    CacheHierarchy(std::string name,
                   const std::vector<CacheLevelConfig> &levels,
                   TagSlab *slab = nullptr);

    /** Slab bytes the tag arrays of a hierarchy of @p levels take. */
    static std::size_t
    storageBytes(const std::vector<CacheLevelConfig> &levels);

    /**
     * Look up @p addr.
     *
     * On a hit, upper levels are refilled. On an LLC miss the caller is
     * responsible for fetching the block from memory and then calling
     * fillFromMemory().
     */
    HierarchyAccess access(Addr addr, bool is_write);

    /**
     * Install a block that returned from memory into all levels.
     * Dirty LLC victims displaced by the install are appended to
     * @ref lastWritebacks (and counted).
     */
    void fillFromMemory(Addr addr, bool is_write);

    /**
     * Invalidate the block everywhere (DRAM-cache page eviction makes
     * on-chip copies stale in a real system; we drop them).
     * @return true if any level held it dirty.
     */
    bool invalidateBlock(Addr addr);

    /** Invalidate every block of the 4 KB page containing @p addr. */
    void invalidatePage(Addr addr);

    /** Dirty block addresses displaced to memory by the last call. */
    const std::vector<Addr> &writebacks() const { return lastWritebacks; }

    /**
     * Host prefetch hint for the set @p addr maps to in every level;
     * see SetAssocCache::prefetch().
     */
    [[gnu::always_inline]] void
    prefetch(Addr addr) const
    {
        for (const auto &level : levels)
            level->prefetch(addr);
    }

    /** Total lookup latency when every level misses. */
    sim::Ticks fullMissLatency() const { return missLatency; }

    std::size_t numLevels() const { return levels.size(); }
    const SetAssocCache &level(std::size_t i) const { return *levels[i]; }
    SetAssocCache &level(std::size_t i) { return *levels[i]; }
    const Stats &stats() const { return statsData; }

    /**
     * The on-chip MSHR file backing this hierarchy's LLC misses. It
     * records hold times only (the timing model never blocks on it):
     * the paper's §IV-B comparison is how long entries stay pinned,
     * not a stall model.
     */
    MshrFile &mshrs() { return mshrFile; }
    const MshrFile &mshrs() const { return mshrFile; }

    /**
     * Register hierarchy stats into @p reg; each level lands in a child
     * registry named after it (l1d/l2/llc).
     */
    void regStats(sim::StatRegistry &reg) const;

    /** Audit every level's tag array and the MSHR file. */
    void
    checkInvariants(sim::InvariantChecker &chk) const
    {
        for (const auto &level : levels)
            level->checkInvariants(chk);
        mshrFile.checkInvariants(chk);
    }

  private:
    /**
     * Push a dirty victim evicted from level @p from_level into the
     * next level down, cascading further evictions; victims leaving the
     * LLC are recorded as memory writebacks.
     */
    void cascadeVictim(std::size_t from_level, const CacheLine &victim);

    std::string hierName;
    MshrFile mshrFile;
    std::vector<std::unique_ptr<SetAssocCache>> levels;
    std::vector<sim::Ticks> levelLatency;
    sim::Ticks missLatency = 0;
    std::vector<Addr> lastWritebacks;
    Stats statsData;
};

/** Default three-level hierarchy matching the paper's Table I. */
std::vector<CacheLevelConfig> defaultHierarchyConfig();

} // namespace astriflash::mem

#endif // ASTRIFLASH_MEM_CACHE_HIERARCHY_HH
