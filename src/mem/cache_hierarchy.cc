#include "cache_hierarchy.hh"

#include "sim/logging.hh"

namespace astriflash::mem {

std::vector<CacheLevelConfig>
defaultHierarchyConfig()
{
    using sim::nanoseconds;
    using sim::picoseconds;
    // ARM Cortex-A76-like: 64 KB L1D (4-way, ~1.6 ns), 512 KB private
    // L2 (8-way, ~3.6 ns), 1 MB LLC slice (16-way, ~12 ns).
    return {
        {"l1d", 64 * 1024, kBlockSize, 4, picoseconds(1600)},
        {"l2", 512 * 1024, kBlockSize, 8, picoseconds(3600)},
        {"llc", 1024 * 1024, kBlockSize, 16, nanoseconds(12)},
    };
}

CacheHierarchy::CacheHierarchy(std::string name,
                               const std::vector<CacheLevelConfig> &cfgs,
                               TagSlab *slab)
    : hierName(std::move(name))
{
    if (cfgs.empty())
        ASTRI_FATAL("%s: hierarchy needs at least one level",
                    hierName.c_str());
    for (const auto &cfg : cfgs) {
        levels.push_back(std::make_unique<SetAssocCache>(
            hierName + "." + cfg.name, cfg.capacity, cfg.lineSize,
            cfg.ways, slab));
        levelLatency.push_back(cfg.accessLatency);
        missLatency += cfg.accessLatency;
    }
}

std::size_t
CacheHierarchy::storageBytes(const std::vector<CacheLevelConfig> &cfgs)
{
    std::size_t bytes = 0;
    for (const auto &cfg : cfgs)
        bytes += SetAssocCache::storageBytes(cfg.capacity, cfg.lineSize,
                                             cfg.ways);
    return bytes;
}

void
CacheHierarchy::cascadeVictim(std::size_t from_level,
                              const CacheLine &victim)
{
    if (!victim.dirty)
        return;
    CacheLine line = victim;
    for (std::size_t lvl = from_level + 1; lvl < levels.size(); ++lvl) {
        if (levels[lvl]->markDirty(line.tag_addr))
            return; // absorbed by a lower level that holds the block
        const auto next = levels[lvl]->fill(line.tag_addr, true);
        if (!next || !next->dirty)
            return;
        line = *next;
    }
    lastWritebacks.push_back(line.tag_addr);
    statsData.llcWritebacks.inc();
}

HierarchyAccess
CacheHierarchy::access(Addr addr, bool is_write)
{
    lastWritebacks.clear();
    statsData.accesses.inc();
    HierarchyAccess out;
    for (std::size_t lvl = 0; lvl < levels.size(); ++lvl) {
        out.latency += levelLatency[lvl];
        const bool hit = is_write ? levels[lvl]->accessWrite(addr)
                                  : levels[lvl]->access(addr);
        if (hit) {
            out.hitLevel = static_cast<int>(lvl);
            // Refill the levels above the hit.
            for (std::size_t up = 0; up < lvl; ++up) {
                auto victim = levels[up]->fill(addr, is_write);
                if (victim)
                    cascadeVictim(up, *victim);
            }
            return out;
        }
    }
    out.llcMiss = true;
    statsData.llcMisses.inc();
    return out;
}

void
CacheHierarchy::fillFromMemory(Addr addr, bool is_write)
{
    lastWritebacks.clear();
    for (std::size_t lvl = 0; lvl < levels.size(); ++lvl) {
        auto victim = levels[lvl]->fill(addr, is_write);
        if (victim)
            cascadeVictim(lvl, *victim);
    }
}

bool
CacheHierarchy::invalidateBlock(Addr addr)
{
    bool was_dirty = false;
    for (auto &level : levels) {
        if (auto line = level->invalidate(addr))
            was_dirty = was_dirty || line->dirty;
    }
    return was_dirty;
}

void
CacheHierarchy::invalidatePage(Addr addr)
{
    const Addr base = pageBase(addr);
    for (Addr a = base; a < base + kPageSize; a += kBlockSize)
        invalidateBlock(a);
}

void
CacheHierarchy::regStats(sim::StatRegistry &reg) const
{
    reg.registerCounter("accesses", &statsData.accesses,
                        "demand accesses entering the hierarchy");
    reg.registerCounter("llc_misses", &statsData.llcMisses,
                        "accesses missing every on-chip level");
    reg.registerCounter("llc_writebacks", &statsData.llcWritebacks,
                        "dirty blocks written back below the LLC");
    mshrFile.regStats(reg.subRegistry("mshr"));
    for (const auto &level : levels) {
        // Level instances are named "<hier>.<level>"; the child registry
        // only wants the trailing level component.
        const std::string &full = level->name();
        const auto dot = full.rfind('.');
        const std::string leaf =
            dot == std::string::npos ? full : full.substr(dot + 1);
        level->regStats(reg.subRegistry(leaf));
    }
}

} // namespace astriflash::mem
