#include "tlb.hh"

namespace astriflash::mem {

Tlb::Tlb(std::string name, const Config &config, TagSlab *slab)
    : cfg(config),
      l1(name + ".l1", static_cast<std::uint64_t>(config.l1Entries) *
                           config.pageSize,
         config.pageSize, config.l1Ways, slab),
      l2(name + ".l2", static_cast<std::uint64_t>(config.l2Entries) *
                           config.pageSize,
         config.pageSize, config.l2Ways, slab)
{
}

std::size_t
Tlb::storageBytes(const Config &config)
{
    return SetAssocCache::storageBytes(
               std::uint64_t{config.l1Entries} * config.pageSize,
               config.pageSize, config.l1Ways) +
           SetAssocCache::storageBytes(
               std::uint64_t{config.l2Entries} * config.pageSize,
               config.pageSize, config.l2Ways);
}

Tlb::Result
Tlb::lookup(Addr vaddr)
{
    Result res;
    if (l1.access(vaddr)) {
        statsData.l1Hits.inc();
        return res; // L1 hit folds into the core's load latency.
    }
    res.latency += cfg.l2Latency;
    if (l2.access(vaddr)) {
        statsData.l2Hits.inc();
        l1.fill(vaddr);
        return res;
    }
    statsData.misses.inc();
    res.miss = true;
    return res;
}

void
Tlb::fill(Addr vaddr)
{
    l1.fill(vaddr);
    l2.fill(vaddr);
}

void
Tlb::invalidate(Addr vaddr)
{
    l1.invalidate(vaddr);
    l2.invalidate(vaddr);
    statsData.shootdowns.inc();
}

void
Tlb::flushAll()
{
    l1.flushAll();
    l2.flushAll();
}

} // namespace astriflash::mem
