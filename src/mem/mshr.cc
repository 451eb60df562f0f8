#include "mshr.hh"

#include "sim/logging.hh"

namespace astriflash::mem {

MshrFile::MshrFile(std::string name, std::uint32_t entries,
                   std::uint64_t line_size)
    : fileName(std::move(name)), capacity(entries), line(line_size)
{
    if (entries == 0)
        ASTRI_FATAL("%s: MSHR file needs at least one entry",
                    fileName.c_str());
    if (!isPowerOfTwo(line_size))
        ASTRI_FATAL("%s: line size must be a power of two",
                    fileName.c_str());
}

std::size_t
MshrFile::indexOf(BlockNum block) const
{
    std::size_t i = 0;
    while (i < table.size() && table[i].block != block)
        ++i;
    return i;
}

MshrAlloc
MshrFile::allocate(Addr addr, sim::Ticks now)
{
    const BlockNum key = blockNumber(addr, line);
    if (const std::size_t i = indexOf(key); i != table.size()) {
        ++table[i].waiters;
        statsData.merges.inc();
        return MshrAlloc::Merged;
    }
    if (table.size() >= capacity) {
        statsData.fullStalls.inc();
        return MshrAlloc::Full;
    }
    table.push_back(Entry{key, 1, now});
    statsData.allocations.inc();
    if (table.size() > statsData.peakOccupancy)
        statsData.peakOccupancy = table.size();
    return MshrAlloc::New;
}

std::uint32_t
MshrFile::release(Addr addr, sim::Ticks now)
{
    const std::size_t i = indexOf(blockNumber(addr, line));
    if (i == table.size())
        return 0;
    const std::uint32_t waiters = table[i].waiters;
    const sim::Ticks held =
        now > table[i].allocatedAt ? now - table[i].allocatedAt : 0;
    table[i] = table.back();
    table.pop_back();
    statsData.frees.inc();
    statsData.heldTicks.inc(held);
    statsData.holdTime.sample(held);
    return waiters;
}

bool
MshrFile::contains(Addr addr) const
{
    return indexOf(blockNumber(addr, line)) != table.size();
}

} // namespace astriflash::mem
