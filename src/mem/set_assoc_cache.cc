#include "set_assoc_cache.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace astriflash::mem {

SetAssocCache::SetAssocCache(std::string name, std::uint64_t capacity,
                             std::uint64_t line_size, std::uint32_t ways,
                             ReplacementPolicy policy, std::uint64_t seed)
    : cacheName(std::move(name)), totalCapacity(capacity), line(line_size),
      waysPerSet(ways), policy(policy), rng(seed)
{
    if (!isPowerOfTwo(line_size))
        ASTRI_FATAL("%s: line size %llu not a power of two",
                    cacheName.c_str(),
                    static_cast<unsigned long long>(line_size));
    if (line_size < 2)
        ASTRI_FATAL("%s: line size %llu below 2 leaves no unaligned "
                    "tag to mark empty ways",
                    cacheName.c_str(),
                    static_cast<unsigned long long>(line_size));
    if (ways == 0)
        ASTRI_FATAL("%s: associativity must be >= 1", cacheName.c_str());
    if (capacity % (static_cast<std::uint64_t>(ways) * line_size) != 0)
        ASTRI_FATAL("%s: capacity %llu not divisible by ways*line",
                    cacheName.c_str(),
                    static_cast<unsigned long long>(capacity));
    sets = capacity / (static_cast<std::uint64_t>(ways) * line_size);
    if (sets == 0)
        ASTRI_FATAL("%s: zero sets (capacity too small)",
                    cacheName.c_str());
    lineMask = ~(line_size - 1);
    lineShift = log2i(line_size);
    setsPow2 = isPowerOfTwo(sets);
    arr.resize(sets * 2 * ways);
    flushAll();
}

SetIdx
SetAssocCache::setIndex(Addr addr) const
{
    const std::uint64_t lineNum = addr >> lineShift;
    return SetIdx(setsPow2 ? lineNum & (sets - 1) : lineNum % sets);
}

const std::uint64_t *
SetAssocCache::setWords(SetIdx set) const
{
    // Row-major [set][tags, meta] flattening is the one sanctioned
    // escape to raw indices for this array.
    // aflint-allow-next-line(AF011)
    return arr.data() + set.raw() * 2 * waysPerSet;
}

SetAssocCache::SetRef
SetAssocCache::setAt(SetIdx set)
{
    auto *tags = const_cast<std::uint64_t *>(setWords(set));
    return {tags, tags + waysPerSet};
}

/** Way holding @p aligned in the set at @p tags, or waysPerSet. */
std::uint32_t
SetAssocCache::findWay(const std::uint64_t *tags, Addr aligned) const
{
    for (std::uint32_t w = 0; w < waysPerSet; ++w) {
        if (tags[w] == aligned)
            return w;
    }
    return waysPerSet;
}

void
SetAssocCache::touch(std::uint64_t &meta, bool dirty) const
{
    if (policy == ReplacementPolicy::Lru)
        meta = stamp << 1 | (meta & kDirtyBit);
    if (dirty)
        meta |= kDirtyBit;
}

bool
SetAssocCache::lookup(Addr addr, bool write)
{
    const Addr aligned = addr & lineMask;
    ++stamp;
    const SetRef set = setAt(setIndex(aligned));
    const std::uint32_t w = findWay(set.tags, aligned);
    if (w == waysPerSet) {
        statsData.misses.inc();
        return false;
    }
    touch(set.meta[w], write);
    statsData.hits.inc();
    return true;
}

bool
SetAssocCache::access(Addr addr)
{
    return lookup(addr, false);
}

bool
SetAssocCache::accessWrite(Addr addr)
{
    return lookup(addr, true);
}

bool
SetAssocCache::contains(Addr addr) const
{
    const Addr aligned = addr & lineMask;
    return findWay(setWords(setIndex(aligned)), aligned) != waysPerSet;
}

/** Way to fill in @p set. */
std::uint32_t
SetAssocCache::victimWay(SetRef set)
{
    // Prefer the first empty way. Otherwise LRU and FIFO both evict
    // the smallest stamp: the stamps of valid ways are distinct, so
    // the dirty bit below them never decides.
    std::uint32_t oldest = 0;
    for (std::uint32_t w = 0; w < waysPerSet; ++w) {
        if (set.tags[w] == kInvalidTag)
            return w;
        if (set.meta[w] < set.meta[oldest])
            oldest = w;
    }
    if (policy == ReplacementPolicy::Random)
        return static_cast<std::uint32_t>(rng.uniformInt(waysPerSet));
    return oldest;
}

std::optional<CacheLine>
SetAssocCache::fill(Addr addr, bool dirty)
{
    const Addr aligned = addr & lineMask;
    ++stamp;
    const SetRef set = setAt(setIndex(aligned));
    if (const std::uint32_t w = findWay(set.tags, aligned);
        w != waysPerSet) {
        // Refill of a resident line refreshes recency and dirtiness.
        touch(set.meta[w], dirty);
        return std::nullopt;
    }
    const std::uint32_t w = victimWay(set);
    std::optional<CacheLine> evicted;
    if (set.tags[w] != kInvalidTag) {
        const bool victimDirty = (set.meta[w] & kDirtyBit) != 0;
        evicted = CacheLine{set.tags[w], victimDirty};
        statsData.evictions.inc();
        if (victimDirty)
            statsData.dirtyEvictions.inc();
    } else {
        ++validCount;
    }
    set.tags[w] = aligned;
    set.meta[w] = stamp << 1 | (dirty ? kDirtyBit : 0);
    statsData.fills.inc();
    return evicted;
}

std::optional<CacheLine>
SetAssocCache::invalidate(Addr addr)
{
    const Addr aligned = addr & lineMask;
    const SetRef set = setAt(setIndex(aligned));
    const std::uint32_t w = findWay(set.tags, aligned);
    if (w == waysPerSet)
        return std::nullopt;
    const CacheLine out{aligned, (set.meta[w] & kDirtyBit) != 0};
    set.tags[w] = kInvalidTag;
    set.meta[w] = 0;
    --validCount;
    statsData.invalidations.inc();
    return out;
}

bool
SetAssocCache::markDirty(Addr addr)
{
    const Addr aligned = addr & lineMask;
    const SetRef set = setAt(setIndex(aligned));
    const std::uint32_t w = findWay(set.tags, aligned);
    if (w == waysPerSet)
        return false;
    set.meta[w] |= kDirtyBit;
    return true;
}

void
SetAssocCache::flushAll()
{
    const std::size_t setWordCount = 2 * std::size_t{waysPerSet};
    std::uint64_t *const end = arr.data() + arr.size();
    for (std::uint64_t *tags = arr.data(); tags != end;
         tags += setWordCount) {
        std::fill_n(tags, waysPerSet, kInvalidTag);
        std::fill_n(tags + waysPerSet, waysPerSet, std::uint64_t{0});
    }
    validCount = 0;
}

} // namespace astriflash::mem
