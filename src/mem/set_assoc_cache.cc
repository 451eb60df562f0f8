#include "set_assoc_cache.hh"

#include <algorithm>
#include <utility>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

#include "sim/logging.hh"

namespace astriflash::mem {

namespace {

#ifdef __SSE2__

/** Four words of @p words from index @p w on, unaligned. */
[[gnu::always_inline]] inline __m128i
load4(const std::uint32_t *words, std::uint32_t w)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(words + w));
}

/**
 * Index of the first of @p n words equal to @p value, or @p n. The
 * hit mask of each block of 64 words is built whole, four words per
 * compare, so a hit's position cannot mispredict a branch; words past
 * the last group of four are compared one at a time, so nothing past
 * word n - 1 is read.
 */
[[gnu::always_inline]] inline std::uint32_t
firstEqual(const std::uint32_t *words, std::uint32_t n, std::uint32_t value)
{
    const __m128i key = _mm_set1_epi32(static_cast<int>(value));
    for (std::uint32_t base = 0; base < n; base += 64) {
        const std::uint32_t end = n - base > 64 ? base + 64 : n;
        std::uint64_t hits = 0;
        std::uint32_t w = base;
        for (; w + 4 <= end; w += 4) {
            const __m128i eq = _mm_cmpeq_epi32(load4(words, w), key);
            hits |= std::uint64_t(_mm_movemask_ps(_mm_castsi128_ps(eq)))
                << (w - base);
        }
        for (; w < end; ++w)
            hits |= std::uint64_t{words[w] == value} << (w - base);
        if (hits != 0)
            return base + static_cast<std::uint32_t>(__builtin_ctzll(hits));
    }
    return n;
}

/**
 * Least of @p n words, as unsigned integers. SSE2 compares only
 * signed lanes, so each word is biased by 2^31 first, which maps
 * unsigned order onto signed order.
 */
[[gnu::always_inline]] inline std::uint32_t
leastWord(const std::uint32_t *words, std::uint32_t n)
{
    const __m128i bias = _mm_set1_epi32(INT32_MIN);
    __m128i least = _mm_set1_epi32(INT32_MAX); // biased 2^32 - 1
    std::uint32_t w = 0;
    const auto lower = [](__m128i a, __m128i b) {
        const __m128i lt = _mm_cmplt_epi32(a, b);
        return _mm_or_si128(_mm_and_si128(lt, a), _mm_andnot_si128(lt, b));
    };
    for (; w + 4 <= n; w += 4)
        least = lower(_mm_xor_si128(load4(words, w), bias), least);
    least = lower(least, _mm_shuffle_epi32(least, _MM_SHUFFLE(1, 0, 3, 2)));
    least = lower(least, _mm_shuffle_epi32(least, _MM_SHUFFLE(2, 3, 0, 1)));
    std::uint32_t out = static_cast<std::uint32_t>(_mm_cvtsi128_si32(least)) ^
        0x80000000u;
    for (; w < n; ++w)
        out = std::min(out, words[w]);
    return out;
}

#endif // __SSE2__

} // namespace

SetAssocCache::SetAssocCache(std::string name, std::uint64_t capacity,
                             std::uint64_t line_size, std::uint32_t ways,
                             ReplacementPolicy policy, std::uint64_t seed,
                             TagSlab *slab)
    : cacheName(std::move(name)), totalCapacity(capacity), line(line_size),
      waysPerSet(ways), policy(policy),
      arr(LineAligned<std::uint32_t>(slab)), rng(seed)
{
    if (!isPowerOfTwo(line_size))
        ASTRI_FATAL("%s: line size %llu not a power of two",
                    cacheName.c_str(),
                    static_cast<unsigned long long>(line_size));
    if (line_size < 2)
        ASTRI_FATAL("%s: line size %llu below the 2-byte minimum",
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
    lineShift = log2i(line_size);
    setsPow2 = isPowerOfTwo(sets);
    setShift = setsPow2 ? log2i(sets) : 0;
    arr.resize(sets * 2 * ways);
    flushAll();
}

std::size_t
SetAssocCache::storageBytes(std::uint64_t capacity, std::uint64_t line_size,
                            std::uint32_t ways)
{
    // The constructor's resize() allocates exactly one tag and one
    // meta word per way.
    const std::uint64_t way_bytes = std::uint64_t{ways} * line_size;
    const std::uint64_t sets = way_bytes != 0 ? capacity / way_bytes : 0;
    return TagSlab::spanBytes(static_cast<std::size_t>(
        sets * 2 * ways * sizeof(std::uint32_t)));
}

SetAssocCache::Slot
SetAssocCache::locate(Addr addr) const
{
    const std::uint64_t lineNum = addr >> lineShift;
    const std::uint64_t tag = lineNum >> setShift;
    if (tag >= kInvalidTag) [[unlikely]]
        tagOverflow(addr);
    return {SetIdx(setsPow2 ? lineNum & (sets - 1) : lineNum % sets),
            static_cast<std::uint32_t>(tag)};
}

Addr
SetAssocCache::addrOf(std::uint32_t tag, SetIdx set) const
{
    // A power-of-two geometry keeps the set bits out of the tag; any
    // other keeps the whole line number in it.
    Addr lineNum = Addr{tag} << setShift;
    if (setsPow2)
        // aflint-allow-next-line(AF011)
        lineNum |= set.raw();
    return lineNum << lineShift;
}

void
SetAssocCache::tagOverflow(Addr addr) const
{
    // Only reachable when lineShift + setShift <= 32, so the limit
    // fits in 64 bits.
    const Addr limit = Addr{kInvalidTag} << (lineShift + setShift);
    ASTRI_FATAL("%s: address %#llx has no 32-bit tag (addresses must "
                "be below %#llx)",
                cacheName.c_str(), static_cast<unsigned long long>(addr),
                static_cast<unsigned long long>(limit));
}

const std::uint32_t *
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
    auto *tags = const_cast<std::uint32_t *>(setWords(set));
    return {tags, tags + waysPerSet};
}

/** Way holding @p tag in the set at @p tags, or waysPerSet. */
[[gnu::always_inline]] inline std::uint32_t
SetAssocCache::findWay(const std::uint32_t *tags, std::uint32_t tag) const
{
#ifdef __SSE2__
    return firstEqual(tags, waysPerSet, tag);
#else
    // A tag is in a set at most once and never equals an empty way's,
    // so selecting every match, with no early exit, finds the same
    // way; the compiler turns the select into a conditional move, and
    // a hit's position cannot mispredict a branch.
    std::uint32_t way = waysPerSet;
    for (std::uint32_t w = 0; w < waysPerSet; ++w)
        way = tags[w] == tag ? w : way;
    return way;
#endif
}

void
SetAssocCache::tick()
{
    if (stamp == kMaxStamp) [[unlikely]]
        renumber();
    ++stamp;
}

void
SetAssocCache::renumber()
{
    // Victims depend only on the order of the valid stamps within a
    // set, which ranks keep; every rank is at most waysPerSet, below
    // any stamp the restarted clock hands out.
    std::vector<std::uint32_t> ranked(waysPerSet);
    for (std::uint64_t s = 0; s < sets; ++s) {
        const SetRef set = setAt(SetIdx(s));
        for (std::uint32_t w = 0; w < waysPerSet; ++w) {
            std::uint32_t rank = 1;
            for (std::uint32_t v = 0; v < waysPerSet; ++v) {
                rank += set.tags[v] != kInvalidTag &&
                    (set.meta[v] >> 1) < (set.meta[w] >> 1);
            }
            ranked[w] = set.tags[w] == kInvalidTag
                ? 0 : rank << 1 | (set.meta[w] & kDirtyBit);
        }
        std::copy(ranked.begin(), ranked.end(), set.meta);
    }
    stamp = waysPerSet;
}

void
SetAssocCache::touch(std::uint32_t &meta, bool dirty) const
{
    if (policy == ReplacementPolicy::Lru)
        meta = stamp << 1 | (meta & kDirtyBit);
    if (dirty)
        meta |= kDirtyBit;
}

bool
SetAssocCache::lookup(Addr addr, bool write)
{
    const Slot slot = locate(addr);
    tick();
    const SetRef set = setAt(slot.set);
    const std::uint32_t w = findWay(set.tags, slot.tag);
    if (w == waysPerSet) {
        rememberMiss(addr, slot);
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
    const Slot slot = locate(addr);
    return findWay(setWords(slot.set), slot.tag) != waysPerSet;
}

/** Way to fill in @p set. */
[[gnu::always_inline]] inline std::uint32_t
SetAssocCache::victimWay(SetRef set)
{
    // The first way holding the least meta word. An empty way's word
    // is 0 and a valid way's at least 2 (stamp >= 1,
    // checkInvariants()), so that is the first empty way when there
    // is one. Otherwise LRU and FIFO both evict the smallest stamp:
    // the stamps of valid ways are distinct, so the dirty bit below
    // them never decides.
#ifdef __SSE2__
    const std::uint32_t least = leastWord(set.meta, waysPerSet);
    const std::uint32_t way = firstEqual(set.meta, waysPerSet, least);
#else
    std::uint32_t way = 0;
    std::uint32_t least = set.meta[0];
    for (std::uint32_t w = 1; w < waysPerSet; ++w) {
        const bool lower = set.meta[w] < least;
        way = lower ? w : way;
        least = lower ? set.meta[w] : least;
    }
#endif
    if (policy == ReplacementPolicy::Random && least != 0)
        return static_cast<std::uint32_t>(rng.uniformInt(waysPerSet));
    return way;
}

std::optional<CacheLine>
SetAssocCache::fill(Addr addr, bool dirty)
{
    // The line that missed last, unfilled since, is absent: its slot
    // is known and no way holds its tag.
    const bool remembered = addr >> lineShift == missLine;
    const Slot slot = remembered ? missSlot : locate(addr);
    tick();
    const SetRef set = setAt(slot.set);
    if (remembered) {
        missLine = kNoLine;
    } else if (const std::uint32_t w = findWay(set.tags, slot.tag);
               w != waysPerSet) {
        // Refill of a resident line refreshes recency and dirtiness.
        touch(set.meta[w], dirty);
        return std::nullopt;
    }
    const std::uint32_t w = victimWay(set);
    std::optional<CacheLine> evicted;
    if (set.tags[w] != kInvalidTag) {
        const bool victimDirty = (set.meta[w] & kDirtyBit) != 0;
        evicted = CacheLine{addrOf(set.tags[w], slot.set), victimDirty};
        statsData.evictions.inc();
        if (victimDirty)
            statsData.dirtyEvictions.inc();
    } else {
        ++validCount;
    }
    set.tags[w] = slot.tag;
    set.meta[w] = stamp << 1 | (dirty ? kDirtyBit : 0);
    statsData.fills.inc();
    return evicted;
}

std::optional<CacheLine>
SetAssocCache::invalidate(Addr addr)
{
    const Slot slot = locate(addr);
    const SetRef set = setAt(slot.set);
    const std::uint32_t w = findWay(set.tags, slot.tag);
    if (w == waysPerSet)
        return std::nullopt;
    const CacheLine out{addrOf(slot.tag, slot.set),
                        (set.meta[w] & kDirtyBit) != 0};
    set.tags[w] = kInvalidTag;
    set.meta[w] = 0;
    --validCount;
    statsData.invalidations.inc();
    return out;
}

bool
SetAssocCache::markDirty(Addr addr)
{
    const Slot slot = locate(addr);
    const SetRef set = setAt(slot.set);
    const std::uint32_t w = findWay(set.tags, slot.tag);
    if (w == waysPerSet) {
        rememberMiss(addr, slot);
        return false;
    }
    set.meta[w] |= kDirtyBit;
    return true;
}

void
SetAssocCache::flushAll()
{
    const std::size_t setWordCount = 2 * std::size_t{waysPerSet};
    std::uint32_t *const end = arr.data() + arr.size();
    for (std::uint32_t *tags = arr.data(); tags != end;
         tags += setWordCount) {
        std::fill_n(tags, waysPerSet, kInvalidTag);
        std::fill_n(tags + waysPerSet, waysPerSet, std::uint32_t{0});
    }
    validCount = 0;
}

} // namespace astriflash::mem
