#include "set_assoc_cache.hh"

#include <algorithm>
#include <bit>
#include <utility>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

#include "sim/logging.hh"

namespace astriflash::mem {

namespace {

#ifdef __SSE2__

/** Four 32-bit words of @p words from index @p w on, unaligned. */
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

/** Eight 16-bit words of @p words from index @p w on, unaligned. */
[[gnu::always_inline]] inline __m128i
load8(const std::uint16_t *words, std::uint32_t w)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(words + w));
}

/** Four 16-bit words of @p words from index @p w on, in the low half. */
[[gnu::always_inline]] inline __m128i
load4(const std::uint16_t *words, std::uint32_t w)
{
    return _mm_loadl_epi64(reinterpret_cast<const __m128i *>(words + w));
}

/**
 * Index of the first of @p n 16-bit words equal to @p value, or @p n:
 * firstEqual() for meta words. Each compare leaves two mask bits per
 * word, so a 64-bit hit mask covers a block of 32 words; a group of
 * four is compared from one 8-byte load, and the last words one at a
 * time, so nothing past word n - 1 is read.
 */
[[gnu::always_inline]] inline std::uint32_t
firstEqual(const std::uint16_t *words, std::uint32_t n, std::uint16_t value)
{
    const __m128i key = _mm_set1_epi16(static_cast<short>(value));
    const auto mask = [&](__m128i v) {
        return std::uint64_t(
            _mm_movemask_epi8(_mm_cmpeq_epi16(v, key)));
    };
    for (std::uint32_t base = 0; base < n; base += 32) {
        const std::uint32_t end = n - base > 32 ? base + 32 : n;
        std::uint64_t hits = 0;
        std::uint32_t w = base;
        for (; w + 8 <= end; w += 8)
            hits |= mask(load8(words, w)) << 2 * (w - base);
        if (w + 4 <= end) {
            hits |= (mask(load4(words, w)) & 0xff) << 2 * (w - base);
            w += 4;
        }
        for (; w < end; ++w)
            hits |= std::uint64_t{words[w] == value} << 2 * (w - base);
        if (hits != 0)
            return base +
                static_cast<std::uint32_t>(__builtin_ctzll(hits)) / 2;
    }
    return n;
}

/**
 * Least of @p n 16-bit words, as unsigned integers. SSE2 has only a
 * signed 16-bit minimum, so each word is biased by 2^15 first, which
 * maps unsigned order onto signed order. A group of four is loaded
 * twice over into one register, which leaves the minimum unchanged.
 */
[[gnu::always_inline]] inline std::uint16_t
leastWord(const std::uint16_t *words, std::uint32_t n)
{
    const __m128i bias = _mm_set1_epi16(INT16_MIN);
    __m128i least = _mm_set1_epi16(INT16_MAX); // biased 2^16 - 1
    std::uint32_t w = 0;
    for (; w + 8 <= n; w += 8)
        least = _mm_min_epi16(least, _mm_xor_si128(load8(words, w), bias));
    if (w + 4 <= n) {
        const __m128i four = load4(words, w);
        least = _mm_min_epi16(
            least, _mm_xor_si128(_mm_unpacklo_epi64(four, four), bias));
        w += 4;
    }
    least = _mm_min_epi16(
        least, _mm_shuffle_epi32(least, _MM_SHUFFLE(1, 0, 3, 2)));
    least = _mm_min_epi16(
        least, _mm_shuffle_epi32(least, _MM_SHUFFLE(2, 3, 0, 1)));
    least = _mm_min_epi16(
        least, _mm_shufflelo_epi16(least, _MM_SHUFFLE(2, 3, 0, 1)));
    std::uint16_t out =
        static_cast<std::uint16_t>(_mm_cvtsi128_si32(least) ^ 0x8000);
    for (; w < n; ++w)
        out = std::min(out, words[w]);
    return out;
}

#endif // __SSE2__

} // namespace

SetAssocCache::SetAssocCache(std::string name, std::uint64_t capacity,
                             std::uint64_t line_size, std::uint32_t ways,
                             TagSlab *slab)
    : cacheName(std::move(name)), totalCapacity(capacity), line(line_size),
      waysPerSet(ways), setStride(strideOf(ways)),
      arr(LineAligned<std::byte>(slab))
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
    if (ways >= kMaxStamp)
        ASTRI_FATAL("%s: associativity %u must be below %u",
                    cacheName.c_str(), ways, kMaxStamp);
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
    arr.resize(sets * setStride);
    if (sets > kClockSets)
        clocks.assign((sets + kClockSets - 1) / kClockSets, 0);
    flushAll();
}

std::size_t
SetAssocCache::strideOf(std::uint32_t ways)
{
    // Sets start on 64-byte host lines when under 64 bytes, so they
    // never cross one, and on 32-byte boundaries otherwise, so a set
    // of B bytes touches ceil(B / 64) lines wherever it starts.
    const std::size_t bytes = std::size_t{ways} * kWayBytes;
    if (bytes < sim::kHostLine)
        return std::bit_ceil(bytes);
    return (bytes + sim::kHostLine / 2 - 1) / (sim::kHostLine / 2) *
        (sim::kHostLine / 2);
}

std::size_t
SetAssocCache::storageBytes(std::uint64_t capacity, std::uint64_t line_size,
                            std::uint32_t ways)
{
    // The constructor's resize() allocates exactly one stride per set.
    const std::uint64_t way_bytes = std::uint64_t{ways} * line_size;
    const std::uint64_t sets = way_bytes != 0 ? capacity / way_bytes : 0;
    return TagSlab::spanBytes(
        static_cast<std::size_t>(sets * strideOf(ways)));
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
    // Row-major [set][tags, meta, padding] flattening is the one
    // sanctioned escape to raw indices for this array.
    return reinterpret_cast<const std::uint32_t *>(
        // aflint-allow-next-line(AF011)
        arr.data() + set.raw() * setStride);
}

SetAssocCache::SetRef
SetAssocCache::setAt(SetIdx set)
{
    auto *tags = const_cast<std::uint32_t *>(setWords(set));
    return {tags, reinterpret_cast<std::uint16_t *>(tags + waysPerSet)};
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

[[gnu::always_inline]] inline std::uint32_t
SetAssocCache::tick(SetIdx set)
{
    // An array of up to kClockSets sets, as every on-chip one is, has
    // one clock, kept in the object, so that ticking it need not wait
    // for the set index.
    if (sets <= kClockSets) [[likely]] {
        if (stamp == kMaxStamp) [[unlikely]]
            renumber(0);
        return ++stamp;
    }
    // aflint-allow-next-line(AF011)
    const std::uint64_t c = set.raw() / kClockSets;
    if (clocks[c] == kMaxStamp) [[unlikely]]
        renumber(c);
    return ++clocks[c];
}

void
SetAssocCache::renumber(std::uint64_t c)
{
    // A valid way's new stamp is 1 + the number of ways in its set
    // with an older stamp, empty ways (stamp 0) included. That keeps
    // the valid stamps distinct and in order, which is all a victim
    // depends on; every new stamp is at most waysPerSet, below any the
    // restarted clock hands out; an empty way keeps 0.
    const std::uint32_t n = waysPerSet;
    const std::uint64_t first = c * kClockSets;
    const std::uint64_t end = std::min(sets, first + kClockSets);
#ifdef __SSE2__
    // Each set is ranked in a copy of its meta words, eight lanes at a
    // time. Each lane's stamp is broadcast to eight lanes of `older`,
    // and every lane's count starts at 1 and drops by -1 for each
    // way's broadcast stamp below its own. Lanes past the last way
    // hold 0, count for no rank and stay 0.
    const std::uint32_t lanes = (n + 7) / 8 * 8;
    std::vector<std::uint16_t> words(lanes);
    std::vector<std::uint16_t> older(8 * std::size_t{lanes});
    const __m128i one = _mm_set1_epi16(1);
    const __m128i zero = _mm_setzero_si128();
    for (std::uint64_t s = first; s < end; ++s) {
        const SetRef set = setAt(SetIdx(s));
        std::copy_n(set.meta, n, words.data());
        for (std::uint32_t v = 0; v < lanes; v += 8) {
            // Unpacking doubles each stamp into a 32-bit lane, which a
            // shuffle then repeats across the register.
            const __m128i stamps =
                _mm_srli_epi16(load8(words.data(), v), 1);
            const __m128i halves[2] = {_mm_unpacklo_epi16(stamps, stamps),
                                       _mm_unpackhi_epi16(stamps, stamps)};
            auto *out = reinterpret_cast<__m128i *>(older.data() + 8 * v);
            for (const __m128i &h : halves) {
                _mm_storeu_si128(out++, _mm_shuffle_epi32(h, 0x00));
                _mm_storeu_si128(out++, _mm_shuffle_epi32(h, 0x55));
                _mm_storeu_si128(out++, _mm_shuffle_epi32(h, 0xaa));
                _mm_storeu_si128(out++, _mm_shuffle_epi32(h, 0xff));
            }
        }
        for (std::uint32_t w = 0; w < lanes; w += 8) {
            const __m128i meta = load8(words.data(), w);
            const __m128i stamps = _mm_srli_epi16(meta, 1);
            // Two running counts halve the chain of dependent subtracts.
            __m128i rank = one;
            __m128i odd = zero;
            std::uint32_t v = 0;
            for (; v + 2 <= n; v += 2) {
                rank = _mm_sub_epi16(
                    rank, _mm_cmpgt_epi16(stamps, load8(older.data(), 8 * v)));
                odd = _mm_sub_epi16(
                    odd,
                    _mm_cmpgt_epi16(stamps, load8(older.data(), 8 * v + 8)));
            }
            if (v < n) {
                rank = _mm_sub_epi16(
                    rank, _mm_cmpgt_epi16(stamps, load8(older.data(), 8 * v)));
            }
            rank = _mm_add_epi16(rank, odd);
            rank = _mm_or_si128(_mm_slli_epi16(rank, 1),
                                _mm_and_si128(meta, one));
            rank = _mm_andnot_si128(_mm_cmpeq_epi16(meta, zero), rank);
            _mm_storeu_si128(reinterpret_cast<__m128i *>(words.data() + w),
                             rank);
        }
        std::copy_n(words.data(), n, set.meta);
    }
#else
    std::vector<std::uint16_t> ranked(n);
    for (std::uint64_t s = first; s < end; ++s) {
        const SetRef set = setAt(SetIdx(s));
        for (std::uint32_t w = 0; w < n; ++w) {
            std::uint32_t rank = 1;
            for (std::uint32_t v = 0; v < n; ++v)
                rank += (set.meta[v] >> 1) < (set.meta[w] >> 1);
            ranked[w] = set.meta[w] == 0
                ? 0
                : static_cast<std::uint16_t>(rank << 1 |
                                             (set.meta[w] & kDirtyBit));
        }
        std::copy(ranked.begin(), ranked.end(), set.meta);
    }
#endif
    (sets <= kClockSets ? stamp : clocks[c]) = n;
}

bool
SetAssocCache::lookup(Addr addr, bool write)
{
    const Slot slot = locate(addr);
    const std::uint32_t now = tick(slot.set);
    const SetRef set = setAt(slot.set);
    const std::uint32_t w = findWay(set.tags, slot.tag);
    if (w == waysPerSet) {
        rememberMiss(addr, slot);
        statsData.misses.inc();
        return false;
    }
    touch(set.meta[w], write, now);
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
SetAssocCache::victimWay(SetRef set) const
{
    // The first way holding the least meta word. An empty way's word
    // is 0 and a valid way's at least 2 (stamp >= 1,
    // checkInvariants()), so that is the first empty way when there
    // is one. Otherwise it is the least recently used way: the stamps
    // of valid ways are distinct, so the dirty bit below them never
    // decides.
#ifdef __SSE2__
    const std::uint16_t least = leastWord(set.meta, waysPerSet);
    const std::uint32_t way = firstEqual(set.meta, waysPerSet, least);
#else
    std::uint32_t way = 0;
    std::uint16_t least = set.meta[0];
    for (std::uint32_t w = 1; w < waysPerSet; ++w) {
        const bool lower = set.meta[w] < least;
        way = lower ? w : way;
        least = lower ? set.meta[w] : least;
    }
#endif
    return way;
}

std::optional<CacheLine>
SetAssocCache::fill(Addr addr, bool dirty)
{
    // The line that missed last, unfilled since, is absent: its slot
    // is known and no way holds its tag.
    const bool remembered = addr >> lineShift == missLine;
    const Slot slot = remembered ? missSlot : locate(addr);
    const std::uint32_t now = tick(slot.set);
    const SetRef set = setAt(slot.set);
    if (remembered) {
        missLine = kNoLine;
    } else if (const std::uint32_t w = findWay(set.tags, slot.tag);
               w != waysPerSet) {
        // Refill of a resident line refreshes recency and dirtiness.
        touch(set.meta[w], dirty, now);
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
    set.meta[w] =
        static_cast<std::uint16_t>(now << 1 | (dirty ? kDirtyBit : 0));
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
    // Meta words and padding are 16-bit words after the tags.
    const std::size_t metaWords =
        (setStride - waysPerSet * sizeof(std::uint32_t)) /
        sizeof(std::uint16_t);
    for (std::uint64_t s = 0; s < sets; ++s) {
        const SetRef set = setAt(SetIdx(s));
        std::fill_n(set.tags, waysPerSet, kInvalidTag);
        std::fill_n(set.meta, metaWords, std::uint16_t{0});
    }
    validCount = 0;
}

} // namespace astriflash::mem
