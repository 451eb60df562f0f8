/**
 * @file
 * Address types and page/block arithmetic.
 *
 * The paper's memory hierarchy uses 64 B cache blocks on chip and 4 KB
 * pages in the DRAM cache and flash; all address math funnels through
 * these helpers so page-size experiments only change one constant.
 *
 * Page numbers, block numbers and cache set indices are strong
 * types (sim::StrongId): a byte address, a page number and a set index
 * no longer share a representation the compiler will happily confuse.
 * Convert a number back to a byte address with pageAddr()/blockAddr();
 * raw() escapes are reserved for serialization and hashing (AF011).
 */

#ifndef ASTRIFLASH_MEM_ADDRESS_HH
#define ASTRIFLASH_MEM_ADDRESS_HH

#include <cstdint>

#include "sim/invariant.hh"
#include "sim/strong_types.hh"

namespace astriflash::mem {

/** Physical or virtual byte address. */
using Addr = std::uint64_t;

/** Identifies one page (address / page size). */
using PageNum = sim::StrongId<struct PageNumTag>;
/** Identifies one cache block (address / block size). */
using BlockNum = sim::StrongId<struct BlockNumTag>;
/** Index of a set within a set-associative structure. */
using SetIdx = sim::StrongId<struct SetIdxTag>;
/** A byte count (transfer sizes, capacities) — a quantity, not an
 *  address, so it adds and scales but never indexes. */
using Bytes = sim::StrongCount<struct BytesTag, std::uint64_t>;

/** Default cache block size (bytes). */
inline constexpr std::uint64_t kBlockSize = 64;
/** Default page size (bytes) for DRAM cache and flash. */
inline constexpr std::uint64_t kPageSize = 4096;

/** True iff @p v is a power of two (and nonzero). */
constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/**
 * log2 of a power of two. Non-power-of-two inputs used to return
 * floor(log2) silently; they are now rejected — at compile time in
 * constant expressions, by panic at runtime with checks armed.
 */
constexpr unsigned
log2i(std::uint64_t v)
{
    SIM_CHECK_CE(isPowerOfTwo(v));
    unsigned n = 0;
    while (v > 1) {
        v >>= 1;
        ++n;
    }
    return n;
}

/** Round @p a down to a multiple of power-of-two @p align. */
constexpr Addr
alignDown(Addr a, std::uint64_t align)
{
    SIM_CHECK_CE(isPowerOfTwo(align));
    return a & ~(align - 1);
}

/** Round @p a up to a multiple of power-of-two @p align. */
constexpr Addr
alignUp(Addr a, std::uint64_t align)
{
    SIM_CHECK_CE(isPowerOfTwo(align));
    return (a + align - 1) & ~(align - 1);
}

/** Page number of an address (default 4 KB pages). */
constexpr PageNum
pageNumber(Addr a, std::uint64_t page_size = kPageSize)
{
    return PageNum(a / page_size);
}

/** Base address of the page containing @p a. */
constexpr Addr
pageBase(Addr a, std::uint64_t page_size = kPageSize)
{
    return alignDown(a, page_size);
}

/** Byte address of page @p pn (the page's base). */
constexpr Addr
pageAddr(PageNum pn, std::uint64_t page_size = kPageSize)
{
    // aflint-allow(AF011): the sanctioned PageNum -> byte conversion.
    return pn.raw() * page_size;
}

/**
 * Shard index of page @p pn when pages are interleaved round-robin
 * across @p shards equal slices (the backside-controller sharding in
 * core/dram_cache.hh). This is the sanctioned PageNum -> shard-index
 * conversion; with one shard every page lands on shard 0.
 */
constexpr std::uint32_t
pageInterleave(PageNum pn, std::uint32_t shards)
{
    // aflint-allow(AF011): modular arithmetic on the page index.
    return static_cast<std::uint32_t>(pn.raw() % shards);
}

/** Block number of an address (default 64 B blocks). */
constexpr BlockNum
blockNumber(Addr a, std::uint64_t block_size = kBlockSize)
{
    return BlockNum(a / block_size);
}

/** Base address of the block containing @p a. */
constexpr Addr
blockBase(Addr a, std::uint64_t block_size = kBlockSize)
{
    return alignDown(a, block_size);
}

/** Byte address of block @p bn (the block's base). */
constexpr Addr
blockAddr(BlockNum bn, std::uint64_t block_size = kBlockSize)
{
    // aflint-allow(AF011): the sanctioned BlockNum -> byte conversion.
    return bn.raw() * block_size;
}

} // namespace astriflash::mem

#endif // ASTRIFLASH_MEM_ADDRESS_HH
