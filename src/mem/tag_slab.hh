/**
 * @file
 * One host block for many tag arrays.
 *
 * A 256-core System holds about 46 MB of per-core L1/L2/LLC and TLB
 * tag arrays. Allocated one by one they spread over thousands of 4 KiB
 * host pages, so nearly every set walk also misses the host's TLB. A
 * TagSlab is one block, sized exactly for the arrays it will hold and
 * aligned to a 2 MiB huge page; the whole huge pages inside it are
 * advised as such. It hands out 64-byte-aligned spans and frees them
 * all at once, when it is destroyed (DESIGN.md §9.3).
 */

#ifndef ASTRIFLASH_MEM_TAG_SLAB_HH
#define ASTRIFLASH_MEM_TAG_SLAB_HH

#include <cstddef>

#if defined(__SANITIZE_ADDRESS__)
#define ASTRIFLASH_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ASTRIFLASH_ASAN 1
#endif
#endif

namespace astriflash::mem {

/** Bump allocator of 64-byte-aligned spans out of one huge-page block. */
class TagSlab
{
  public:
    /** Alignment of every span: one host cache line. */
    static constexpr std::size_t kSpanAlign = 64;
    /** Alignment of the block, and the page size it advises. */
    static constexpr std::size_t kHugePage = std::size_t{2} << 20;
#ifdef ASTRIFLASH_ASAN
    /** Poisoned bytes left after each span, so overruns report. */
    static constexpr std::size_t kGuard = 64;
#else
    static constexpr std::size_t kGuard = 0;
#endif

    /** Slab bytes a span of @p bytes takes, alignment and guard included. */
    static constexpr std::size_t
    spanBytes(std::size_t bytes)
    {
        return (bytes + kSpanAlign - 1) / kSpanAlign * kSpanAlign + kGuard;
    }

    /** A slab of exactly @p bytes: the sum of its spans' spanBytes(). */
    explicit TagSlab(std::size_t bytes);
    ~TagSlab();

    TagSlab(const TagSlab &) = delete;
    TagSlab &operator=(const TagSlab &) = delete;

    /**
     * A span of @p bytes, aligned to kSpanAlign and valid until the
     * slab is destroyed. Fatal when fewer than spanBytes(@p bytes)
     * slab bytes remain.
     */
    void *allocate(std::size_t bytes);

    /** Bytes in the slab. */
    std::size_t size() const { return total; }
    /** Bytes handed out so far, alignment and guards included. */
    std::size_t used() const { return offset; }

  private:
    std::byte *base;
    std::size_t total;
    std::size_t offset = 0;
};

} // namespace astriflash::mem

#endif // ASTRIFLASH_MEM_TAG_SLAB_HH
