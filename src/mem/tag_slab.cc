#include "tag_slab.hh"

#include <new>

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>
#endif
#ifdef ASTRIFLASH_ASAN
#include <sanitizer/asan_interface.h>
#endif

#include "sim/logging.hh"

namespace astriflash::mem {

TagSlab::TagSlab(std::size_t bytes)
    : base(static_cast<std::byte *>(
          ::operator new(bytes, std::align_val_t{kHugePage}))),
      total(bytes)
{
#ifdef MADV_HUGEPAGE
    // Only the whole huge pages: advising the partial one at the end
    // would make the kernel back bytes past the slab. The advice is a
    // hint; where the kernel refuses it the slab still works.
    if (const std::size_t whole = bytes / kHugePage * kHugePage; whole > 0)
        madvise(base, whole, MADV_HUGEPAGE);
#endif
#ifdef ASTRIFLASH_ASAN
    ASAN_POISON_MEMORY_REGION(base, total);
#endif
}

TagSlab::~TagSlab()
{
#ifdef ASTRIFLASH_ASAN
    ASAN_UNPOISON_MEMORY_REGION(base, total);
#endif
    // The slab is the RAII owner of its block.
    // aflint-allow-next-line(AF002)
    ::operator delete(base, std::align_val_t{kHugePage});
}

void *
TagSlab::allocate(std::size_t bytes)
{
    const std::size_t need = spanBytes(bytes);
    if (need > total - offset)
        ASTRI_FATAL("tag slab: %zu bytes requested (%zu with alignment "
                    "and guard) but only %zu of %zu remain",
                    bytes, need, total - offset, total);
    std::byte *span = base + offset;
    offset += need;
#ifdef ASTRIFLASH_ASAN
    ASAN_UNPOISON_MEMORY_REGION(span, bytes);
#endif
    return span;
}

} // namespace astriflash::mem
