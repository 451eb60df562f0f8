/**
 * @file
 * Host prefetch hint over a byte range.
 *
 * The simulator's hot state at 256 cores is far larger than the host's
 * caches, so the components hint the host lines an upcoming access or
 * event will touch (DESIGN.md §9.4). A hint only issues
 * __builtin_prefetch: it reads nothing and changes nothing, so no
 * simulated result can depend on it.
 */

#ifndef ASTRIFLASH_SIM_PREFETCH_HH
#define ASTRIFLASH_SIM_PREFETCH_HH

#include <cstddef>
#include <cstdint>

namespace astriflash::sim {

/** Host cache line size the hints step by. */
inline constexpr std::uintptr_t kHostLine = 64;

/**
 * Prefetch every host line overlapping the @p bytes (> 0) at @p p.
 * Always inlined: GCC 12 at -O2 drops the prefetches of a helper it
 * keeps out of line.
 */
[[gnu::always_inline]] inline void
prefetchRange(const void *p, std::size_t bytes)
{
    const auto first = reinterpret_cast<std::uintptr_t>(p);
    const std::uintptr_t last = first + bytes - 1;
    for (std::uintptr_t a = first & ~(kHostLine - 1); a <= last;
         a += kHostLine)
        __builtin_prefetch(reinterpret_cast<const void *>(a));
}

} // namespace astriflash::sim

#endif // ASTRIFLASH_SIM_PREFETCH_HH
