/**
 * @file
 * Page-mapped Flash Translation Layer with greedy GC and wear leveling.
 *
 * Tracks logical-page -> physical-page mappings, appends writes
 * out-of-place at each plane's write frontier, reclaims space with a
 * greedy (min-valid-pages) garbage collector that breaks ties toward
 * low-erase-count blocks (wear leveling), and performs block erasure
 * only in the local plane — the Tiny-Tail-style policy the paper cites
 * for bounding GC interference. The same rules describe a zoned,
 * log-structured SSD (one zone per block, relocate-then-reset
 * cleaning, as in Flashield and Nemo), so one FTL serves both
 * BackendKinds; the kind picks only the stat names.
 */

#ifndef ASTRIFLASH_FLASH_FTL_HH
#define ASTRIFLASH_FLASH_FTL_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/invariant.hh"
#include "sim/stats.hh"

#include "flash_config.hh"
#include "flash_types.hh"

namespace astriflash::flash {

/** Physical location of one flash page. */
struct PhysPage {
    std::uint32_t plane = 0; ///< Global plane index.
    std::uint32_t block = 0; ///< Block within the plane.
    std::uint32_t page = 0;  ///< Page within the block.
};

/** Garbage-collection work one host write triggered. */
struct GcWork {
    std::uint32_t relocatedPages = 0; ///< Valid pages moved.
    std::uint32_t erasedBlocks = 0;
};

/**
 * Page-mapped FTL.
 *
 * Logical pages are striped across planes (LPN % planes) so a random
 * or skewed read stream exercises the full plane-level parallelism,
 * as real SSD firmware arranges.
 */
class Ftl
{
  public:
    struct Stats {
        sim::Counter hostWrites;    ///< Logical page writes.
        sim::Counter flashPrograms; ///< Physical programs (incl. GC).
        sim::Counter gcInvocations;
        sim::Counter gcRelocations;
        sim::Counter gcInvalidations; ///< Stale pages GC reclaimed.
        sim::Counter erases;

        /** Write amplification factor (programs / host writes). */
        double
        writeAmplification() const
        {
            return hostWrites.value()
                ? static_cast<double>(flashPrograms.value()) /
                      static_cast<double>(hostWrites.value())
                : 1.0;
        }
    };

    /**
     * @param preload_pages  Logical pages pre-loaded as valid data
     *                       (the dataset). Defaults to the full user
     *                       capacity; systems pass their dataset size
     *                       so spare blocks remain for out-of-place
     *                       writes and GC headroom.
     * @param kind           Stat names only (regStats).
     */
    Ftl(std::string name, const FlashConfig &config,
        std::uint64_t preload_pages = ~std::uint64_t{0},
        BackendKind kind = BackendKind::Ftl);

    /**
     * Resolve the physical location of logical page @p lpn for a read.
     * Unwritten pages are deterministically assigned a location on
     * first touch (datasets are "pre-loaded").
     */
    PhysPage translate(Lpn lpn);

    /** Plane that serves logical page @p lpn. */
    std::uint32_t planeOf(Lpn lpn) const;

    /**
     * Write logical page @p lpn out-of-place. When the plane's
     * frontier is full and no block is free, GC runs first so the
     * append has somewhere to land; after it, GC runs whenever the
     * plane is below gcFreeBlockLow free blocks.
     * @param[out] gc  Filled with relocation/erase work if this write
     *                 triggered garbage collection.
     * @return The new physical location.
     */
    PhysPage write(Lpn lpn, GcWork *gc);

    /** Free (never-written or erased) pages in a plane. */
    std::uint64_t freePagesInPlane(std::uint32_t plane) const;

    /** Maximum erase-count spread across blocks (wear-leveling QoI). */
    std::uint32_t eraseCountSpread() const;

    std::uint64_t userPages() const { return cfg.userPages(); }
    std::uint64_t preloadedPages() const { return preloaded; }
    const Stats &stats() const { return statsData; }
    const FlashConfig &config() const { return cfg; }

    /** Register the placement stats into a child of the device's
     *  @p reg: "ftl" or, for BackendKind::Zns, "log". */
    void regStats(sim::StatRegistry &reg) const;

    /**
     * Audit the translation state: the logical->physical map is
     * injective and in-bounds with owner back-pointers agreeing, block
     * valid/write pointers are consistent, per-plane free-space
     * accounting matches the block states, every program is either
     * a host write or a GC relocation, and every page of every erased
     * block was either relocated or stale.
     */
    void checkInvariants(sim::InvariantChecker &chk) const;

  private:
    struct Block {
        std::uint32_t validPages = 0;
        std::uint32_t writePtr = 0;   ///< Next free page index.
        std::uint32_t eraseCount = 0;
        std::vector<Lpn> owners; ///< LPN per page (or invalid).
    };

    struct Plane {
        std::vector<Block> blocks;
        std::uint32_t activeBlock = 0; ///< Current write frontier.
        std::uint32_t freeBlocks = 0;  ///< Empty blocks, frontier aside.
        /** Writable pages: the frontier's tail plus the free blocks. */
        std::uint64_t freePages = 0;
    };

    /** Allocate the next free physical page in @p plane. */
    PhysPage allocate(std::uint32_t plane);

    /** Fill in a preloaded block's owner list before its first
     *  change (a no-op once built, or for an empty block). */
    void materializeOwners(std::uint32_t plane, std::uint32_t block);

    /** Invalidate the old location of @p lpn, if mapped. */
    void invalidateOld(Lpn lpn);

    /** Run greedy GC in @p plane until free blocks recover, adding
     *  its relocations and erases to @p work. */
    void collectGarbage(std::uint32_t plane, GcWork *work);

    /** Pick GC victim: min valid pages, ties to min erase count. */
    std::uint32_t pickVictim(const Plane &plane) const;

    std::string ftlName;
    FlashConfig cfg;
    std::uint64_t preloaded;
    BackendKind kind;
    std::vector<Plane> planes;
    // Overridden (rewritten) lpns only; unmapped lpns resolve to their
    // static pre-load location, keeping host memory bounded at scale.
    std::unordered_map<Lpn, Ppn> mapping;
    Stats statsData;
    /** Stats::writeAmplification() after the latest write, for the
     *  registered "log.write_amplification" scalar. */
    double writeAmp = 1.0;

    static Ppn pack(const PhysPage &p);
    PhysPage unpack(Ppn v) const;
};

} // namespace astriflash::flash

#endif // ASTRIFLASH_FLASH_FTL_HH
