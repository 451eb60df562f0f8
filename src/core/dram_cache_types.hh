/**
 * @file
 * Shared configuration and result types for the DRAM-cache controller
 * pair (frontside_controller.hh / backside_controller.hh) and the
 * DramCache facade that wires them together.
 */

#ifndef ASTRIFLASH_CORE_DRAM_CACHE_TYPES_HH
#define ASTRIFLASH_CORE_DRAM_CACHE_TYPES_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "flash/backend.hh"
#include "mem/address.hh"
#include "mem/dram.hh"
#include "sim/ticks.hh"

namespace astriflash::core {

/** Opaque identifier for whoever is waiting on a missing page. */
using WaiterCookie = std::uint64_t;

/** Page-arrival notice: carries every waiter merged onto the miss. */
using PageReadyFn = std::function<void(
    mem::PageNum page, sim::Ticks when,
    const std::vector<WaiterCookie> &waiters)>;

/** Frontside-controller parameters (the 1-cycle-per-op FSM, §V-A). */
struct FcConfig {
    sim::Cycles cyclesPerOp{1};
};

/**
 * Backside-controller parameters. `shards` page-interleaved BC
 * instances share the miss-handling load; the MSR and evict-buffer
 * capacities below are cache-wide totals that the facade slices
 * evenly across shards (shardSlice()), so changing the shard count
 * never changes aggregate buffering.
 */
struct BcConfig {
    std::uint32_t shards = 1;
    /** BC is programmable at 3 cycles/op (§V-A). */
    sim::Cycles cyclesPerOp{3};
    std::uint32_t msrSets = 128;
    std::uint32_t msrEntriesPerSet = 8;
    std::uint32_t evictBufferEntries = 32;
};

/**
 * Depths of the two controller windows whose backpressure reaches
 * simulated time (FC→BC miss requests, BC→flash commands), per BC
 * shard. A slot is held for the lifetime of the transaction it
 * carries, so the miss-window depth is effectively the BC's
 * transaction window. The defaults are effectively unbounded — the
 * decomposition is timing-neutral — while small depths turn
 * backpressure into measured stall ticks (bench/ablation_astriflash
 * sweeps this).
 */
struct ChannelConfig {
    std::uint32_t fcToBcDepth = 65536;
    std::uint32_t bcToFlashDepth = 65536;
};

/** DRAM cache parameters. */
struct DramCacheConfig {
    std::uint64_t capacityBytes = std::uint64_t{64} << 20;
    std::uint64_t pageBytes = mem::kPageSize;
    std::uint32_t ways = 8; ///< One 64 B tag column maps 8 ways (§IV-B).
    mem::DramConfig dram;
    /** Both controllers run at the memory-controller clock. */
    std::uint64_t controllerFreqHz = 2'500'000'000ull;

    FcConfig fc;
    BcConfig bc;
    ChannelConfig channels;
    /** Flash fan-out behind the BC shards (device count + model). */
    flash::FlashFabricConfig fabric;

    /**
     * Footprint-cache mode (§II-A's bandwidth optimization, after
     * Jevdjic et al. [36]): on a refill of a previously-seen page,
     * transfer only the blocks the page's last residency actually
     * touched. Accesses to unfetched blocks of a resident page are
     * sub-page misses that fetch the remainder via the normal
     * switch-on-miss path. Trades a small extra miss rate for flash
     * / PCIe bandwidth.
     */
    bool footprintEnabled = false;
};

/**
 * Shard @p i's slice of a @p total-entry resource divided across
 * @p shards shards: total/shards, with the remainder spread over the
 * first (total % shards) shards so the slices always sum to total —
 * the conservation the facade's construction-time SIM_CHECK pins.
 */
constexpr std::uint32_t
shardSlice(std::uint32_t total, std::uint32_t shards, std::uint32_t i)
{
    return total / shards + (i < total % shards ? 1 : 0);
}

/** Result of a frontside access. */
struct DcAccess {
    bool hit = false;
    /** Hit: data-ready tick. Miss: miss-response tick (the miss signal
     *  travels back to the core and MSHRs are reclaimed). */
    sim::Ticks ready = 0;
};

/** Bit for the 64 B block of @p pa within its 4 KB page. */
inline std::uint64_t
dcBlockBit(mem::Addr pa)
{
    return 1ull << ((pa / mem::kBlockSize) %
                    (mem::kPageSize / mem::kBlockSize));
}

/**
 * Bytes from one cache set's row to the next in the cached DRAM
 * partition. Each cache set occupies one DRAM row region: tags first,
 * then the page frames, so set s starts at s times this stride, where
 * s is the page tag array's SetAssocCache::setOf(). Mapping sets onto
 * distinct rows gives the tag probe natural row-buffer locality for
 * same-set access bursts. Both controllers address the same shared
 * DRAM device through this layout.
 */
inline std::uint64_t
dcSetRowStride(const DramCacheConfig &cfg)
{
    return cfg.dram.rowBytes *
           ((cfg.ways * cfg.pageBytes) / cfg.dram.rowBytes + 1);
}

/**
 * Footprint-mode residency masks, held by the facade (it also
 * prewarms into them) and shared by both controllers: the FC records
 * touched blocks and detects sub-page misses; the BC seeds each fetch
 * from the page's history and maintains the masks across install and
 * eviction.
 */
struct FootprintState {
    /** Blocks actually transferred for each resident page. */
    std::unordered_map<mem::PageNum, std::uint64_t> fetched;
    /** Blocks touched during the current residency. */
    std::unordered_map<mem::PageNum, std::uint64_t> touched;
    /** Footprint recorded at the page's last eviction. */
    std::unordered_map<mem::PageNum, std::uint64_t> history;
    /**
     * Audit-only: pages displaced by set conflicts while prewarm was
     * filling the tags. Prewarm predates the miss path, so these
     * evictions skip the install's victim bookkeeping and the
     * page's full-page fetched mask is left behind (erasing it here
     * would change the committed goldens: a later reinstall ORs into
     * the leftover mask). The residency audit exempts exactly this
     * set instead of blessing the leak wholesale.
     */
    std::unordered_set<mem::PageNum> prewarmEvicted;
};

} // namespace astriflash::core

#endif // ASTRIFLASH_CORE_DRAM_CACHE_TYPES_HH
