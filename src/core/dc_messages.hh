/**
 * @file
 * Request and reply schemas for the DRAM-cache miss path (§IV-B).
 *
 * The frontside and backside controllers never name each other
 * (aflint AF013); the DramCache facade composes them. A frontside
 * miss becomes a MissRequest, which the facade hands to the page's
 * BC shard as a plain call; the BC returns a BcReply. The BC's flash
 * commands are plain calls too, and it wakes an installed page's
 * waiters by a plain call to the facade's page-ready hook, with no
 * notice queue (§IV-B). What survives of the hardware queues is their
 * timing: each BC shard owns two sim::BoundedChannel slot windows,
 *
 *   fc_to_bc     the BC's transaction queue (one slot per miss, held
 *                until the page installs)
 *   bc_to_flash  the device command queue (held until the device
 *                completes the read or accepts the write)
 *
 * See DESIGN.md §11 for the slot-lifetime rules.
 */

#ifndef ASTRIFLASH_CORE_DC_MESSAGES_HH
#define ASTRIFLASH_CORE_DC_MESSAGES_HH

#include <cstdint>

#include "mem/address.hh"
#include "sim/ticks.hh"

#include "dram_cache_types.hh"

namespace astriflash::core {

/**
 * FC→BC: one LLC-missing access handed across the controller split.
 * Its fc_to_bc slot is held for the whole miss transaction (until the
 * install completes), so the fc_to_bc depth is the BC's
 * outstanding-transaction window.
 */
struct MissRequest {
    mem::PageNum page{0};
    bool write = false;
    /** Footprint refetch of a resident page: skips the evict-buffer
     *  short-circuit (the page cannot be parked there). */
    bool subPage = false;
    /** Async requests record a waiter for the page-ready callback;
     *  forced-synchronous ones block in place instead. */
    bool hasWaiter = false;
    WaiterCookie waiter = 0;
    /** Blocks the requester needs transferred (footprint mode). */
    std::uint64_t wantMask = ~std::uint64_t{0};
};

/** BC's reply to one serviced MissRequest, returned to the facade. */
struct BcReply {
    enum class Kind {
        EvictBufferHit, ///< Served from a parked victim page.
        MissStarted,    ///< New, merged, or MSR-stalled miss.
    };
    Kind kind = Kind::MissStarted;
    bool merged = false; ///< Deduplicated onto an in-flight miss.
    /** EvictBufferHit: data-ready tick. MissStarted: the (possibly
     *  conservative) tick the page's data will be installed. */
    sim::Ticks ready = 0;
    /** Miss-channel accept tick (after any full-queue stall). */
    sim::Ticks accepted = 0;
};

} // namespace astriflash::core

#endif // ASTRIFLASH_CORE_DC_MESSAGES_HH
