/**
 * @file
 * Message schemas for the DRAM-cache channels (§IV-B).
 *
 * The frontside and backside controllers never name each other
 * (aflint AF013); the DramCache facade composes them. Three bounded
 * channels exist per BC shard:
 *
 *   FC --MissRequest-->     BC   (fc_to_bc: the BC's transaction
 *                                 queue; the facade pushes the FC's
 *                                 miss and hands the BcReply back)
 *   BC --FlashCmdMsg-->     BC   (bc_to_flash: the device command
 *                                 queue, submitted through
 *                                 flash::Backend in the BC's drain)
 *   BC --InstallComplete--> FC   (bc_to_fc: wake the merged waiters)
 *
 * See DESIGN.md §11 for slot-lifetime rules and §14 for the
 * per-channel lookahead manifest.
 */

#ifndef ASTRIFLASH_CORE_DC_MESSAGES_HH
#define ASTRIFLASH_CORE_DC_MESSAGES_HH

#include <cstdint>
#include <vector>

#include "flash/flash_command.hh"
#include "mem/address.hh"
#include "sim/ticks.hh"

#include "dram_cache_types.hh"

namespace astriflash::core {

/**
 * FC→BC: one LLC-missing access handed across the controller split.
 * The channel slot is held for the whole miss transaction (until the
 * install completes), so the miss-channel depth is the BC's
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

/**
 * BC→flash: one device command. The BC's own drain pops and submits
 * through flash::Backend::submit(); the slot drains when the device
 * finishes (reads) or accepts the page (writes), so the depth models
 * the device command queue.
 */
struct FlashCmdMsg {
    flash::FlashCommand cmd;
    /** Read fills: key into the BC's pending-miss table. */
    mem::PageNum page{0};
};

/**
 * BC→FC: a page finished installing; the FC fires the page-ready
 * callback so switch-on-miss cores wake every merged waiter.
 */
struct InstallComplete {
    mem::PageNum page{0};
    sim::Ticks ready = 0;
    std::vector<WaiterCookie> waiters;
};

} // namespace astriflash::core

#endif // ASTRIFLASH_CORE_DC_MESSAGES_HH
