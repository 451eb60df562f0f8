/**
 * @file
 * Typed SSD command message.
 *
 * This is the payload of the backside controller's BC→flash command
 * channel: a plain description of one device operation, free of any
 * reference to the device model itself, so the producer side never
 * needs to name (or link against) FlashDevice. The backside controller
 * that owns the channel submits commands via FlashFabric::submit().
 */

#ifndef ASTRIFLASH_FLASH_FLASH_COMMAND_HH
#define ASTRIFLASH_FLASH_FLASH_COMMAND_HH

#include "mem/address.hh"
#include "sim/ticks.hh"

#include "flash_types.hh"

namespace astriflash::flash {

/** One SSD operation (a fill read or a victim writeback). */
struct FlashCommand {
    enum class Op {
        Read,  ///< Page read toward the host.
        Write, ///< Page program (host-visible ack at buffer accept).
    };

    Op op = Op::Read;
    Lpn lpn{0};
    /** Reads: bytes transferred to the host (0 = whole page; footprint
     *  mode shortens the channel occupancy). Ignored for writes. */
    mem::Bytes bytes{0};
};

/** Completion information for one submitted command. */
struct FlashCommandResult {
    /** Reads: data available at host. Writes: device accepted the
     *  page into its buffer (the program proceeds asynchronously). */
    sim::Ticks complete = 0;
    sim::Ticks queueing = 0;  ///< Reads: wait for plane+channel.
    bool blockedByGc = false; ///< Reads: plane was erasing/relocating.
};

} // namespace astriflash::flash

#endif // ASTRIFLASH_FLASH_FLASH_COMMAND_HH
