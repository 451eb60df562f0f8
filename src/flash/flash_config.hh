/**
 * @file
 * NAND flash geometry and timing parameters.
 *
 * Defaults approximate a modern datacenter TLC SSD: ~40 µs array read
 * (tR), page transfer over a shared per-channel bus, ~600 µs program
 * and ~3 ms block erase, yielding the ~50 µs lightly-loaded read
 * latency the paper assumes. Capacity scales by adding channels/dies,
 * which is how the paper's §VI-D argues GC interference shrinks from
 * 4% (256 GB) to <1% (1 TB): more planes per unit of traffic.
 */

#ifndef ASTRIFLASH_FLASH_FLASH_CONFIG_HH
#define ASTRIFLASH_FLASH_FLASH_CONFIG_HH

#include <cstdint>
#include <string>

#include "sim/ticks.hh"

namespace astriflash::flash {

/** Geometry and timing of one SSD. */
struct FlashConfig {
    // Geometry.
    std::uint32_t channels = 8;
    std::uint32_t diesPerChannel = 4;
    std::uint32_t planesPerDie = 2;
    std::uint64_t blocksPerPlane = 1024;
    std::uint32_t pagesPerBlock = 256;
    std::uint64_t pageBytes = 4096;

    // Timing.
    sim::Ticks tRead = sim::microseconds(40);     ///< Array read (tR).
    sim::Ticks tProgram = sim::microseconds(600); ///< Page program.
    sim::Ticks tErase = sim::milliseconds(3);     ///< Block erase.
    sim::Ticks tChannelXfer = sim::microseconds(3); ///< 4 KB bus xfer.
    sim::Ticks tController = sim::microseconds(5);  ///< FW + ECC + queue.

    // FTL policy.
    double overprovisionRatio = 0.07;  ///< Spare blocks fraction.
    std::uint32_t gcFreeBlockLow = 4;  ///< Start GC below this many
                                       ///< free blocks per plane.

    /** Raw capacity in bytes (including overprovisioning). */
    std::uint64_t
    rawBytes() const
    {
        return static_cast<std::uint64_t>(channels) * diesPerChannel *
               planesPerDie * blocksPerPlane * pagesPerBlock * pageBytes;
    }

    /** User-visible capacity in bytes (raw minus overprovisioning). */
    std::uint64_t
    userBytes() const
    {
        return static_cast<std::uint64_t>(
            static_cast<double>(rawBytes()) *
            (1.0 - overprovisionRatio));
    }

    /** User-visible capacity in 4 KB logical pages. */
    std::uint64_t userPages() const { return userBytes() / pageBytes; }

    std::uint32_t
    totalPlanes() const
    {
        return channels * diesPerChannel * planesPerDie;
    }

    /**
     * Scale geometry (channels, then dies) to reach at least
     * @p target_user_bytes of user capacity, mimicking how larger SSDs
     * ship with more chips rather than slower ones.
     */
    static FlashConfig forCapacity(std::uint64_t target_user_bytes);
};

/**
 * How a device names its placement statistics. Both kinds run the
 * same device model (flash_device.hh) and the same FTL (ftl.hh); the
 * kind picks only the stat names: "ftl.*" for a page-mapped SSD,
 * "log.*" for a zoned/log-structured one.
 */
enum class BackendKind {
    Ftl, ///< Page-mapped SSD: "ftl.*" stats.
    Zns, ///< ZNS/log-structured SSD: "log.*" stats.
};

/** Printable back-end name (the --flash-backend spelling). */
inline const char *
backendKindName(BackendKind kind)
{
    return kind == BackendKind::Zns ? "zns" : "ftl";
}

/** Parse a --flash-backend spelling; false if unrecognized. */
inline bool
parseBackendKind(const std::string &s, BackendKind *out)
{
    if (s == "ftl")
        *out = BackendKind::Ftl;
    else if (s == "zns")
        *out = BackendKind::Zns;
    else
        return false;
    return true;
}

/**
 * Multi-device fan-out parameters: how many devices the fabric
 * stripes logical pages across, and which stat names each one uses.
 * The defaults (one FTL device) reproduce the single-SSD system
 * byte-identically.
 */
struct FlashFabricConfig {
    std::uint32_t devices = 1;
    BackendKind backend = BackendKind::Ftl;
};

} // namespace astriflash::flash

#endif // ASTRIFLASH_FLASH_FLASH_CONFIG_HH
