/**
 * @file
 * Multi-device flash fabric.
 *
 * Composes M FlashDevices (all of one BackendKind) behind the one
 * surface the backside controllers and the OS paging model consume.
 * Logical pages are striped round-robin across devices
 * (lpnDevice/lpnLocal in flash_types.hh), so with M == 1 every command
 * routes to device 0 with its LPN unchanged and the fabric is a
 * zero-cost pass-through — the property the golden-stats byte-identity
 * tests pin down.
 *
 * Stat naming: with one device its stats register directly under the
 * fabric's registry (the legacy "flash.*" namespace); with more they
 * land in "dev<j>" child registries ("flash.dev<j>.*").
 */

#ifndef ASTRIFLASH_FLASH_FABRIC_HH
#define ASTRIFLASH_FLASH_FABRIC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/invariant.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

#include "flash_command.hh"
#include "flash_config.hh"
#include "flash_device.hh"
#include "flash_types.hh"

namespace astriflash::flash {

/** M striped flash devices behind one submit surface. */
class FlashFabric
{
  public:
    /**
     * @param dev_cfg        Geometry/timing applied to every device
     *                       (the caller sizes it per device).
     * @param fabric_cfg     Device count and stat-name kind.
     * @param preload_pages  Fabric-wide logical pages pre-loaded as
     *                       the dataset, split across devices by the
     *                       same striping submit() routes with.
     */
    FlashFabric(const std::string &name, const FlashConfig &dev_cfg,
                const FlashFabricConfig &fabric_cfg,
                std::uint64_t preload_pages);

    /**
     * Submit one typed command at @p now. Reads report completion and
     * queueing; writes report the host-visible buffer-accept tick in
     * @c complete.
     */
    FlashCommandResult
    submit(const FlashCommand &cmd, sim::Ticks now)
    {
        const std::uint32_t dev = lpnDevice(cmd.lpn, deviceCount());
        FlashCommand local = cmd;
        local.lpn = lpnLocal(cmd.lpn, deviceCount());
        return devs[dev].submit(local, now);
    }

    /**
     * Conservative whole-page read latency (controller + array, no
     * queueing) — the estimate the backside controller uses for
     * MSR-stalled misses' dataReady.
     */
    sim::Ticks readEstimate() const { return devs.front().readEstimate(); }

    /** Fabric-wide user capacity in logical pages. */
    std::uint64_t userPages() const;

    /** Page reads served since the last resetStats(). */
    std::uint64_t readsCompleted() const;

    /** Page writes accepted since the last resetStats(). */
    std::uint64_t writesAccepted() const;

    /** Reads that queued behind garbage collection (windowed). */
    std::uint64_t gcBlockedReadCount() const;

    /** Lifetime host page writes (not reset with the window). */
    std::uint64_t hostWrites() const;

    /** Lifetime media programs (host writes + GC relocations). */
    std::uint64_t mediaWrites() const;

    /** Media programs per host write over the whole fabric. */
    double
    writeAmplification() const
    {
        const std::uint64_t host = hostWrites();
        return host > 0 ? static_cast<double>(mediaWrites()) /
                              static_cast<double>(host)
                        : 1.0;
    }

    /** Worst per-device wear imbalance (erase-count spread). */
    std::uint32_t wearSpread() const;

    /** Zero windowed device statistics (end of warmup). Lifetime
     *  media counters (wear, write amplification) are not reset. */
    void resetStats();

    /** One device: stats register directly (legacy names); several:
     *  each device lands in a "dev<j>" child registry. */
    void regStats(sim::StatRegistry &reg) const;

    void checkInvariants(sim::InvariantChecker &chk) const;

    std::uint32_t
    deviceCount() const
    {
        return static_cast<std::uint32_t>(devs.size());
    }

    FlashDevice &device(std::uint32_t j) { return devs[j]; }
    const FlashDevice &device(std::uint32_t j) const { return devs[j]; }

    BackendKind backendKind() const { return kind; }

  private:
    BackendKind kind;
    std::vector<FlashDevice> devs;
};

} // namespace astriflash::flash

#endif // ASTRIFLASH_FLASH_FABRIC_HH
