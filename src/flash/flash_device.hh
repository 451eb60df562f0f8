/**
 * @file
 * SSD timing model: planes, channels, deprioritized writes, GC stalls.
 *
 * Combines the FTL (placement, GC policy) with busy-until timing for
 * every plane and channel. Reads occupy their plane for tR and their
 * channel for the page transfer; writes and GC relocations occupy the
 * plane for program/erase times and are serviced behind reads, matching
 * the paper's "flash writebacks are de-prioritized against reads". A
 * read that arrives while its plane is garbage-collecting is counted as
 * GC-blocked — the §VI-D interference metric.
 */

#ifndef ASTRIFLASH_FLASH_FLASH_DEVICE_HH
#define ASTRIFLASH_FLASH_FLASH_DEVICE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/address.hh"
#include "sim/invariant.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

#include "flash_command.hh"
#include "flash_config.hh"
#include "ftl.hh"

namespace astriflash::flash {

/**
 * 4 KB-page SSD with channel/plane parallelism: the one flash device
 * model. Its FTL places pages the same way for both BackendKinds; the
 * kind picks only the names of the placement stats.
 */
class FlashDevice
{
  public:
    struct Stats {
        sim::Counter reads;
        sim::Counter writes;
        sim::Counter gcBlockedReads;
        sim::Histogram readLatency;  ///< End-to-end ticks.
        sim::Histogram writeLatency; ///< Host-visible (ack) ticks.
    };

    /**
     * @param preload_pages  Logical pages pre-loaded as the dataset
     *                       (default: full user capacity).
     * @param kind           Stat names of the FTL ("ftl" or "log").
     */
    FlashDevice(std::string name, const FlashConfig &config,
                std::uint64_t preload_pages = ~std::uint64_t{0},
                BackendKind kind = BackendKind::Ftl);

    /**
     * Read logical page @p lpn arriving at @p now.
     * @param bytes  Bytes to transfer to the host (0 = whole page).
     *               The array read (tR) always fetches the full page;
     *               partial transfers (footprint mode) only shorten
     *               the channel occupancy.
     */
    FlashCommandResult read(Lpn lpn, sim::Ticks now,
                            mem::Bytes bytes = mem::Bytes{0});

    /**
     * Write logical page @p lpn arriving at @p now.
     *
     * The host-visible acknowledgment is the transfer into the device
     * buffer; the program (and any GC it triggers) occupies the plane
     * asynchronously afterwards.
     * @return tick when the device has accepted the page.
     */
    sim::Ticks write(Lpn lpn, sim::Ticks now);

    /**
     * Submit one typed command (the BC→flash channel payload) at
     * @p now. Reads report completion and queueing; writes report
     * the host-visible buffer-accept tick in @c complete.
     */
    FlashCommandResult
    submit(const FlashCommand &cmd, sim::Ticks now)
    {
        if (cmd.op == FlashCommand::Op::Read)
            return read(cmd.lpn, now, cmd.bytes);
        FlashCommandResult res;
        res.complete = write(cmd.lpn, now);
        return res;
    }

    const Ftl &ftl() const { return ftlModel; }
    const FlashConfig &config() const { return cfg; }
    const Stats &stats() const { return statsData; }

    /** Conservative whole-read latency: controller in/out + array. */
    sim::Ticks
    readEstimate() const
    {
        return 2 * (cfg.tRead + cfg.tController);
    }

    /** User capacity in pages. */
    std::uint64_t
    userPages() const
    {
        return ftlModel.userPages();
    }

    std::uint64_t
    readsCompleted() const
    {
        return statsData.reads.value();
    }

    std::uint64_t
    writesAccepted() const
    {
        return statsData.writes.value();
    }

    std::uint64_t
    gcBlockedReadCount() const
    {
        return statsData.gcBlockedReads.value();
    }

    std::uint64_t
    hostWrites() const
    {
        return ftlModel.stats().hostWrites.value();
    }

    std::uint64_t
    mediaWrites() const
    {
        return ftlModel.stats().flashPrograms.value();
    }

    std::uint32_t
    wearSpread() const
    {
        return ftlModel.eraseCountSpread();
    }

    /** Zero device-level statistics (end of warmup). FTL counters
     *  (wear, write amplification) are cumulative and not reset. */
    void
    resetStats()
    {
        statsData = Stats{};
    }

    /**
     * Register device stats into @p reg; the FTL lands in an "ftl"
     * (or, for BackendKind::Zns, "log") child registry.
     */
    void
    regStats(sim::StatRegistry &reg) const
    {
        reg.registerCounter("reads", &statsData.reads,
                            "page reads served by the device");
        reg.registerCounter("writes", &statsData.writes,
                            "page writes accepted by the device");
        reg.registerCounter("gc_blocked_reads", &statsData.gcBlockedReads,
                            "reads that queued behind garbage collection");
        reg.registerHistogram("read_latency", &statsData.readLatency,
                              "end-to-end read latency in ticks");
        reg.registerHistogram("write_latency", &statsData.writeLatency,
                              "host-visible write-ack latency in ticks");
        ftlModel.regStats(reg);
    }

    /**
     * Audit device timing state: geometry-sized plane/channel tables,
     * GC-blocked reads bounded by reads, one latency sample per
     * operation, and the FTL's own invariants.
     */
    void
    checkInvariants(sim::InvariantChecker &chk) const
    {
        SIM_INVARIANT(chk, planes.size() == cfg.totalPlanes());
        SIM_INVARIANT(chk, channelBusy.size() == cfg.channels);
        SIM_INVARIANT(chk,
                      statsData.gcBlockedReads.value() <=
                          statsData.reads.value());
        SIM_INVARIANT_MSG(chk,
                          statsData.readLatency.count() ==
                              statsData.reads.value(),
                          "%llu reads but %llu latency samples",
                          static_cast<unsigned long long>(
                              statsData.reads.value()),
                          static_cast<unsigned long long>(
                              statsData.readLatency.count()));
        SIM_INVARIANT(chk,
                      statsData.writeLatency.count() ==
                          statsData.writes.value());
        ftlModel.checkInvariants(chk);
    }

  private:
    /**
     * Read/write occupancy is tracked separately: modern NAND
     * supports program/erase suspend, and the FTL de-prioritizes
     * writebacks (§IV-B2), so reads only queue behind other reads —
     * except during garbage collection, whose relocation/erase burst
     * blocks the whole plane (the §VI-D interference).
     */
    struct PlaneState {
        sim::Ticks readBusyUntil = 0;
        sim::Ticks writeBusyUntil = 0;
        sim::Ticks gcUntil = 0;
    };

    std::uint32_t channelOf(std::uint32_t plane) const;

    std::string devName;
    FlashConfig cfg;
    Ftl ftlModel;
    std::vector<PlaneState> planes;
    std::vector<sim::Ticks> channelBusy;
    Stats statsData;
};

} // namespace astriflash::flash

#endif // ASTRIFLASH_FLASH_FLASH_DEVICE_HH
