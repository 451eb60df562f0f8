#include "flash_device.hh"

#include "sim/logging.hh"
#include "sim/trace_events.hh"

namespace astriflash::flash {

FlashConfig
FlashConfig::forCapacity(std::uint64_t target_user_bytes)
{
    FlashConfig cfg;
    // Grow channels up to 16, then dies, mirroring how product lines
    // scale capacity with more chips at roughly constant per-chip
    // timing.
    while (cfg.userBytes() < target_user_bytes) {
        if (cfg.channels < 16) {
            cfg.channels *= 2;
        } else if (cfg.diesPerChannel < 16) {
            cfg.diesPerChannel *= 2;
        } else {
            cfg.blocksPerPlane *= 2;
        }
    }
    // Shrink for small targets so scaled-down simulations keep a
    // realistic plane count without GB-scale metadata.
    while (cfg.userBytes() / 2 >= target_user_bytes &&
           cfg.blocksPerPlane > 64) {
        cfg.blocksPerPlane /= 2;
    }
    return cfg;
}

FlashDevice::FlashDevice(std::string name, const FlashConfig &config,
                         std::uint64_t preload_pages, BackendKind kind)
    : devName(std::move(name)), cfg(config),
      ftlModel(devName + ".ftl", config, preload_pages, kind)
{
    planes.resize(cfg.totalPlanes());
    channelBusy.resize(cfg.channels, 0);
}

std::uint32_t
FlashDevice::channelOf(std::uint32_t plane) const
{
    // Consecutive planes alternate channels so the LPN plane stripe
    // also stripes channels.
    return plane % cfg.channels;
}

FlashCommandResult
FlashDevice::read(Lpn lpn, sim::Ticks now,
                  mem::Bytes xfer_bytes)
{
    statsData.reads.inc();
    // aflint-allow-next-line(AF011): channel-occupancy arithmetic.
    std::uint64_t bytes = xfer_bytes.raw();
    if (bytes == 0 || bytes > cfg.pageBytes)
        bytes = cfg.pageBytes;
    const PhysPage loc = ftlModel.translate(lpn);
    PlaneState &plane = planes[loc.plane];
    sim::Ticks &channel = channelBusy[channelOf(loc.plane)];

    FlashCommandResult res;
    const sim::Ticks issue = now + cfg.tController;
    res.blockedByGc = plane.gcUntil > issue;

    // Reads queue behind other reads and any active GC burst, but
    // suspend ordinary (writeback) programs.
    sim::Ticks array_start =
        issue > plane.readBusyUntil ? issue : plane.readBusyUntil;
    if (plane.gcUntil > array_start)
        array_start = plane.gcUntil;
    const sim::Ticks array_done = array_start + cfg.tRead;
    plane.readBusyUntil = array_done;

    const sim::Ticks xfer_start =
        array_done > channel ? array_done : channel;
    const sim::Ticks xfer = cfg.tChannelXfer * bytes / cfg.pageBytes;
    const sim::Ticks done = xfer_start + (xfer ? xfer : 1);
    channel = done;

    res.complete = done;
    res.queueing = (array_start - issue) + (xfer_start - array_done);
    if (res.blockedByGc) {
        statsData.gcBlockedReads.inc();
        sim::traceEvent(sim::TracePoint::GcBlocked, now,
                        // aflint-allow-next-line(AF011)
                        sim::TraceRecord::kNoCore, lpn.raw(),
                        plane.gcUntil - issue);
    }
    statsData.readLatency.sample(res.complete - now);
    return res;
}

sim::Ticks
FlashDevice::write(Lpn lpn, sim::Ticks now)
{
    statsData.writes.inc();
    GcWork gc;
    const PhysPage loc = ftlModel.write(lpn, &gc);
    PlaneState &plane = planes[loc.plane];
    sim::Ticks &channel = channelBusy[channelOf(loc.plane)];

    // Host transfer into the device buffer is the visible latency.
    const sim::Ticks issue = now + cfg.tController;
    const sim::Ticks xfer_start = issue > channel ? issue : channel;
    const sim::Ticks acked = xfer_start + cfg.tChannelXfer;
    channel = acked;

    // The program happens behind earlier queued writes; GC
    // relocations are in-plane copybacks (read + program each) plus
    // the erase, and that burst blocks reads too.
    const sim::Ticks prog_start =
        acked > plane.writeBusyUntil ? acked : plane.writeBusyUntil;
    sim::Ticks plane_work = cfg.tProgram;
    if (gc.relocatedPages > 0 || gc.erasedBlocks > 0) {
        plane_work +=
            static_cast<sim::Ticks>(gc.relocatedPages) *
                (cfg.tRead + cfg.tProgram) +
            static_cast<sim::Ticks>(gc.erasedBlocks) * cfg.tErase;
        plane.gcUntil = prog_start + plane_work;
    }
    plane.writeBusyUntil = prog_start + plane_work;

    statsData.writeLatency.sample(acked - now);
    return acked;
}

} // namespace astriflash::flash
