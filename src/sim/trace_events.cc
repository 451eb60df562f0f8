#include "trace_events.hh"

#include "json.hh"
#include "logging.hh"

namespace astriflash::sim {

const char *
tracePointName(TracePoint p)
{
    switch (p) {
      case TracePoint::LlcMiss:
        return "llc_miss";
      case TracePoint::MsrInsert:
        return "msr_insert";
      case TracePoint::MsrDedup:
        return "msr_dedup";
      case TracePoint::MsrStall:
        return "msr_stall";
      case TracePoint::FlashReadIssue:
        return "flash_read_issue";
      case TracePoint::FlashReadDone:
        return "flash_read_done";
      case TracePoint::PageFill:
        return "page_fill";
      case TracePoint::PageEvict:
        return "page_evict";
      case TracePoint::EvictDrain:
        return "evict_drain";
      case TracePoint::GcBlocked:
        return "gc_blocked";
      case TracePoint::ThreadPark:
        return "thread_park";
      case TracePoint::ThreadResume:
        return "thread_resume";
      case TracePoint::JobStart:
        return "job_start";
      case TracePoint::JobFinish:
        return "job_finish";
    }
    return "unknown";
}

Tracer &
Tracer::instance()
{
    // One sink per host thread: a simulation owns its thread for the
    // duration of a run (SweepRunner runs whole systems per thread),
    // so per-thread sinks give each parallel simulation an isolated
    // tracer with zero synchronization on the emit path.
    thread_local Tracer tracer;
    return tracer;
}

void
Tracer::enable(std::size_t capacity)
{
    ASTRI_ASSERT(capacity > 0);
    ring.assign(capacity, TraceRecord{});
    start = 0;
    used = 0;
    droppedCount = 0;
    emittedCount = 0;
    active = true;
}

void
Tracer::disable()
{
    active = false;
    ring.clear();
    ring.shrink_to_fit();
    start = 0;
    used = 0;
}

std::size_t
Tracer::size() const
{
    return used;
}

void
Tracer::clear()
{
    start = 0;
    used = 0;
    droppedCount = 0;
    emittedCount = 0;
}

void
Tracer::record(TracePoint point, Ticks tick, std::uint32_t core,
               std::uint64_t addr, std::uint64_t detail)
{
    TraceRecord &slot = ring[(start + used) % ring.size()];
    if (used == ring.size()) {
        // Ring full: the slot being written is the oldest record.
        start = (start + 1) % ring.size();
        ++droppedCount;
    } else {
        ++used;
    }
    slot.tick = tick;
    slot.addr = addr;
    slot.detail = detail;
    slot.core = core;
    slot.point = point;
    ++emittedCount;
}

void
Tracer::writeJsonl(std::ostream &os) const
{
    forEach([&os](const TraceRecord &r) {
        // One compact JSON object per line (JSONL).
        JsonWriter w(os, /*pretty=*/false);
        w.beginObject();
        w.field("tick", r.tick);
        w.field("event", tracePointName(r.point));
        if (r.core != TraceRecord::kNoCore)
            w.field("core", static_cast<std::uint64_t>(r.core));
        w.field("addr", r.addr);
        w.field("detail", r.detail);
        w.endObject();
        os << '\n';
    });
}

} // namespace astriflash::sim
