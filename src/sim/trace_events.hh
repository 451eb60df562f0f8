/**
 * @file
 * Miss-lifecycle event tracing.
 *
 * A fixed-size ring buffer of typed events following one DRAM-cache
 * miss end to end: LLC miss -> MSR insert/dedup/stall -> flash read
 * issue/complete -> page fill -> thread resume (plus eviction, GC, and
 * scheduling edges). The sink is thread-global (one per host thread)
 * so components emit without plumbing a pointer through every
 * constructor, and parallel sweeps (sim::SweepRunner) each record into
 * an isolated ring; when disabled (the default) emit() is a single
 * branch on a bool — no heap allocation, no formatting, no lock — so
 * tracing costs nothing unless `--trace=FILE` turned it on.
 *
 * Events are drained as JSONL (one JSON object per line), which both
 * `jq` and Chrome's trace importers consume after a trivial transform;
 * see DESIGN.md for the schema.
 */

#ifndef ASTRIFLASH_SIM_TRACE_EVENTS_HH
#define ASTRIFLASH_SIM_TRACE_EVENTS_HH

#include <cstdint>
#include <ostream>
#include <vector>

#include "ticks.hh"

namespace astriflash::sim {

/** Typed miss-lifecycle trace points. */
enum class TracePoint : std::uint8_t {
    LlcMiss,          ///< Core's access missed the whole hierarchy.
    MsrInsert,        ///< BC allocated a Miss Status Row entry.
    MsrDedup,         ///< Miss merged onto an outstanding entry.
    MsrStall,         ///< MSR set full; miss queued behind it.
    FlashReadIssue,   ///< BC issued the 4 KB flash read.
    FlashReadDone,    ///< Flash data arrived at the BC.
    PageFill,         ///< Page installed into its DRAM-cache frame.
    PageEvict,        ///< Victim page moved to the evict buffer.
    EvictDrain,       ///< Evict-buffer entry written back to flash.
    GcBlocked,        ///< A read arrived while its plane GC'd.
    ThreadPark,       ///< Job halted on a miss (switch-on-miss).
    ThreadResume,     ///< Parked job rescheduled after its fill.
    JobStart,         ///< Job first scheduled on a core.
    JobFinish,        ///< Job retired its last op.
};

/** Stable wire name of a trace point ("llc_miss", "page_fill", ...). */
const char *tracePointName(TracePoint p);

/** One ring-buffer record (POD, 32 bytes). */
struct TraceRecord {
    Ticks tick = 0;
    std::uint64_t addr = 0;   ///< Page/block address (0 if n/a).
    std::uint64_t detail = 0; ///< Point-specific payload (latency,
                              ///< waiter count, job id...).
    std::uint32_t core = kNoCore;
    TracePoint point = TracePoint::LlcMiss;

    static constexpr std::uint32_t kNoCore = ~std::uint32_t{0};
};

/**
 * Per-host-thread trace sink.
 *
 * Disabled by default; enable(capacity) pre-allocates the ring so the
 * emit path never allocates. The ring keeps the newest records: once
 * full, new events overwrite the oldest (dropped() counts casualties).
 */
class Tracer
{
  public:
    /** The calling thread's sink. */
    static Tracer &instance();

    /** Pre-allocate @p capacity records and start recording. */
    void enable(std::size_t capacity);

    /** Stop recording and release the ring. */
    void disable();

    /** True while recording. */
    bool enabled() const { return active; }

    /** Records currently held (<= capacity). */
    std::size_t size() const;

    /** Events overwritten because the ring was full. */
    std::uint64_t dropped() const { return droppedCount; }

    /** Total events ever emitted while enabled. */
    std::uint64_t emitted() const { return emittedCount; }

    /** Forget buffered records (keeps the ring allocated). */
    void clear();

    /**
     * Record one event. Hot path: when disabled this is one predictable
     * branch; when enabled it is a store into the pre-allocated ring.
     */
    void
    emit(TracePoint point, Ticks tick, std::uint32_t core,
         std::uint64_t addr, std::uint64_t detail = 0)
    {
        if (!active)
            return;
        record(point, tick, core, addr, detail);
    }

    /** Write buffered records, oldest first, as JSONL. */
    void writeJsonl(std::ostream &os) const;

    /** Visit buffered records oldest first (tests). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        const std::size_t n = size();
        for (std::size_t i = 0; i < n; ++i)
            fn(ring[(start + i) % ring.size()]);
    }

  private:
    Tracer() = default;
    void record(TracePoint point, Ticks tick, std::uint32_t core,
                std::uint64_t addr, std::uint64_t detail);

    bool active = false;
    std::vector<TraceRecord> ring;
    std::size_t start = 0; ///< Oldest record when wrapped.
    std::size_t used = 0;  ///< Live records.
    std::uint64_t droppedCount = 0;
    std::uint64_t emittedCount = 0;
};

/** Convenience forwarder: Tracer::instance().emit(...). */
inline void
traceEvent(TracePoint point, Ticks tick, std::uint32_t core,
           std::uint64_t addr, std::uint64_t detail = 0)
{
    Tracer::instance().emit(point, tick, core, addr, detail);
}

} // namespace astriflash::sim

#endif // ASTRIFLASH_SIM_TRACE_EVENTS_HH
