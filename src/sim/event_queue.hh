/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global-ordered event queue drives every timing model in the
 * simulator. Events are arbitrary callables scheduled at an absolute
 * tick; ties are broken by an explicit priority and then by insertion
 * order, so simulations are fully deterministic.
 *
 * Hot-path design (see DESIGN.md §9):
 *
 * - Callbacks are InlineFunction (small-buffer optimized), so a
 *   schedule() with a capture up to 48 bytes never touches the heap.
 * - The binary heap holds small POD nodes only; each node points into
 *   a slot table that owns the callback, so sift operations move
 *   24-byte PODs instead of type-erased callables.
 * - Cancellation is generation-tagged lazy deletion: deschedule()
 *   flips a bit in the slot (O(1), no hashing) and the node is
 *   discarded when it surfaces. When cancelled nodes exceed a fixed
 *   fraction of the heap, the heap is compacted in one O(n) pass, so
 *   tombstones cannot grow without bound.
 */

#ifndef ASTRIFLASH_SIM_EVENT_QUEUE_HH
#define ASTRIFLASH_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "inline_fn.hh"
#include "invariant.hh"
#include "ticks.hh"

namespace astriflash::sim {

class CausalityAuditor;

/**
 * Opaque handle identifying a scheduled event (for cancellation).
 * Packs a slot index and a generation tag; a handle goes stale the
 * moment its event fires or is cancelled, and a stale handle can never
 * cancel the slot's next occupant.
 */
using EventId = std::uint64_t;

/** Sentinel returned for an event that could not be scheduled. */
inline constexpr EventId kInvalidEventId = 0;

/**
 * Tie-break priorities for events scheduled at the same tick.
 * Lower values run first.
 */
enum class EventPriority : int {
    ClockEdge = -10,   ///< Clock-like maintenance events.
    Default = 0,       ///< Ordinary model events.
    Stats = 10,        ///< End-of-quantum statistics sampling.
    Teardown = 100,    ///< Simulation exit bookkeeping.
};

/**
 * Deterministic discrete-event queue.
 *
 * Not thread-safe: each queue belongs to exactly one simulated system,
 * and one system runs on one host thread. Host parallelism comes from
 * running many isolated systems side by side (sim::SweepRunner), never
 * from sharing a queue.
 */
class EventQueue
{
  public:
    using Callback = InlineFunction<48>;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Ticks curTick() const { return now; }

    /**
     * Schedule @p fn to run at absolute time @p when.
     *
     * @param when  Absolute tick; must be >= curTick().
     * @param fn    Callable invoked when the event fires.
     * @param prio  Tie-break priority at equal ticks.
     * @return Handle usable with deschedule().
     */
    EventId schedule(Ticks when, Callback fn,
                     EventPriority prio = EventPriority::Default);

    /** Schedule @p fn to run @p delta ticks from now. */
    EventId
    scheduleIn(Ticks delta, Callback fn,
               EventPriority prio = EventPriority::Default)
    {
        return schedule(now + delta, std::move(fn), prio);
    }

    /**
     * Cancel a pending event.
     * @return true if the event was pending and is now cancelled.
     */
    bool deschedule(EventId id);

    /** Number of pending (non-cancelled) events. */
    std::size_t
    pending() const
    {
        return heap.size() - cancelledCount;
    }

    /** True if no runnable events remain. */
    bool empty() const { return pending() == 0; }

    /**
     * Pre-size the heap and slot table for @p expected_events
     * simultaneously pending events, so steady-state scheduling never
     * reallocates. Callers derive the hint from their configuration
     * (cores, queue depths, MSHR/MSR capacities).
     */
    void reserve(std::size_t expected_events);

    /**
     * Run events until the queue drains or @p limit is reached.
     * Events scheduled exactly at @p limit still run.
     * @return number of events executed.
     */
    std::uint64_t runUntil(Ticks limit);

    /** Run all events until the queue drains. */
    std::uint64_t run() { return runUntil(kTickNever); }

    /** Execute at most @p max_events events. @return events executed. */
    std::uint64_t runSteps(std::uint64_t max_events);

    /** Total events executed over the queue's lifetime. */
    std::uint64_t executed() const { return executedCount; }

    /** Cancelled nodes still parked in the heap (tests, stats). */
    std::size_t cancelledInHeap() const { return cancelledCount; }

    /** Heap compactions performed over the queue's lifetime. */
    std::uint64_t compactions() const { return compactionCount; }

    /**
     * Audit the kernel: heap/slot cross-accounting, generation-tag
     * sanity, the compaction policy's tombstone bound, and no pending
     * event in the past.
     */
    void checkInvariants(InvariantChecker &chk) const;

    /**
     * True when the same-tick perturbation hook is compiled in
     * (checks builds only; plain Release compiles it out so the hot
     * comparator stays two branches).
     */
    static constexpr bool
    tiePerturbationCompiledIn()
    {
        return ASTRIFLASH_CHECKS_ENABLED != 0;
    }

    /**
     * Perturb same-tick tie-breaking (tools/detshake): events at
     * equal (when, prio) are ordered by a seeded permutation of
     * their insertion sequence instead of the sequence itself. Seed
     * 0 restores the exact unperturbed order. A correct simulation
     * produces byte-identical stats under every seed; any divergence
     * is an order-dependence bug.
     *
     * Fatal if @p seed is nonzero and the hook is compiled out.
     */
    void setTiePerturbation(std::uint64_t seed);

    /** Attach the causality auditor (null detaches). */
    void setAuditor(CausalityAuditor *a) { auditor = a; }

    /**
     * Compaction policy: compact when more than kCompactDenominator-th
     * of a heap larger than kCompactMinHeap nodes is tombstones.
     * Exposed for tests and the invariant audit.
     */
    static constexpr std::size_t kCompactMinHeap = 64;
    static constexpr std::size_t kCompactDenominator = 2;

  private:
    /** POD heap node; the callback lives in slots[slot]. */
    struct Node {
        Ticks when;
        std::int32_t prio;
        std::uint32_t slot;
        std::uint64_t seq; ///< Insertion order, tie-break of last resort.
#if ASTRIFLASH_CHECKS_ENABLED
        /** Perturbed tie key: equals seq at seed 0, a seeded
         *  permutation of it otherwise (see setTiePerturbation). */
        std::uint64_t tie;
#endif
    };

    /** Callback owner + liveness state for one in-flight event. */
    struct Slot {
        Callback fn;
        std::uint32_t gen = 1; ///< Bumped on release; 0 is never used.
        bool busy = false;      ///< Scheduled and not yet fired/reaped.
        bool cancelled = false; ///< deschedule() seen; reap on surface.
    };

    /** Max-heap comparator on "later runs first popped last". */
    static bool
    later(const Node &a, const Node &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        if (a.prio != b.prio)
            return a.prio > b.prio;
#if ASTRIFLASH_CHECKS_ENABLED
        if (a.tie != b.tie)
            return a.tie > b.tie;
#endif
        return a.seq > b.seq;
    }

    static EventId
    packId(std::uint32_t slot, std::uint32_t gen)
    {
        return (static_cast<EventId>(slot) << 32) | gen;
    }

    /** Push a node and restore the heap property (sift-up). */
    void heapPush(const Node &n);

    /** Pop the root node and restore the heap property (sift-down). */
    Node heapPop();

    /** Return @p slot to the free list and invalidate its handles. */
    void releaseSlot(std::uint32_t slot);

    /** Drop every cancelled node in one pass and re-heapify. */
    void compact();

    /** True when the tombstone fraction calls for compaction. */
    bool
    wantCompaction() const
    {
        return heap.size() > kCompactMinHeap &&
               cancelledCount * kCompactDenominator > heap.size();
    }

    Ticks now = 0;
    std::uint64_t nextSeq = 1; ///< Next insertion sequence number.
    std::uint64_t tieSeed = 0;
    CausalityAuditor *auditor = nullptr;
    std::uint64_t executedCount = 0;
    std::uint64_t compactionCount = 0;
    std::size_t cancelledCount = 0;
    std::vector<Node> heap; ///< Binary heap, root at index 0.
    std::vector<Slot> slots;
    std::vector<std::uint32_t> freeSlots;
};

} // namespace astriflash::sim

#endif // ASTRIFLASH_SIM_EVENT_QUEUE_HH
