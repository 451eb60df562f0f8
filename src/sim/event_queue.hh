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
 * - Every scheduled event runs: no component cancels one, so the
 *   queue keeps no handles and the heap holds no tombstones
 *   (DESIGN.md §24).
 * - An event may carry a warm hook that the queue calls while the
 *   event before it runs, so its owner can prefetch the host lines
 *   its callback will touch (DESIGN.md §9.4).
 */

#ifndef ASTRIFLASH_SIM_EVENT_QUEUE_HH
#define ASTRIFLASH_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "inline_fn.hh"
#include "invariant.hh"
#include "ticks.hh"

namespace astriflash::sim {

/**
 * Tie-break priorities for events scheduled at the same tick.
 * Lower values run first. Any int is a rank: the cores cast theirs
 * above Default (core::SimCore::eventPrio).
 */
enum class EventPriority : int {
    Default = 0, ///< Ordinary model events.
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

    /**
     * Host prefetch hook of a pending event. Each time runSteps()
     * pops an event, before running it, the queue calls the hook of
     * the new head. A hook may only read simulator state and issue
     * host prefetch hints: nothing it does can move a result. Warm{}
     * is no hook.
     */
    struct Warm {
        void (*fn)(void *arg);
        void *arg;
    };

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
     * @param warm  Host prefetch hook; see Warm.
     */
    void schedule(Ticks when, Callback fn,
                     EventPriority prio = EventPriority::Default,
                     Warm warm = {});

    /** Schedule @p fn to run @p delta ticks from now. */
    void
    scheduleIn(Ticks delta, Callback fn,
               EventPriority prio = EventPriority::Default,
               Warm warm = {})
    {
        schedule(now + delta, std::move(fn), prio, warm);
    }

    /** Number of pending events. */
    std::size_t pending() const { return heap.size(); }

    /** True if no runnable events remain. */
    bool empty() const { return pending() == 0; }

    /**
     * Pre-size the heap and slot table for @p expected_events
     * simultaneously pending events, so steady-state scheduling never
     * reallocates. Callers derive the hint from their configuration
     * (cores, queue depths, MSHR/MSR capacities).
     */
    void reserve(std::size_t expected_events);

    /** Run all events until the queue drains. @return events executed. */
    std::uint64_t run() { return runSteps(~std::uint64_t{0}); }

    /** Execute at most @p max_events events. @return events executed. */
    std::uint64_t runSteps(std::uint64_t max_events);

    /** Total events executed over the queue's lifetime. */
    std::uint64_t executed() const { return executedCount; }

    /**
     * Audit the kernel: heap/slot cross-accounting, no pending event
     * in the past, and the heap property.
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
        Warm warm{};       ///< Cleared on release.
        bool busy = false; ///< Scheduled and not yet fired.
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

    /** Push a node and restore the heap property (sift-up). */
    void heapPush(const Node &n);

    /** Pop the root node and restore the heap property (sift-down). */
    Node heapPop();

    /** Return @p slot to the free list. */
    void releaseSlot(std::uint32_t slot);

    /** Call the warm hook of the next event (see Warm). */
    void warmNext() const;

    Ticks now = 0;
    std::uint64_t nextSeq = 1; ///< Next insertion sequence number.
    std::uint64_t tieSeed = 0;
    std::uint64_t executedCount = 0;
    std::vector<Node> heap; ///< Binary heap, root at index 0.
    std::vector<Slot> slots;
    std::vector<std::uint32_t> freeSlots;
};

} // namespace astriflash::sim

#endif // ASTRIFLASH_SIM_EVENT_QUEUE_HH
