/**
 * @file
 * Bounded, tick-stamped, FIFO message channel between components.
 *
 * The simulator is call-driven rather than port-driven: a producer
 * pushes a message and the consumer services it inside the same
 * synchronous call chain (directly, or through the channel's drain
 * hook). Instantaneous queue depth is therefore always ~0; what a
 * finite hardware queue actually bounds is the number of messages
 * whose *transactions* are still in flight. The channel models this
 * with time-based occupancy: pop() declares the tick at which the
 * message's slot is recycled (e.g. when the miss it carried finishes
 * installing), and push() counts every slot whose release tick is
 * still in the future. When the count reaches capacity the push
 * stalls — the accept tick moves out to the point where enough slots
 * have drained — and the stall is charged to the producer's timing
 * and to the channel's stall statistics. At effectively-unbounded
 * depth the accept tick always equals the push tick, so the channel
 * layer is timing-neutral by construction.
 *
 * Producers on different cores run with skewed local clocks, so push
 * ticks are NOT monotonic; the channel stays FIFO in push order and
 * prunes released slots against each push's own timestamp.
 */

#ifndef ASTRIFLASH_SIM_BOUNDED_CHANNEL_HH
#define ASTRIFLASH_SIM_BOUNDED_CHANNEL_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "causality.hh"
#include "invariant.hh"
#include "logging.hh"
#include "stats.hh"
#include "ticks.hh"

namespace astriflash::sim {

/** Fixed-capacity FIFO channel carrying messages of type @p Msg. */
template <typename Msg>
class BoundedChannel
{
  public:
    /** A queued message with its enqueue timestamps. */
    struct Stamped {
        Msg msg;
        Ticks pushedAt = 0;   ///< Producer's request tick.
        Ticks acceptedAt = 0; ///< After any full-queue stall.
        std::uint64_t seq = 0; ///< Push order, 1-based (audit key).
    };

    struct Stats {
        Counter pushes;
        Counter pops;
        Counter fullStalls; ///< Pushes that found the channel full.
        Counter stallTicks; ///< Total backpressure delay charged.
        Average occupancy;  ///< In-flight slots sampled at each push.
        std::uint64_t peakOccupancy = 0;
    };

    /** Invoked after every push; consumers drain synchronously. */
    using DrainHook = std::function<void()>;

    /**
     * @param name      Instance name (stats, audit reports).
     * @param capacity  Slot count; >= 1.
     * @param contract  Declared determinism contract (lookahead +
     *                  push monotonicity). Channels inside src/ must
     *                  declare it explicitly (aflint rule AF018); the
     *                  default is the vacuous contract for tests.
     */
    BoundedChannel(std::string name, std::uint32_t capacity,
                   ChannelContract contract = {})
        : chName(std::move(name)), cap(capacity),
          channelContract(contract)
    {
        if (capacity == 0)
            ASTRI_FATAL("%s: channel needs capacity >= 1",
                        chName.c_str());
        if ((auditor = CausalityAuditor::current()) != nullptr)
            auditId = auditor->registerChannel(chName,
                                              channelContract);
    }

    BoundedChannel(const BoundedChannel &) = delete;
    BoundedChannel &operator=(const BoundedChannel &) = delete;

    /** Instance name (stat/invariant registration). */
    const std::string &name() const { return chName; }

    /** Configured slot count. */
    std::uint32_t capacity() const { return cap; }

    /** Declared determinism contract. */
    const ChannelContract &contract() const { return channelContract; }

    /** Messages pushed but not yet popped. */
    bool empty() const { return waiting.empty(); }

    /** Slots still owned by in-flight transactions at @p now. */
    std::uint32_t
    inFlight(Ticks now) const
    {
        std::size_t busy = waiting.size();
        for (const Ticks t : busyUntil) {
            if (t > now)
                ++busy;
        }
        return static_cast<std::uint32_t>(busy);
    }

    /** Backpressure signal: would a push at @p now stall? */
    bool wouldStall(Ticks now) const { return inFlight(now) >= cap; }

    /**
     * Enqueue @p msg at @p now.
     *
     * @return the accept tick: @p now if a slot is free, else the tick
     *         at which enough in-flight slots drain. The producer must
     *         treat the accept tick as when the message actually
     *         entered the channel.
     */
    Ticks
    push(Msg msg, Ticks now)
    {
        Ticks accept = now;
        prune(now);
        const std::size_t occ = busyUntil.size() + waiting.size();
        if (occ >= cap) {
            // Need (occ - cap + 1) slots back. Only popped slots have
            // known release ticks; un-popped ones would deadlock the
            // producer, which the synchronous pump discipline (every
            // push is drained before the next) makes impossible.
            const std::size_t k = occ - cap + 1;
            SIM_CHECK_MSG(k <= busyUntil.size(),
                          "%s: full with %zu un-drained messages",
                          chName.c_str(), waiting.size());
            std::nth_element(busyUntil.begin(),
                             busyUntil.begin() +
                                 static_cast<std::ptrdiff_t>(k - 1),
                             busyUntil.end());
            const Ticks freed = busyUntil[k - 1];
            accept = freed > now ? freed : now;
            statsData.fullStalls.inc();
            statsData.stallTicks.inc(accept - now);
            prune(accept);
        }
        statsData.pushes.inc();
        const std::size_t live = busyUntil.size() + waiting.size() + 1;
        statsData.occupancy.sample(static_cast<double>(live));
        if (live > statsData.peakOccupancy)
            statsData.peakOccupancy = live;
        const std::uint64_t seq = ++lastSeq;
        waiting.push_back(Stamped{std::move(msg), now, accept, seq});
        if (auditor)
            auditor->onPush(auditId, seq, now, accept);
        // The consumer drains synchronously; the hook re-enters this
        // channel.
        if (drainHook)
            drainHook();
        return accept;
    }

    /** Oldest un-popped message. Caller checks !empty(). */
    Stamped &
    front()
    {
        ASTRI_ASSERT_MSG(!waiting.empty(), "%s: front() on empty",
                         chName.c_str());
        return waiting.front();
    }

    const Stamped &
    front() const
    {
        ASTRI_ASSERT_MSG(!waiting.empty(), "%s: front() on empty",
                         chName.c_str());
        return waiting.front();
    }

    /**
     * Dequeue the front message. @p consumed_at is the tick the
     * consumer acts on the message (the delivery tick the causality
     * auditor certifies against the declared lookahead); the slot
     * stays occupied until @p release_at (the tick the carried
     * transaction completes and the hardware queue entry is
     * recycled).
     */
    void
    dropFront(Ticks consumed_at, Ticks release_at)
    {
        ASTRI_ASSERT_MSG(!waiting.empty(), "%s: dropFront() on empty",
                         chName.c_str());
        if (auditor) {
            const Stamped &s = waiting.front();
            auditor->onDeliver(auditId, s.seq, s.pushedAt,
                               s.acceptedAt, consumed_at);
        }
        waiting.pop_front();
        statsData.pops.inc();
        busyUntil.push_back(release_at);
    }

    /** dropFront() where consumption and slot release coincide. */
    void dropFront(Ticks release_at)
    {
        dropFront(release_at, release_at);
    }

    /** Convenience: move the front message out and drop it. */
    Msg
    pop(Ticks consumed_at, Ticks release_at)
    {
        Msg m = std::move(front().msg);
        dropFront(consumed_at, release_at);
        return m;
    }

    /** pop() where consumption and slot release coincide. */
    Msg pop(Ticks release_at) { return pop(release_at, release_at); }

    /** Install the consumer's synchronous drain hook. */
    void setDrainHook(DrainHook hook) { drainHook = std::move(hook); }

    const Stats &stats() const { return statsData; }

    /**
     * Start a fresh measurement window mid-flight: counters restart
     * with the conservation law re-based on the currently queued
     * messages (pushes := queued, pops := 0) so the invariant audit
     * holds across the reset, and the peak restarts at the current
     * queue depth. In-flight slot release ticks are untouched.
     */
    void
    resetStats()
    {
        statsData.pushes.reset();
        statsData.pushes.inc(waiting.size());
        statsData.pops.reset();
        statsData.fullStalls.reset();
        statsData.stallTicks.reset();
        statsData.occupancy.reset();
        statsData.peakOccupancy = waiting.size();
    }

    /** Register channel stats into @p reg. */
    void
    regStats(StatRegistry &reg) const
    {
        reg.registerCounter("pushes", &statsData.pushes,
                            "messages enqueued into the channel");
        reg.registerCounter("pops", &statsData.pops,
                            "messages dequeued by the consumer");
        reg.registerCounter("full_stalls", &statsData.fullStalls,
                            "pushes that found every slot in flight");
        reg.registerCounter("stall_ticks", &statsData.stallTicks,
                            "total backpressure delay in ticks");
        reg.registerAverage("occupancy", &statsData.occupancy,
                            "in-flight slots sampled at each push");
        reg.registerUint("peak_occupancy", &statsData.peakOccupancy,
                         "maximum in-flight slots over the run");
    }

    /**
     * Audit the channel: conservation (pushes == pops + un-popped),
     * stamp sanity (no message accepted before it was pushed), stall
     * accounting (stall ticks imply full stalls), and the peak bound.
     */
    void
    checkInvariants(InvariantChecker &chk) const
    {
        SIM_INVARIANT_MSG(chk,
                          statsData.pushes.value() ==
                              statsData.pops.value() + waiting.size(),
                          "%s conservation: %llu pushes != %llu pops "
                          "+ %zu queued",
                          chName.c_str(),
                          static_cast<unsigned long long>(
                              statsData.pushes.value()),
                          static_cast<unsigned long long>(
                              statsData.pops.value()),
                          waiting.size());
        std::uint64_t prev_seq = 0;
        for (const Stamped &s : waiting) {
            SIM_INVARIANT_MSG(chk, s.acceptedAt >= s.pushedAt,
                              "%s: message accepted at %llu before "
                              "its push at %llu",
                              chName.c_str(),
                              static_cast<unsigned long long>(
                                  s.acceptedAt),
                              static_cast<unsigned long long>(
                                  s.pushedAt));
            SIM_INVARIANT_MSG(chk,
                              s.seq > prev_seq && s.seq <= lastSeq,
                              "%s: queue order breaks push order "
                              "(seq %llu after %llu)",
                              chName.c_str(),
                              static_cast<unsigned long long>(s.seq),
                              static_cast<unsigned long long>(
                                  prev_seq));
            prev_seq = s.seq;
        }
        SIM_INVARIANT(chk, waiting.size() <= cap);
        SIM_INVARIANT_MSG(chk,
                          statsData.stallTicks.value() == 0 ||
                              statsData.fullStalls.value() > 0,
                          "%s: stall ticks without a full stall",
                          chName.c_str());
        SIM_INVARIANT(chk,
                      statsData.peakOccupancy >= waiting.size());
        SIM_INVARIANT(chk,
                      statsData.peakOccupancy <=
                          statsData.pushes.value());
    }

  private:
    /** Forget slots whose transactions completed by @p now. */
    void
    prune(Ticks now)
    {
        std::erase_if(busyUntil,
                      [now](Ticks t) { return t <= now; });
    }

    std::string chName;
    std::uint32_t cap;
    ChannelContract channelContract;
    CausalityAuditor *auditor = nullptr;
    std::uint32_t auditId = 0;
    std::uint64_t lastSeq = 0;
    std::deque<Stamped> waiting;    ///< Pushed, not yet popped.
    std::vector<Ticks> busyUntil;   ///< Popped slots' release ticks.
    DrainHook drainHook;
    Stats statsData;
};

} // namespace astriflash::sim

#endif // ASTRIFLASH_SIM_BOUNDED_CHANNEL_HH
