/**
 * @file
 * Bounded slot window between components: the timing of a finite
 * hardware queue, with no messages in it.
 *
 * The simulator is call-driven rather than port-driven: a producer
 * hands its request to the consumer as a plain call, and the consumer
 * acts on it inside the same call chain. Instantaneous queue depth is
 * therefore always ~0; what a finite hardware queue actually bounds is
 * the number of requests whose *transactions* are still in flight.
 * The window models exactly that with time-based occupancy: push()
 * opens a slot and returns its accept tick, and pop() closes it,
 * declaring the tick the slot is recycled (e.g. when the miss it
 * carried finishes installing). push() counts every slot whose release tick is still
 * in the future; when the count reaches capacity the push stalls — the
 * accept tick moves out to the point where enough slots have drained —
 * and the stall is charged to the producer's timing and to the
 * window's stall statistics. At effectively-unbounded depth the accept
 * tick always equals the push tick, so the window is timing-neutral by
 * construction.
 *
 * At most one push is open at a time: every push is popped before the
 * next, and a second push first is a checked failure. Producers on
 * different cores run with skewed local clocks, so push ticks are NOT
 * monotonic; released slots are pruned against each push's own
 * timestamp.
 */

#ifndef ASTRIFLASH_SIM_BOUNDED_CHANNEL_HH
#define ASTRIFLASH_SIM_BOUNDED_CHANNEL_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "invariant.hh"
#include "logging.hh"
#include "stats.hh"
#include "ticks.hh"

namespace astriflash::sim {

/** Fixed-capacity slot window over one hardware queue. */
class BoundedChannel
{
  public:
    struct Stats {
        Counter pushes;
        Counter pops;
        Counter fullStalls; ///< Pushes that found the window full.
        Counter stallTicks; ///< Total backpressure delay charged.
        Average occupancy;  ///< In-flight slots sampled at each push.
        std::uint64_t peakOccupancy = 0;
    };

    /**
     * @param name      Instance name (stats, invariant reports).
     * @param capacity  Slot count; >= 1.
     */
    BoundedChannel(std::string name, std::uint32_t capacity)
        : chName(std::move(name)), cap(capacity)
    {
        if (capacity == 0)
            ASTRI_FATAL("%s: channel needs capacity >= 1",
                        chName.c_str());
    }

    BoundedChannel(const BoundedChannel &) = delete;
    BoundedChannel &operator=(const BoundedChannel &) = delete;

    /** Instance name (stat/invariant registration). */
    const std::string &name() const { return chName; }

    /**
     * Open a slot at @p now.
     *
     * @return the accept tick: @p now if a slot is free, else the tick
     *         at which enough in-flight slots drain. The producer must
     *         treat the accept tick as when its request actually
     *         entered the queue.
     */
    Ticks
    push(Ticks now)
    {
        ASTRI_ASSERT_MSG(!open,
                         "%s: second push with an un-drained push "
                         "open (pushed at %llu)",
                         chName.c_str(),
                         static_cast<unsigned long long>(openPushedAt));
        Ticks accept = now;
        prune(now);
        if (busyUntil.size() >= cap) {
            // Wait for the (occ - cap + 1)-th earliest release.
            const std::size_t k = busyUntil.size() - cap + 1;
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
        const std::size_t live = busyUntil.size() + 1;
        statsData.occupancy.sample(static_cast<double>(live));
        if (live > statsData.peakOccupancy)
            statsData.peakOccupancy = live;
        open = true;
        openPushedAt = now;
        openAcceptedAt = accept;
        return accept;
    }

    /**
     * Close the open slot. The slot stays occupied until
     * @p release_at, the tick the carried transaction completes and
     * the hardware queue entry is recycled.
     */
    void
    pop(Ticks release_at)
    {
        ASTRI_ASSERT_MSG(open, "%s: pop() with no open push",
                         chName.c_str());
        open = false;
        statsData.pops.inc();
        busyUntil.push_back(release_at);
    }

    const Stats &stats() const { return statsData; }

    /** Register window stats into @p reg. */
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
     * Audit the window: conservation (pushes == pops + the open
     * push), stamp sanity (no push accepted before it was made),
     * stall accounting (stall ticks imply full stalls), and the peak
     * bound.
     */
    void
    checkInvariants(InvariantChecker &chk) const
    {
        const std::uint64_t pending = open ? 1 : 0;
        SIM_INVARIANT_MSG(chk,
                          statsData.pushes.value() ==
                              statsData.pops.value() + pending,
                          "%s conservation: %llu pushes != %llu pops "
                          "+ %llu open",
                          chName.c_str(),
                          static_cast<unsigned long long>(
                              statsData.pushes.value()),
                          static_cast<unsigned long long>(
                              statsData.pops.value()),
                          static_cast<unsigned long long>(pending));
        SIM_INVARIANT_MSG(chk, !open || openAcceptedAt >= openPushedAt,
                          "%s: push accepted at %llu before it was "
                          "made at %llu",
                          chName.c_str(),
                          static_cast<unsigned long long>(
                              openAcceptedAt),
                          static_cast<unsigned long long>(
                              openPushedAt));
        SIM_INVARIANT_MSG(chk,
                          statsData.stallTicks.value() == 0 ||
                              statsData.fullStalls.value() > 0,
                          "%s: stall ticks without a full stall",
                          chName.c_str());
        SIM_INVARIANT(chk, statsData.peakOccupancy >= pending);
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
    bool open = false;          ///< A push awaits its pop.
    Ticks openPushedAt = 0;     ///< Open push: producer's tick.
    Ticks openAcceptedAt = 0;   ///< Open push: after any stall.
    std::vector<Ticks> busyUntil; ///< Popped slots' release ticks.
    Stats statsData;
};

} // namespace astriflash::sim

#endif // ASTRIFLASH_SIM_BOUNDED_CHANNEL_HH
