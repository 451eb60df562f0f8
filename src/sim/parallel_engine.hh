/**
 * @file
 * The run loop: one event queue executed in rounds of a fixed event
 * budget (DESIGN.md §15).
 *
 * core::System runs every simulation through this loop. Between two
 * rounds the caller may end the run (RunHooks::stop) or sweep its
 * invariants (RunHooks::atBarrier); neither ever runs from inside an
 * event. The round budget therefore decides the executed-event
 * boundary a run ends on, which the committed goldens pin.
 *
 * The class name and the constant Stats fields stay because the
 * host-time benchmark (bench/astribench) spells them (DESIGN.md §19).
 */

#ifndef ASTRIFLASH_SIM_PARALLEL_ENGINE_HH
#define ASTRIFLASH_SIM_PARALLEL_ENGINE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "event_queue.hh"
#include "ticks.hh"

namespace astriflash::sim {

class ParallelEngine
{
  public:
    /** Hooks run between rounds, never from inside an event. */
    struct RunHooks {
        /** Checked before every round; true ends the run. */
        std::function<bool()> stop;
        /** After each round, with the queue's current tick. */
        std::function<void(Ticks)> atBarrier;
    };

    /** Run telemetry. Only rounds and events vary between runs. */
    struct Stats {
        std::uint64_t rounds = 0; ///< Rounds executed.
        std::uint64_t events = 0; ///< Events run by the loop.
        std::uint64_t postsDelivered = 0; ///< Always 0.
        std::uint64_t horizonStalls = 0;  ///< Always 0.
        std::uint32_t groups = 0;         ///< 1 after run().
        /** {events} after run(). */
        std::vector<std::uint64_t> groupEvents;
    };

    /**
     * Run @p queue in rounds of @p round_events events (>= 1).
     * hooks.stop is read only between rounds, so the budget decides
     * the executed-event boundary a run ends on; System uses 20000
     * because the committed goldens depend on that boundary.
     */
    ParallelEngine(EventQueue &queue, std::uint64_t round_events);
    ParallelEngine(const ParallelEngine &) = delete;
    ParallelEngine &operator=(const ParallelEngine &) = delete;

    /** Run rounds until the queue drains or hooks.stop returns true. */
    void run(const RunHooks &hooks = {});

    const Stats &stats() const { return statsData; }

  private:
    EventQueue &q;
    std::uint64_t roundEvents;
    Stats statsData;
};

} // namespace astriflash::sim

#endif // ASTRIFLASH_SIM_PARALLEL_ENGINE_HH
