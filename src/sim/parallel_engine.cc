#include "parallel_engine.hh"

#include "logging.hh"

namespace astriflash::sim {

ParallelEngine::ParallelEngine(EventQueue &queue,
                               std::uint64_t round_events)
    : q(queue), roundEvents(round_events)
{
    if (roundEvents == 0)
        ASTRI_FATAL("run loop needs roundEvents >= 1");
}

void
ParallelEngine::run(const RunHooks &hooks)
{
    for (;;) {
        if (hooks.stop && hooks.stop())
            break;
        if (q.empty())
            break;
        statsData.events += q.runSteps(roundEvents);
        ++statsData.rounds;
        if (hooks.atBarrier)
            hooks.atBarrier(q.curTick());
    }
    statsData.groups = 1;
    statsData.groupEvents = {statsData.events};
}

} // namespace astriflash::sim
