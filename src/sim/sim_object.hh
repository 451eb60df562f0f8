/**
 * @file
 * Base class for named timing-model components.
 */

#ifndef ASTRIFLASH_SIM_SIM_OBJECT_HH
#define ASTRIFLASH_SIM_SIM_OBJECT_HH

#include <string>
#include <utility>

#include "event_queue.hh"
#include "ticks.hh"

namespace astriflash::sim {

/**
 * A named component attached to an event queue.
 *
 * SimObjects own their statistics and expose them through name-prefixed
 * accessors; the queue is shared and owned by the enclosing system.
 */
class SimObject
{
  public:
    /**
     * @param queue  Event queue this component schedules on.
     * @param name   Hierarchical instance name ("system.dramcache.fc").
     */
    SimObject(EventQueue &queue, std::string name)
        : eq(queue), objName(std::move(name))
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    /** Instance name. */
    const std::string &name() const { return objName; }

    /** Current simulated time. */
    Ticks curTick() const { return eq.curTick(); }

    /** The event queue this object schedules on. */
    EventQueue &eventQueue() { return eq; }

  protected:
    /**
     * Schedule a member callback @p delta ticks from now, with an
     * optional host prefetch hook (EventQueue::Warm).
     */
    void
    scheduleIn(Ticks delta, EventQueue::Callback fn,
               EventPriority prio = EventPriority::Default,
               EventQueue::Warm warm = {})
    {
        eq.scheduleIn(delta, std::move(fn), prio, warm);
    }

  private:
    EventQueue &eq;
    std::string objName;
};

} // namespace astriflash::sim

#endif // ASTRIFLASH_SIM_SIM_OBJECT_HH
