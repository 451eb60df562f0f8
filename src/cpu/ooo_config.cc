#include "ooo_config.hh"

namespace astriflash::cpu {

sim::Ticks
OoOConfig::robFlushCost() const
{
    const sim::Cycles refill_cycles =
        sim::Cycles(robEntries / (2 * issueWidth)) + redirectCycles;
    return clock().cycles(refill_cycles);
}

sim::Ticks
OoOConfig::handlerEntryCost() const
{
    return clock().cycles(redirectCycles);
}

} // namespace astriflash::cpu
