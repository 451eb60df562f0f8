/**
 * @file
 * Out-of-order core parameters and derived cost model.
 *
 * The paper models 4-wide ARM Cortex-A76-class cores (128-entry ROB).
 * The timing simulator charges the switch-on-miss control path with
 * the costs derived here: pipeline flush on a DRAM-cache miss signal,
 * redirect to the user-level handler, and the user-level thread
 * switch itself (~100 ns, §IV-D). ASO store speculation, the resume
 * register and the forward-progress bit cost nothing beyond these
 * (DESIGN.md §2).
 */

#ifndef ASTRIFLASH_CPU_OOO_CONFIG_HH
#define ASTRIFLASH_CPU_OOO_CONFIG_HH

#include <cstdint>

#include "sim/ticks.hh"

namespace astriflash::cpu {

/** Core microarchitecture parameters (Cortex-A76-like defaults). */
struct OoOConfig {
    std::uint64_t frequencyHz = 2'500'000'000ull;
    std::uint32_t issueWidth = 4;
    std::uint32_t robEntries = 128;
    /** Pipeline depth for redirect cost (fetch-to-issue). */
    sim::Cycles redirectCycles{12};

    /** Clock domain for cycle/tick conversion. */
    sim::ClockDomain
    clock() const
    {
        return sim::ClockDomain(frequencyHz);
    }

    /**
     * Cost of aborting at a DRAM-cache miss: squash the ROB and refill
     * the front-end. Lost work scales with occupied ROB entries; we
     * charge the average (half-full ROB drained at issue width) plus
     * the redirect, which is what makes compute-heavy TPCC lose more
     * per flush than the pointer-chasing microbenchmarks (§VI-A).
     */
    sim::Ticks robFlushCost() const;

    /** Cost of entering the user-level handler (register save path). */
    sim::Ticks handlerEntryCost() const;
};

} // namespace astriflash::cpu

#endif // ASTRIFLASH_CPU_OOO_CONFIG_HH
