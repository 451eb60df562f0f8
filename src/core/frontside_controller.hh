/**
 * @file
 * Frontside controller (FC) of the DRAM cache (§IV-B, Fig. 5).
 *
 * The FC extends a conventional DRAM controller: it RASes the set's
 * row, CASes the tag column, compares tags, and either CASes the data
 * (hit) or hands a MissRequest to the DramCache facade, which passes
 * it to the page's BC shard and returns the backside's reply to
 * finishMiss()/finishSyncMiss(); the miss response goes out as soon
 * as the shard's fc_to_bc window accepts, so the on-chip MSHRs can be
 * reclaimed. It is a 1-cycle-per-op FSM; everything slower (MSR dedup,
 * flash issue, page install, waking the waiters) lives in the
 * backside controller.
 *
 * The FC shares the tag array, the DRAM device model, and the
 * footprint masks with the backside, as both controllers address the
 * same DRAM rows. It never names the backside controller, the MSR,
 * the evict buffer, or the flash device (aflint AF013).
 */

#ifndef ASTRIFLASH_CORE_FRONTSIDE_CONTROLLER_HH
#define ASTRIFLASH_CORE_FRONTSIDE_CONTROLLER_HH

#include <cstdint>
#include <string>

#include "mem/dram.hh"
#include "mem/set_assoc_cache.hh"
#include "sim/invariant.hh"
#include "sim/stats.hh"

#include "dc_messages.hh"
#include "dram_cache_types.hh"

namespace astriflash::core {

/** The DRAM cache's fast tag-compare FSM. */
class FrontsideController
{
  public:
    struct Stats {
        sim::Counter hits;
        sim::Counter misses;
        sim::Counter missesMerged;  ///< Deduplicated by the BC's MSR.
        sim::Counter syncAccesses;  ///< Forward-progress forced-sync.
        sim::Counter subPageMisses; ///< Footprint mispredictions.
        sim::Histogram hitLatency;  ///< FC path, ticks.

        double
        hitRatio() const
        {
            const double t = static_cast<double>(hits.value() +
                                                 misses.value() +
                                                 missesMerged.value());
            return t > 0 ? static_cast<double>(hits.value()) / t : 0.0;
        }
    };

    /** One access's tag-probe outcome. */
    struct Probe {
        bool hit = false;
        /** Hit: data-ready tick. Miss: tag-probe completion, the tick
         *  the MissRequest is pushed. */
        sim::Ticks ready = 0;
        sim::Ticks start = 0;  ///< Requester's tick.
        std::uint64_t bit = 0; ///< Requested block's footprint bit.
        /** Miss: the request for the backside (page, write, subPage,
         *  wantMask); the facade adds the waiter. */
        MissRequest miss;
    };

    FrontsideController(std::string name, const DramCacheConfig &config,
                        mem::Dram &dram, mem::SetAssocCache &tags,
                        FootprintState &footprint);

    /**
     * Tag probe shared by both access paths; hits complete here.
     * @param sync forced-synchronous access (counted apart).
     */
    Probe probe(mem::Addr pa, bool write, sim::Ticks now, bool sync);

    /** Complete a missing probe from the backside's reply. */
    DcAccess finishMiss(const Probe &p, const BcReply &rep);

    /**
     * Complete a forced-synchronous (forward-progress / Flash-Sync)
     * missing probe.
     * @return the tick the blocked requester's data is readable.
     */
    sim::Ticks finishSyncMiss(const Probe &p, const BcReply &rep);

    /** Zero all statistics (end of warmup). */
    void resetStats() { statsData = Stats{}; }

    void regStats(sim::StatRegistry &reg) const;

    /** Audit the FC's accounting self-consistency, and that
     *  footprint residency masks exist exactly for resident pages. */
    void checkInvariants(sim::InvariantChecker &chk) const;

    const Stats &stats() const { return statsData; }
    const std::string &name() const { return fcName; }

  private:
    sim::Ticks fcOp() const { return fcOpTicks; }

    std::string fcName;
    const DramCacheConfig &cfg;
    mem::Dram &dramModel;
    mem::SetAssocCache &pageTags;
    const std::uint64_t setRowStride; ///< dcSetRowStride(cfg).
    FootprintState &fp;
    sim::Ticks fcOpTicks;
    Stats statsData;
};

} // namespace astriflash::core

#endif // ASTRIFLASH_CORE_FRONTSIDE_CONTROLLER_HH
