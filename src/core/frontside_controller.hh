/**
 * @file
 * Frontside controller (FC) of the DRAM cache (§IV-B, Fig. 5).
 *
 * The FC extends a conventional DRAM controller: it RASes the set's
 * row, CASes the tag column, compares tags, and either CASes the data
 * (hit) or emits a MissRequest into the FC→BC channel and returns a
 * miss response so the on-chip MSHRs can be reclaimed. It is a
 * 1-cycle-per-op FSM; everything slower (MSR dedup, flash issue) lives
 * behind the channels in the backside controller.
 *
 * Single-owner seam (DESIGN.md §16.3): the FC owns the tag array, the
 * DRAM device model, and the footprint masks — the three structures
 * the pre-split backside mutated by reference (the retired AF022
 * baseline entries). Backside reads of them became message fields:
 * footprint history is snapshotted into MissRequest::histMask at push
 * time, and a page install is a BcNotice::InstallReq the FC answers
 * with an InstallGrant after running the tag fill and the DRAM install
 * access itself. The FC never names the backside controller, the MSR,
 * the evict buffer, or the flash device (aflint AF013): its inputs
 * are the bc_to_fc_rsp / bc_to_fc channels and its outputs are the
 * fc_to_bc / fc_to_bc_ctl channels.
 *
 * Fused completion: the miss-channel push synchronously runs the
 * backside's drain, whose MissAck lands back here — through the
 * response channel's own drain hook — before the push returns. The
 * access completes in one call chain with the exact miss response
 * (evict-buffer hit or started/merged miss), byte-identical to the
 * pre-split controller.
 *
 * With backside sharding (BcConfig::shards > 1) the FC holds one
 * channel quadruple per shard and routes each miss by
 * mem::pageInterleave(page, shards).
 */

#ifndef ASTRIFLASH_CORE_FRONTSIDE_CONTROLLER_HH
#define ASTRIFLASH_CORE_FRONTSIDE_CONTROLLER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mem/dram.hh"
#include "mem/set_assoc_cache.hh"
#include "sim/bounded_channel.hh"
#include "sim/invariant.hh"
#include "sim/stats.hh"

#include "dc_messages.hh"
#include "dram_cache_types.hh"

namespace astriflash::core {

/** The DRAM cache's fast tag-compare FSM. */
class FrontsideController
{
  public:
    using PageReadyFn = std::function<void(
        mem::PageNum page, sim::Ticks when,
        const std::vector<WaiterCookie> &waiters)>;

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

    FrontsideController(
        std::string name, const DramCacheConfig &config,
        mem::Dram &dram, mem::SetAssocCache &tags,
        FootprintState &footprint,
        std::vector<std::unique_ptr<sim::BoundedChannel<MissRequest>>>
            &to_bc,
        std::vector<
            std::unique_ptr<sim::BoundedChannel<InstallComplete>>>
            &from_bc,
        std::vector<std::unique_ptr<sim::BoundedChannel<BcNotice>>>
            &from_bc_rsp,
        std::vector<std::unique_ptr<sim::BoundedChannel<InstallGrant>>>
            &to_bc_ctl);

    /** Register the page-arrival notification hook. */
    void setPageReadyCallback(PageReadyFn fn) { onReady = std::move(fn); }

    /**
     * Install this controller's channel hooks. Both controllers
     * declare bindChannels(); the facade calls it after channel
     * construction, once per controller: synchronous drain hooks on
     * every shard's response and install channels.
     */
    void bindChannels();

    /**
     * Frontside access from the LLC miss path. Hits complete here; a
     * miss pushes the MissRequest and completes from the ack the
     * backside's drain latched synchronously.
     */
    DcAccess access(mem::Addr pa, bool write, sim::Ticks now,
                    WaiterCookie waiter);

    /**
     * Forced-synchronous access (forward-progress / Flash-Sync):
     * @return the tick the blocked requester's data is readable.
     */
    sim::Ticks accessSync(mem::Addr pa, bool write, sim::Ticks now);

    /** Zero all statistics (end of warmup). */
    void resetStats() { statsData = Stats{}; }

    void regStats(sim::StatRegistry &reg) const;

    /** Audit the FC's accounting self-consistency. */
    void checkInvariants(sim::InvariantChecker &chk) const;

    /**
     * Cross-domain audit run at quiesce points (both controllers
     * declare auditShared; the facade invokes them with the fc-owned
     * structures): footprint residency masks exist exactly for
     * resident pages.
     */
    void auditShared(sim::InvariantChecker &chk,
                     const mem::SetAssocCache &tags) const;

    const Stats &stats() const { return statsData; }
    const std::string &name() const { return fcName; }

  private:
    /** One missing access's state while its MissRequest crosses to
     *  the backside and the ack comes back. */
    struct Probe {
        mem::PageNum page{0};
        sim::Ticks start = 0;    ///< Requester's tick.
        sim::Ticks accepted = 0; ///< Miss-channel accept tick.
        std::uint64_t bit = 0;   ///< Requested block's footprint bit.
        bool subPage = false;    ///< Footprint refetch of a resident page.
        std::uint32_t shard = 0; ///< BC shard the miss routed to.
    };

    /** FC tag probe: RAS + tag CAS at the set's row. */
    sim::Ticks tagProbe(mem::Addr pa, sim::Ticks now);

    /** MissRequest with the footprint-history snapshot attached. */
    MissRequest makeMiss(mem::PageNum page, bool write, bool sub_page,
                         bool has_waiter, WaiterCookie waiter,
                         std::uint64_t want_mask) const;

    /** Complete a missing probe from the backside's ack. */
    DcAccess finishMiss(const Probe &probe, const BcReply &rep);

    /** @return the tick the blocked requester's data is readable. */
    sim::Ticks finishSyncMiss(const Probe &probe, const BcReply &rep);

    /** Drain the notices off shard @p shard's rsp channel. */
    void pumpRsp(std::uint32_t shard);

    /** Drain the completions off shard @p shard's install channel. */
    void pumpInstalls(std::uint32_t shard);

    /** Run the tag fill + DRAM install for an install request and
     *  send the grant back on the shard's ctl channel. */
    void handleInstallReq(std::uint32_t shard, const BcNotice &notice,
                          sim::Ticks at);

    /** The ack latched by the response-channel drain. */
    BcReply takeAck();

    sim::Ticks fcOp() const { return fcOpTicks; }

    /** BC shard serving @p page (round-robin page interleave). */
    std::uint32_t
    shardOf(mem::PageNum page) const
    {
        return mem::pageInterleave(
            page, static_cast<std::uint32_t>(toBc.size()));
    }

    std::string fcName;
    const DramCacheConfig &cfg;
    mem::Dram &dramModel;
    mem::SetAssocCache &pageTags;
    FootprintState &fp;
    std::vector<std::unique_ptr<sim::BoundedChannel<MissRequest>>>
        &toBc;
    std::vector<std::unique_ptr<sim::BoundedChannel<InstallComplete>>>
        &fromBc;
    std::vector<std::unique_ptr<sim::BoundedChannel<BcNotice>>>
        &fromBcRsp;
    std::vector<std::unique_ptr<sim::BoundedChannel<InstallGrant>>>
        &toBcCtl;
    PageReadyFn onReady;
    BcReply ackReply;      ///< Last latched MissAck.
    bool ackValid = false; ///< takeAck() consumes the latch.
    sim::Ticks fcOpTicks;
    Stats statsData;
};

} // namespace astriflash::core

#endif // ASTRIFLASH_CORE_FRONTSIDE_CONTROLLER_HH
