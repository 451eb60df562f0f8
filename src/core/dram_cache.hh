/**
 * @file
 * Hardware-managed DRAM cache facade (§IV-B, Fig. 5).
 *
 * The cache is a fast FSM frontside controller
 * (frontside_controller.hh) and N page-interleaved backside-controller
 * shards (backside_controller.hh) that exchange state ONLY through
 * bounded, tick-stamped channels — five per shard:
 *
 *   FC --MissRequest-->     BC<i>   (fc_to_bc<i>, the shard's queue)
 *   BC<i> --FlashCmdMsg-->  BC<i>   (bc_to_flash<i>, command queue;
 *                                    the shard submits through its
 *                                    abstract flash::Backend)
 *   BC<i> --BcNotice-->     FC      (bc_to_fc_rsp<i>: miss acks +
 *                                    install requests)
 *   FC --InstallGrant-->    BC<i>   (fc_to_bc_ctl<i>: tag fill +
 *                                    DRAM install results)
 *   BC<i> --InstallComplete--> FC   (bc_to_fc<i>, waiter wakeups)
 *
 * A page's shard is mem::pageInterleave(page, shards); each shard owns
 * an equal slice of the cache-wide MSR and evict-buffer capacity
 * (shardSlice(), checked at construction to sum exactly to the
 * configured totals). The facade owns the fc-side shared structures
 * (DRAM device, tag array, footprint masks), constructs the channels
 * and the controllers on the system's one event queue, and wires each
 * controller to drain its OWN inbound channels — the facade itself
 * pumps nothing and makes no synchronous controller-to-controller
 * calls (the ownership report's sync-facade-call count is zero). It
 * is the single allowlisted place (aflint AF013) where both
 * controllers are visible at once, and the flash back-end it hands
 * each shard is only ever the abstract flash::Backend (aflint AF014
 * keeps the concrete device types out of src/core entirely).
 *
 * With one shard the channel, controller, and stat names collapse to
 * the pre-sharding spellings ("bc", "fc_to_bc", ...) and the facade is
 * cycle-for-cycle identical to the unsharded cache — the property the
 * golden-stats byte-identity tests pin. With several, shard-scoped
 * names ("bc<i>", "fc_to_bc<i>", ...) keep every stat addressable.
 *
 * Page arrivals are delivered through a callback carrying every waiter
 * cookie that merged onto the miss — the hook the switch-on-miss cores
 * use to wake pending user-level threads.
 */

#ifndef ASTRIFLASH_CORE_DRAM_CACHE_HH
#define ASTRIFLASH_CORE_DRAM_CACHE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "flash/backend.hh"
#include "mem/address_map.hh"
#include "mem/dram.hh"
#include "mem/set_assoc_cache.hh"
#include "sim/bounded_channel.hh"
#include "sim/invariant.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

#include "backside_controller.hh"
#include "dc_messages.hh"
#include "dram_cache_types.hh"
#include "evict_buffer.hh"
#include "frontside_controller.hh"
#include "miss_status_row.hh"

namespace astriflash::core {

/** The AstriFlash DRAM cache: FC + sharded BCs over bounded channels. */
class DramCache : public sim::SimObject
{
  public:
    using PageReadyFn = FrontsideController::PageReadyFn;

    /** Cache-wide backside totals summed across shards. */
    struct BcTotals {
        std::uint64_t fills = 0;
        std::uint64_t dirtyWritebacks = 0;
        std::uint64_t flashBytesRead = 0;
        /** Sum of per-shard peaks (an upper bound on the true
         *  simultaneous peak). */
        std::uint64_t peakOutstanding = 0;
    };

    /** Build the facade; the FC and every BC shard schedule on
     *  @p eq, the system's one event queue. */
    DramCache(sim::EventQueue &eq, std::string name,
              const DramCacheConfig &config, flash::Backend &flash,
              const mem::AddressMap &amap);

    /** Register the page-arrival notification hook. */
    void
    setPageReadyCallback(PageReadyFn fn)
    {
        fcCtl.setPageReadyCallback(std::move(fn));
    }

    /**
     * Frontside access from the LLC miss path.
     *
     * On a miss the waiter cookie is recorded against the page; the
     * PageReadyFn fires when the fill completes.
     */
    DcAccess access(mem::Addr pa, bool write, sim::Ticks now,
                    WaiterCookie waiter);

    /**
     * Forced-synchronous access (forward-progress bit set, or the
     * Flash-Sync configuration): even on a miss, returns the tick when
     * the data is available, blocking the caller.
     */
    sim::Ticks accessSync(mem::Addr pa, bool write, sim::Ticks now);

    /** True if the page holding @p pa is resident (no timing). */
    bool pageResident(mem::Addr pa) const;

    /** Install @p pa's page without timing (simulation warmup). */
    void prewarmPage(mem::Addr pa);

    /** Mark @p pa's page dirty if resident (LLC writeback landed). */
    void
    markPageDirty(mem::Addr pa)
    {
        pageTags.markDirty(pa);
    }

    /** Number of page frames. */
    std::uint64_t
    pageFrames() const
    {
        return cfg.capacityBytes / cfg.pageBytes;
    }

    /** Backside-controller shards. */
    std::uint32_t
    shardCount() const
    {
        return static_cast<std::uint32_t>(bcCtls.size());
    }

    /** Shard serving @p page. */
    std::uint32_t
    shardOf(mem::PageNum page) const
    {
        return mem::pageInterleave(page, shardCount());
    }

    /** Outstanding (in-flight) misses right now, across shards. */
    std::uint32_t
    outstandingMisses() const
    {
        std::uint32_t total = 0;
        for (const auto &bc : bcCtls)
            total += bc->outstandingMisses();
        return total;
    }

    /** Cache-wide MSR capacity (sum of the shard slices). */
    std::uint64_t
    msrCapacity() const
    {
        std::uint64_t total = 0;
        for (const auto &bc : bcCtls)
            total += bc->msr().capacity();
        return total;
    }

    /** Sum of per-shard MSR peak occupancies. */
    std::uint64_t
    msrPeakOccupancy() const
    {
        std::uint64_t total = 0;
        for (const auto &bc : bcCtls)
            total += bc->msr().stats().peakOccupancy;
        return total;
    }

    /** Zero all statistics (end of warmup). Channel counters are
     *  lifetime (conservation laws must survive the reset). */
    void resetStats();

    /**
     * Register stats into @p reg following the controller split:
     * "fc" (frontside: hit/miss accounting), one backside registry per
     * shard ("bc" unsharded, "bc<i>" sharded) with "msr"/"evictbuf"
     * children, the "dram" device and the "tags" array, plus each
     * shard's channels ("fc_to_bc[<i>]", "bc_to_flash[<i>]",
     * "bc_to_fc[<i>]"). The rsp/ctl channels stay out of the tree,
     * which keeps it byte-identical to the pre-split goldens; their
     * invariants are swept (System::registerInvariants).
     */
    void regStats(sim::StatRegistry &reg) const;

    /** Audit the FC and every BC shard, including the cross-domain
     *  auditShared sweeps over the fc-owned structures. The MSRs,
     *  evict buffers, tag array, and channels register their own
     *  invariant entries (see System::registerInvariants). */
    void checkInvariants(sim::InvariantChecker &chk) const;

    /** Frontside accounting (hits, misses, hit latency). */
    const FrontsideController::Stats &
    fcStats() const
    {
        return fcCtl.stats();
    }

    /** One shard's backside accounting (fills, writebacks, penalty). */
    const BacksideController::Stats &
    bcStats(std::uint32_t shard = 0) const
    {
        return bcCtls[shard]->stats();
    }

    /** Cache-wide backside totals (sums across shards). */
    BcTotals bcTotals() const;

    double hitRatio() const { return fcCtl.stats().hitRatio(); }

    const FrontsideController &frontside() const { return fcCtl; }

    const BacksideController &
    backside(std::uint32_t shard = 0) const
    {
        return *bcCtls[shard];
    }

    const MissStatusRow &
    msr(std::uint32_t shard = 0) const
    {
        return bcCtls[shard]->msr();
    }

    const EvictBuffer &
    evictBuffer(std::uint32_t shard = 0) const
    {
        return bcCtls[shard]->evictBuffer();
    }

    const mem::SetAssocCache &pageArray() const { return pageTags; }
    const mem::Dram &dram() const { return dramModel; }
    const DramCacheConfig &config() const { return cfg; }

    const sim::BoundedChannel<MissRequest> &
    missChannel(std::uint32_t shard = 0) const
    {
        return *fcToBc[shard];
    }

    const sim::BoundedChannel<FlashCmdMsg> &
    flashChannel(std::uint32_t shard = 0) const
    {
        return *bcToFlash[shard];
    }

    const sim::BoundedChannel<InstallComplete> &
    installChannel(std::uint32_t shard = 0) const
    {
        return *bcToFc[shard];
    }

    const sim::BoundedChannel<BcNotice> &
    rspChannel(std::uint32_t shard = 0) const
    {
        return *bcToFcRsp[shard];
    }

    const sim::BoundedChannel<InstallGrant> &
    ctlChannel(std::uint32_t shard = 0) const
    {
        return *fcToBcCtl[shard];
    }

  private:
    /** Shard-scoped suffix: "" unsharded, "<i>" sharded. */
    std::string shardTag(std::uint32_t shard) const;

    DramCacheConfig cfg;
    mem::Dram dramModel;
    mem::SetAssocCache pageTags;
    FootprintState footprint;
    std::vector<std::unique_ptr<sim::BoundedChannel<MissRequest>>>
        fcToBc;
    std::vector<std::unique_ptr<sim::BoundedChannel<FlashCmdMsg>>>
        bcToFlash;
    std::vector<std::unique_ptr<sim::BoundedChannel<InstallComplete>>>
        bcToFc;
    std::vector<std::unique_ptr<sim::BoundedChannel<BcNotice>>>
        bcToFcRsp;
    std::vector<std::unique_ptr<sim::BoundedChannel<InstallGrant>>>
        fcToBcCtl;
    FrontsideController fcCtl;
    std::vector<std::unique_ptr<BacksideController>> bcCtls;
};

} // namespace astriflash::core

#endif // ASTRIFLASH_CORE_DRAM_CACHE_HH
