/**
 * @file
 * Backside controller (BC) of the DRAM cache (§IV-B, Fig. 5).
 *
 * The BC is the programmable (slower per operation) half of the
 * controller pair: it drains MissRequests off the FC→BC channel,
 * deduplicates them through the in-DRAM Miss Status Row, issues 4 KB
 * flash reads through its own flash::Backend submit path, parks
 * victims in the evict buffer, and writes dirty victims back to flash
 * off the critical path.
 *
 * Single-owner seam (DESIGN.md §16.1): the BC owns the MSR, the evict
 * buffer, the pending-miss table, and the flash submit path — and
 * nothing else. The page tags, the DRAM model, and the footprint
 * state are fc-owned; whenever the BC needs them (seeding a fetch
 * mask from footprint history, installing an arrived page) the data
 * crosses the seam as message fields: MissRequest::histMask inbound,
 * a BcNotice::InstallReq outbound answered by an InstallGrant. The BC
 * never names the frontside controller or a concrete flash device
 * (aflint AF013/AF014); all its inputs and outputs are channels plus
 * the abstract flash::Backend.
 *
 * The BC drains its own inbound channels through synchronous drain
 * hooks, which keeps the whole miss chain nested inside the
 * producer's push exactly like the pre-split facade pump.
 */

#ifndef ASTRIFLASH_CORE_BACKSIDE_CONTROLLER_HH
#define ASTRIFLASH_CORE_BACKSIDE_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "flash/backend.hh"
#include "mem/address_map.hh"
#include "mem/set_assoc_cache.hh"
#include "sim/bounded_channel.hh"
#include "sim/invariant.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

#include "dc_messages.hh"
#include "dram_cache_types.hh"
#include "evict_buffer.hh"
#include "miss_status_row.hh"

namespace astriflash::core {

/** The DRAM cache's programmable miss engine. */
class BacksideController : public sim::SimObject
{
  public:
    struct Stats {
        sim::Counter fills;
        sim::Counter dirtyWritebacks;
        sim::Counter flashBytesRead; ///< Refill traffic (footprint
                                     ///< mode transfers fewer bytes).
        sim::Histogram missPenalty;  ///< Miss to page-ready, ticks.
        std::uint64_t peakOutstanding = 0;
    };

    /**
     * @param msr_sets / @p msr_entries_per_set / @p evict_entries
     *        this shard's slice of the cache-wide MSR and evict-buffer
     *        capacities (the facade slices BcConfig's totals with
     *        shardSlice()).
     * @param flash_dev the shard's submit path. The BC derives its
     *        conservative read estimate from it.
     */
    BacksideController(sim::EventQueue &eq, std::string name,
                       const DramCacheConfig &config,
                       const mem::AddressMap &amap,
                       flash::Backend &flash_dev,
                       sim::BoundedChannel<MissRequest> &inbox,
                       sim::BoundedChannel<FlashCmdMsg> &to_flash,
                       sim::BoundedChannel<InstallComplete> &to_fc,
                       sim::BoundedChannel<BcNotice> &to_fc_rsp,
                       sim::BoundedChannel<InstallGrant> &from_fc_ctl,
                       std::uint32_t msr_sets,
                       std::uint32_t msr_entries_per_set,
                       std::uint32_t evict_entries);

    /**
     * Install this controller's channel hooks. Both controllers
     * declare bindChannels(); the facade calls it after channel
     * construction, once per controller: synchronous drain hooks on
     * the inbox, the ctl channel, and the BC→flash channel (the
     * submit path is bc-owned, so that seam never leaves the domain).
     */
    void bindChannels();

    /** Outstanding (in-flight) misses right now. */
    std::uint32_t
    outstandingMisses() const
    {
        return static_cast<std::uint32_t>(pending.size());
    }

    /** Zero all statistics (end of warmup). */
    void resetStats();

    void regStats(sim::StatRegistry &reg) const;

    /**
     * Audit the miss-tracking machinery: every issued pending miss
     * holds an MSR entry (and nothing else does), and the stall queue
     * mirrors the un-issued pending misses exactly.
     */
    void checkInvariants(sim::InvariantChecker &chk) const;

    /**
     * Cross-domain audit run at quiesce points (both controllers
     * declare auditShared; the facade invokes them with the fc-owned
     * structures passed by const ref): no page may be both resident
     * in @p tags and pending here.
     */
    void auditShared(sim::InvariantChecker &chk,
                     const mem::SetAssocCache &tags) const;

    const Stats &stats() const { return statsData; }
    const MissStatusRow &msr() const { return msrTable; }
    const EvictBuffer &evictBuffer() const { return evictBuf; }

  private:
    struct PendingMiss {
        sim::Ticks dataReady = 0; ///< Install-complete estimate.
        std::vector<WaiterCookie> waiters;
        bool issued = false;   ///< Flash read issued (vs MSR-stalled).
        bool anyWrite = false; ///< Install dirty (write-allocate).
        std::uint64_t fetchMask = ~0ull; ///< Blocks to transfer.
    };

    /** Page number of @p pa at this cache's page granularity. */
    mem::PageNum
    pageNum(mem::Addr pa) const
    {
        return mem::pageNumber(pa, cfg.pageBytes);
    }

    /** Byte base address of page @p pn (trace payloads, flash LPN). */
    mem::Addr
    pageByteAddr(mem::PageNum pn) const
    {
        return mem::pageAddr(pn, cfg.pageBytes);
    }

    /**
     * Service the MissRequest at the head of the FC→BC channel:
     * evict-buffer short-circuit, MSR dedup/alloc, flash issue. The
     * slot is released at the transaction's completion tick, so the
     * channel depth bounds the BC's outstanding-transaction window.
     * The reply leaves through the BC→FC response channel.
     */
    void serviceHead();

    /** Drain every inbox entry. */
    void pumpInbox();

    /** Submit queued flash commands; reads schedule their arrival. */
    void pumpFlash();

    /** Drain the InstallGrants off the FC→BC ctl channel. */
    void pumpCtl();

    /**
     * Miss handling: MSR dedup/alloc, flash read, arrival event.
     * @return the tick the requester's data will be ready.
     */
    sim::Ticks startMiss(const MissRequest &req, sim::Ticks now);

    /** Expected cost of installing one page into its frame. */
    sim::Ticks installEstimate() const;

    /** A read completed: stamp the miss, schedule the arrival. */
    void flashReadIssued(mem::PageNum page, sim::Ticks issued_at,
                         sim::Ticks complete_at);

    /** A fetched page arrived: request the fc-side install. */
    void pageArrived(mem::PageNum page);

    /** The FC installed the page: evict path, MSR free, waiters. */
    void finishInstall(const InstallGrant &grant, sim::Ticks now);

    /** Issue queued misses that were blocked on a full MSR set. */
    void retryMsrStalled(sim::Ticks now);

    /** Drain one evict-buffer entry to flash. */
    void drainEvictBuffer(sim::Ticks now);

    sim::Ticks bcOp() const { return bcOpTicks; }

    const DramCacheConfig &cfg;
    const mem::AddressMap &addrMap;
    flash::Backend &flashDev;
    sim::BoundedChannel<MissRequest> &inbox;
    sim::BoundedChannel<FlashCmdMsg> &toFlash;
    sim::BoundedChannel<InstallComplete> &toFc;
    sim::BoundedChannel<BcNotice> &toFcRsp;
    sim::BoundedChannel<InstallGrant> &fromFcCtl;
    MissStatusRow msrTable;
    EvictBuffer evictBuf;
    std::unordered_map<mem::PageNum, PendingMiss> pending;
    std::deque<mem::PageNum> msrStalled; ///< Waiting for MSR space.
    sim::Ticks bcOpTicks;
    sim::Ticks flashReadEstimate;
    Stats statsData;
};

} // namespace astriflash::core

#endif // ASTRIFLASH_CORE_BACKSIDE_CONTROLLER_HH
