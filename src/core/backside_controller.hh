/**
 * @file
 * Backside controller (BC) of the DRAM cache (§IV-B, Fig. 5).
 *
 * The BC is the programmable (slower per operation) half of the
 * controller pair: it services the MissRequests the facade hands it,
 * deduplicates them through the in-DRAM Miss Status Row, issues 4 KB
 * flash reads through its own flash::Backend submit path, installs
 * each arrived page (tag fill, footprint masks, DRAM write), parks
 * victims in the evict buffer, and writes dirty victims back to flash
 * off the critical path.
 *
 * The BC owns the MSR, the evict buffer, the pending-miss table, the
 * flash submit path, and the shard's two slot windows (fc_to_bc,
 * bc_to_flash), which give the hardware queues their timing while
 * every hand-off is a plain call. It shares the tag array, the
 * DRAM device model, and the footprint masks with the frontside, as
 * both controllers address the same DRAM rows. It never names the
 * frontside controller or a concrete flash device (aflint
 * AF013/AF014): its replies go back to the facade as return values,
 * and an installed page's waiters are woken by a plain call to the
 * facade's PageReadyFn, as in the paper, with no notice queue.
 */

#ifndef ASTRIFLASH_CORE_BACKSIDE_CONTROLLER_HH
#define ASTRIFLASH_CORE_BACKSIDE_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
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
     * @param dram / @p tags / @p footprint the cache-wide DRAM device,
     *        tag array, and footprint masks the facade holds.
     * @param page_ready the facade's page-arrival hook (may be empty).
     *
     * The BC is named "<cache_name>.bc<shard_tag>" and its windows
     * "<cache_name>.{fc_to_bc,bc_to_flash}<shard_tag>".
     */
    BacksideController(sim::EventQueue &eq,
                       const std::string &cache_name,
                       const std::string &shard_tag,
                       const DramCacheConfig &config,
                       const mem::AddressMap &amap,
                       flash::Backend &flash_dev, mem::Dram &dram,
                       mem::SetAssocCache &tags,
                       FootprintState &footprint,
                       const PageReadyFn &page_ready,
                       std::uint32_t msr_sets,
                       std::uint32_t msr_entries_per_set,
                       std::uint32_t evict_entries);

    /**
     * Open an fc_to_bc slot for @p req at @p now and service it:
     * evict-buffer short-circuit, MSR dedup/alloc, flash issue. The
     * slot is released at the transaction's completion tick.
     * @return the reply, including the window's accept tick.
     */
    BcReply request(const MissRequest &req, sim::Ticks now);

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
     * holds an MSR entry (and nothing else does), the stall queue
     * mirrors the un-issued pending misses exactly, and (outside
     * footprint mode) no page is both resident and pending.
     */
    void checkInvariants(sim::InvariantChecker &chk) const;

    const Stats &stats() const { return statsData; }
    const MissStatusRow &msr() const { return msrTable; }
    const EvictBuffer &evictBuffer() const { return evictBuf; }
    const sim::BoundedChannel &missChannel() const { return inbox; }
    const sim::BoundedChannel &flashChannel() const { return toFlash; }

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
     * Pass @p cmd through the bc_to_flash window at @p now and submit
     * it at the accept tick. The slot drains when the device finishes
     * the read or accepts the write, so the depth models the device
     * command queue.
     * @return {accept tick, device completion tick}.
     */
    std::pair<sim::Ticks, sim::Ticks>
    submitFlash(const flash::FlashCommand &cmd, sim::Ticks now);

    /** Read @p page's pending miss from flash at @p now: stamp its
     *  data-ready tick and schedule the arrival. */
    void issueRead(mem::PageNum page, sim::Ticks now);

    /**
     * Miss handling: MSR dedup/alloc, flash read, arrival event.
     * @return the tick the requester's data will be ready.
     */
    sim::Ticks startMiss(const MissRequest &req, sim::Ticks now);

    /** Expected cost of installing one page into its frame. */
    sim::Ticks installEstimate() const;

    /**
     * A fetched page arrived: fill the tag array, update the footprint
     * masks, write the page into DRAM, park the victim, free the MSR
     * entry, and wake the waiters.
     */
    void pageArrived(mem::PageNum page);

    /** Issue queued misses that were blocked on a full MSR set. */
    void retryMsrStalled(sim::Ticks now);

    /** Drain one evict-buffer entry to flash. */
    void drainEvictBuffer(sim::Ticks now);

    sim::Ticks bcOp() const { return bcOpTicks; }

    const DramCacheConfig &cfg;
    const mem::AddressMap &addrMap;
    flash::Backend &flashDev;
    mem::Dram &dramModel;
    mem::SetAssocCache &pageTags;
    const std::uint64_t setRowStride; ///< dcSetRowStride(cfg).
    FootprintState &fp;
    const PageReadyFn &pageReady;
    const sim::Ticks bcOpTicks;
    const sim::Ticks flashReadEstimate;
    sim::BoundedChannel inbox;   ///< fc_to_bc: transaction queue.
    sim::BoundedChannel toFlash; ///< bc_to_flash: command queue.
    MissStatusRow msrTable;
    EvictBuffer evictBuf;
    std::unordered_map<mem::PageNum, PendingMiss> pending;
    std::deque<mem::PageNum> msrStalled; ///< Waiting for MSR space.
    Stats statsData;
};

} // namespace astriflash::core

#endif // ASTRIFLASH_CORE_BACKSIDE_CONTROLLER_HH
