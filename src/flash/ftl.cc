#include "ftl.hh"

#include <unordered_set>

#include "sim/logging.hh"

namespace astriflash::flash {

Ppn
Ftl::pack(const PhysPage &p)
{
    return Ppn((static_cast<std::uint64_t>(p.plane) << 40) |
               (static_cast<std::uint64_t>(p.block) << 16) |
               static_cast<std::uint64_t>(p.page));
}

PhysPage
Ftl::unpack(Ppn v) const
{
    // Ppn is defined as this packed encoding.
    // aflint-allow-next-line(AF011)
    const std::uint64_t raw = v.raw();
    PhysPage p;
    p.plane = static_cast<std::uint32_t>(raw >> 40);
    p.block = static_cast<std::uint32_t>((raw >> 16) & 0xffffff);
    p.page = static_cast<std::uint32_t>(raw & 0xffff);
    return p;
}

Ftl::Ftl(std::string name, const FlashConfig &config,
         std::uint64_t preload_pages, BackendKind backend_kind)
    : ftlName(std::move(name)), cfg(config),
      preloaded(preload_pages == ~std::uint64_t{0}
                    ? config.userPages()
                    : preload_pages),
      kind(backend_kind)
{
    if (cfg.pagesPerBlock == 0 || cfg.blocksPerPlane == 0)
        ASTRI_FATAL("%s: empty flash geometry", ftlName.c_str());
    if (preloaded > cfg.userPages())
        ASTRI_FATAL("%s: preload %llu exceeds user capacity %llu",
                    ftlName.c_str(),
                    static_cast<unsigned long long>(preloaded),
                    static_cast<unsigned long long>(cfg.userPages()));
    planes.resize(cfg.totalPlanes());

    // Pre-load the dataset: the first blocks of each plane are fully
    // valid with statically-striped logical pages; the remaining
    // blocks (free capacity + overprovisioning) start free.
    const std::uint64_t user_pages = preloaded;
    const std::uint32_t nplanes = cfg.totalPlanes();
    for (std::uint32_t pl = 0; pl < nplanes; ++pl) {
        Plane &plane = planes[pl];
        plane.blocks.resize(cfg.blocksPerPlane);
        // Pages of this plane: lpns with lpn % nplanes == pl.
        const std::uint64_t plane_pages =
            user_pages / nplanes + (pl < user_pages % nplanes ? 1 : 0);
        const std::uint64_t full_blocks = plane_pages / cfg.pagesPerBlock;
        const std::uint32_t partial = static_cast<std::uint32_t>(
            plane_pages % cfg.pagesPerBlock);
        for (std::uint64_t b = 0; b < cfg.blocksPerPlane; ++b) {
            Block &blk = plane.blocks[b];
            if (b < full_blocks) {
                blk.validPages = cfg.pagesPerBlock;
                blk.writePtr = cfg.pagesPerBlock;
            } else if (b == full_blocks && partial > 0) {
                blk.validPages = partial;
                blk.writePtr = partial;
            } else {
                ++plane.freeBlocks;
                plane.freePages += cfg.pagesPerBlock;
            }
        }
        // Writes continue in the partly filled preload block; a plane
        // whose preload ends on a block boundary opens the first
        // empty block.
        plane.activeBlock = static_cast<std::uint32_t>(full_blocks);
        if (partial > 0)
            plane.freePages += cfg.pagesPerBlock - partial;
        else if (plane.activeBlock < cfg.blocksPerPlane)
            --plane.freeBlocks; // the active block is claimed
    }
}

std::uint32_t
Ftl::planeOf(Lpn lpn) const
{
    // Plane striping is modular arithmetic on the logical page index.
    // aflint-allow-next-line(AF011)
    return static_cast<std::uint32_t>(lpn.raw() % cfg.totalPlanes());
}

PhysPage
Ftl::translate(Lpn lpn)
{
    if (auto it = mapping.find(lpn); it != mapping.end())
        return unpack(it->second);
    // Stripe math and diagnostics below.
    // aflint-allow-next-line(AF011)
    const std::uint64_t lpn_raw = lpn.raw();
    ASTRI_ASSERT_MSG(lpn < Lpn(preloaded),
                     "read of unwritten lpn %llu beyond the preloaded "
                     "dataset",
                     static_cast<unsigned long long>(lpn_raw));
    // Static pre-load location.
    PhysPage p;
    p.plane = planeOf(lpn);
    const std::uint64_t idx = lpn_raw / cfg.totalPlanes();
    p.block = static_cast<std::uint32_t>(idx / cfg.pagesPerBlock);
    p.page = static_cast<std::uint32_t>(idx % cfg.pagesPerBlock);
    return p;
}

void
Ftl::materializeOwners(std::uint32_t plane_idx, std::uint32_t block)
{
    Block &blk = planes[plane_idx].blocks[block];
    if (!blk.owners.empty() || blk.writePtr == 0)
        return;
    blk.owners.assign(cfg.pagesPerBlock, kInvalidLpn);
    for (std::uint32_t pg = 0; pg < blk.writePtr; ++pg) {
        const Lpn static_lpn{
            (static_cast<std::uint64_t>(block) * cfg.pagesPerBlock +
             pg) * cfg.totalPlanes() + plane_idx};
        if (static_lpn < Lpn(preloaded))
            blk.owners[pg] = static_lpn;
    }
}

void
Ftl::invalidateOld(Lpn lpn)
{
    const PhysPage old = translate(lpn);
    materializeOwners(old.plane, old.block);
    Block &blk = planes[old.plane].blocks[old.block];
    if (blk.owners[old.page] != kInvalidLpn) {
        blk.owners[old.page] = kInvalidLpn;
        ASTRI_ASSERT(blk.validPages > 0);
        --blk.validPages;
    }
}

PhysPage
Ftl::allocate(std::uint32_t plane_idx)
{
    Plane &plane = planes[plane_idx];
    ASTRI_ASSERT_MSG(plane.activeBlock < cfg.blocksPerPlane,
                     "%s: plane %u has no active block",
                     ftlName.c_str(), plane_idx);
    Block *blk = &plane.blocks[plane.activeBlock];
    if (blk->writePtr >= cfg.pagesPerBlock) {
        // Advance the frontier to the next free block. Block indices
        // within a plane fit 32 bits (config-bounded).
        const auto num_blocks =
            static_cast<std::uint32_t>(cfg.blocksPerPlane);
        std::uint32_t next = num_blocks;
        for (std::uint32_t b = 0; b < num_blocks; ++b) {
            const Block &cand = plane.blocks[b];
            if (cand.writePtr == 0 && cand.validPages == 0) {
                next = b;
                break;
            }
        }
        ASTRI_ASSERT_MSG(next < cfg.blocksPerPlane,
                         "%s: plane %u out of free blocks "
                         "(overprovisioning exhausted)",
                         ftlName.c_str(), plane_idx);
        plane.activeBlock = next;
        ASTRI_ASSERT(plane.freeBlocks > 0);
        --plane.freeBlocks;
        blk = &plane.blocks[next];
    }
    // A partly filled preload block serving as the frontier pins its
    // static owners before the first append lands beside them.
    materializeOwners(plane_idx, plane.activeBlock);
    if (blk->owners.empty())
        blk->owners.assign(cfg.pagesPerBlock, kInvalidLpn);
    PhysPage out;
    out.plane = plane_idx;
    out.block = plane.activeBlock;
    out.page = blk->writePtr;
    ++blk->writePtr;
    ASTRI_ASSERT(plane.freePages > 0);
    --plane.freePages;
    return out;
}

std::uint32_t
Ftl::pickVictim(const Plane &plane) const
{
    std::uint32_t best = ~0u;
    for (std::uint32_t b = 0; b < cfg.blocksPerPlane; ++b) {
        const Block &blk = plane.blocks[b];
        // Only sealed, non-active blocks with reclaimable space are
        // candidates (erasing the write frontier would corrupt the
        // free-block accounting), and only if their valid pages fit
        // the writable pages left: otherwise relocation itself would
        // exhaust the plane before the erase hands a block back.
        if (b == plane.activeBlock ||
            blk.writePtr < cfg.pagesPerBlock ||
            blk.validPages == cfg.pagesPerBlock ||
            blk.validPages > plane.freePages) {
            continue;
        }
        if (best == ~0u) {
            best = b;
            continue;
        }
        const Block &cur = plane.blocks[best];
        if (blk.validPages < cur.validPages ||
            (blk.validPages == cur.validPages &&
             blk.eraseCount < cur.eraseCount)) {
            best = b;
        }
    }
    return best;
}

void
Ftl::collectGarbage(std::uint32_t plane_idx, GcWork *work)
{
    Plane &plane = planes[plane_idx];
    statsData.gcInvocations.inc();

    while (plane.freeBlocks < cfg.gcFreeBlockLow) {
        const std::uint32_t victim_idx = pickVictim(plane);
        if (victim_idx == ~0u)
            break; // nothing reclaimable; writes will hit the wall
        // Relocate valid pages within the local plane (the paper's
        // local-erasure policy keeps GC traffic off other planes).
        materializeOwners(plane_idx, victim_idx);
        Block &victim = plane.blocks[victim_idx];
        for (std::uint32_t pg = 0; pg < cfg.pagesPerBlock; ++pg) {
            const Lpn lpn = victim.owners[pg];
            if (lpn == kInvalidLpn) {
                // A host overwrite left this copy stale; the erase
                // reclaims it.
                statsData.gcInvalidations.inc();
                continue;
            }
            const PhysPage dst = allocate(plane_idx);
            Block &dst_blk = plane.blocks[dst.block];
            dst_blk.owners[dst.page] = lpn;
            ++dst_blk.validPages;
            mapping[lpn] = pack(dst);
            ++work->relocatedPages;
            statsData.gcRelocations.inc();
            statsData.flashPrograms.inc();
        }
        // Erase the victim.
        victim.validPages = 0;
        victim.writePtr = 0;
        victim.owners.clear();
        victim.owners.shrink_to_fit();
        ++victim.eraseCount;
        ++plane.freeBlocks;
        plane.freePages += cfg.pagesPerBlock;
        ++work->erasedBlocks;
        statsData.erases.inc();
    }
}

PhysPage
Ftl::write(Lpn lpn, GcWork *gc)
{
    // aflint-allow-next-line(AF011): diagnostics formatting.
    const unsigned long long lpn_raw = lpn.raw();
    ASTRI_ASSERT_MSG(lpn < Lpn(preloaded),
                     "write of lpn %llu beyond the preloaded dataset",
                     lpn_raw);
    statsData.hostWrites.inc();
    invalidateOld(lpn);

    const std::uint32_t plane_idx = planeOf(lpn);
    GcWork local;
    // A plane with no writable page left cleans before appending;
    // the invalidation above may have left its only stale page.
    if (planes[plane_idx].freePages == 0)
        collectGarbage(plane_idx, &local);
    const PhysPage dst = allocate(plane_idx);
    Block &blk = planes[plane_idx].blocks[dst.block];
    blk.owners[dst.page] = lpn;
    ++blk.validPages;
    mapping[lpn] = pack(dst);
    statsData.flashPrograms.inc();

    if (planes[plane_idx].freeBlocks < cfg.gcFreeBlockLow)
        collectGarbage(plane_idx, &local);
    writeAmp = statsData.writeAmplification();
    if (gc)
        *gc = local;
    return dst;
}

std::uint64_t
Ftl::freePagesInPlane(std::uint32_t plane) const
{
    return planes[plane].freePages;
}

void
Ftl::regStats(sim::StatRegistry &device_reg) const
{
    if (kind == BackendKind::Zns) {
        auto &reg = device_reg.subRegistry("log");
        reg.registerCounter("host_writes", &statsData.hostWrites,
                            "page writes requested by the host");
        reg.registerCounter("zone_appends", &statsData.flashPrograms,
                            "media programs (host appends + "
                            "relocations)");
        reg.registerCounter("gc_relocations", &statsData.gcRelocations,
                            "valid pages relocated by zone cleaning");
        reg.registerCounter("gc_invalidations",
                            &statsData.gcInvalidations,
                            "stale pages reclaimed by zone resets");
        reg.registerCounter("zone_resets", &statsData.erases,
                            "zones erased and returned to the free "
                            "pool");
        reg.registerScalar("write_amplification", &writeAmp,
                           "media programs per host write");
        return;
    }
    auto &reg = device_reg.subRegistry("ftl");
    reg.registerCounter("host_writes", &statsData.hostWrites,
                        "logical page writes from the host");
    reg.registerCounter("flash_programs", &statsData.flashPrograms,
                        "physical page programs (host + GC)");
    reg.registerCounter("gc_invocations", &statsData.gcInvocations,
                        "garbage-collection passes triggered");
    reg.registerCounter("gc_relocations", &statsData.gcRelocations,
                        "valid pages moved by the collector");
    reg.registerCounter("erases", &statsData.erases, "blocks erased");
}

void
Ftl::checkInvariants(sim::InvariantChecker &chk) const
{
    // Injective, in-bounds mapping with agreeing owner back-pointers.
    std::unordered_set<Ppn> targets;
    // Audit-only walk; the injectivity check via `targets` passes or
    // fails regardless of order (baselined AF015).
    for (const auto &[lpn, packed] : mapping) {
        // aflint-allow-next-line(AF011): diagnostics formatting.
        const unsigned long long lpn_raw = lpn.raw();
        SIM_INVARIANT_MSG(chk, lpn < Lpn(preloaded),
                          "mapped lpn %llu beyond the dataset",
                          lpn_raw);
        SIM_INVARIANT_MSG(chk, targets.insert(packed).second,
                          "two logical pages map to physical %llx",
                          static_cast<unsigned long long>(
                              // aflint-allow-next-line(AF011)
                              packed.raw()));
        const PhysPage p = unpack(packed);
        SIM_INVARIANT_MSG(chk,
                          p.plane < planes.size() &&
                              p.block < cfg.blocksPerPlane &&
                              p.page < cfg.pagesPerBlock,
                          "lpn %llu maps out of bounds (%u/%u/%u)",
                          lpn_raw, p.plane, p.block, p.page);
        SIM_INVARIANT_MSG(chk, planeOf(lpn) == p.plane,
                          "lpn %llu mapped off its stripe plane %u",
                          lpn_raw, p.plane);
        const Block &blk = planes[p.plane].blocks[p.block];
        SIM_INVARIANT_MSG(chk,
                          !blk.owners.empty() &&
                              blk.owners[p.page] == lpn,
                          "owner back-pointer disagrees for lpn %llu",
                          lpn_raw);
    }

    // Block-level consistency and per-plane free-space accounting.
    for (std::size_t pl = 0; pl < planes.size(); ++pl) {
        const Plane &plane = planes[pl];
        std::uint32_t free_blocks = 0;
        for (std::size_t b = 0; b < plane.blocks.size(); ++b) {
            const Block &blk = plane.blocks[b];
            SIM_INVARIANT_MSG(chk,
                              blk.validPages <= blk.writePtr &&
                                  blk.writePtr <= cfg.pagesPerBlock,
                              "plane %zu block %zu: valid %u > "
                              "written %u (cap %u)",
                              pl, b, blk.validPages, blk.writePtr,
                              cfg.pagesPerBlock);
            if (!blk.owners.empty()) {
                std::uint32_t owned = 0;
                for (const Lpn owner : blk.owners) {
                    if (owner != kInvalidLpn)
                        ++owned;
                }
                SIM_INVARIANT_MSG(chk, owned == blk.validPages,
                                  "plane %zu block %zu: %u owners but "
                                  "%u valid pages",
                                  pl, b, owned, blk.validPages);
            }
            if (blk.writePtr == 0 && blk.validPages == 0 &&
                b != plane.activeBlock) {
                ++free_blocks;
            }
        }
        SIM_INVARIANT_MSG(chk, plane.freeBlocks == free_blocks,
                          "plane %zu counts %u free blocks, found %u",
                          pl, plane.freeBlocks, free_blocks);
        // freePages tracks the claimed frontier plus fully-free blocks.
        std::uint64_t expect =
            static_cast<std::uint64_t>(free_blocks) * cfg.pagesPerBlock;
        if (plane.activeBlock < plane.blocks.size()) {
            expect += cfg.pagesPerBlock -
                      plane.blocks[plane.activeBlock].writePtr;
        }
        SIM_INVARIANT_MSG(chk, plane.freePages == expect,
                          "plane %zu free-page ledger %llu != %llu",
                          pl,
                          static_cast<unsigned long long>(
                              plane.freePages),
                          static_cast<unsigned long long>(expect));
    }

    // Every physical program is a host write or a GC relocation.
    SIM_INVARIANT_MSG(
        chk,
        statsData.flashPrograms.value() ==
            statsData.hostWrites.value() +
                statsData.gcRelocations.value(),
        "program conservation: %llu programs != %llu host + %llu GC",
        static_cast<unsigned long long>(statsData.flashPrograms.value()),
        static_cast<unsigned long long>(statsData.hostWrites.value()),
        static_cast<unsigned long long>(
            statsData.gcRelocations.value()));
    // Every page of every erased block was relocated or stale.
    SIM_INVARIANT_MSG(
        chk,
        statsData.gcRelocations.value() +
                statsData.gcInvalidations.value() ==
            statsData.erases.value() * cfg.pagesPerBlock,
        "reclaim conservation: %llu relocated + %llu stale != "
        "%llu erases * %u pages",
        static_cast<unsigned long long>(statsData.gcRelocations.value()),
        static_cast<unsigned long long>(
            statsData.gcInvalidations.value()),
        static_cast<unsigned long long>(statsData.erases.value()),
        cfg.pagesPerBlock);
}

std::uint32_t
Ftl::eraseCountSpread() const
{
    std::uint32_t lo = ~0u, hi = 0;
    for (const Plane &plane : planes) {
        for (const Block &blk : plane.blocks) {
            lo = blk.eraseCount < lo ? blk.eraseCount : lo;
            hi = blk.eraseCount > hi ? blk.eraseCount : hi;
        }
    }
    return hi >= lo ? hi - lo : 0;
}

} // namespace astriflash::flash
