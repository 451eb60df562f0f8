#include "system.hh"

#include <algorithm>
#include <cmath>

#include "mem/cache_hierarchy.hh"
#include "mem/tlb.hh"
#include "sim/logging.hh"

namespace astriflash::core {

namespace {

/** Slab bytes every core's TLB and hierarchy tag arrays take. */
std::size_t
coreTagBytes(const SystemConfig &config)
{
    return std::size_t{config.cores} *
           (mem::CacheHierarchy::storageBytes(
                mem::defaultHierarchyConfig()) +
            mem::Tlb::storageBytes(config.tlb));
}

} // namespace

System::System(const SystemConfig &config)
    : cfg(config), slab(coreTagBytes(config))
{
    cfg.applyKindDefaults();
    // Perturbed same-tick ordering (tools/detshake); seed 0 is the
    // exact production order, and nonzero seeds are fatal unless the
    // hook is compiled in.
    eq.setTiePerturbation(cfg.tieBreakSeed);
    buildMemorySystem();

    // Every core's generator has the same shape; only the seed of its
    // independent streams differs. Core 0's is built, the others are
    // reseeded copies of it, so the Zipf normaliser is summed once.
    for (std::uint32_t c = 0; c < cfg.cores; ++c) {
        const std::uint64_t seed = cfg.seed * 1000003 + c;
        if (c == 0) {
            workload::WorkloadConfig wc = cfg.workload;
            wc.seed = seed;
            gens.push_back(workload::makeWorkload(cfg.workloadKind, wc));
        } else {
            gens.push_back(std::make_unique<workload::Workload>(
                gens.front()->reseeded(seed)));
        }
        cores.push_back(std::make_unique<SimCore>(
            eq, "core" + std::to_string(c), c, *this));
    }

    if (dcache) {
        dcache->setPageReadyCallback(
            [this](mem::PageNum page, sim::Ticks when,
                   const std::vector<WaiterCookie> &waiters) {
                // Route the arrival to each waiting core once.
                // (A bitmask over core&63 would alias cores >= 64
                // and silently drop wakeups.)
                std::vector<bool> seen(cores.size(), false);
                for (WaiterCookie cookie : waiters) {
                    const auto core =
                        static_cast<std::uint32_t>(cookie);
                    if (core < cores.size() && !seen[core]) {
                        seen[core] = true;
                        cores[core]->pageReady(page, when);
                    }
                }
            });
    }

    if (cfg.meanInterarrival > 0) {
        arrivals = std::make_unique<workload::PoissonArrivals>(
            cfg.meanInterarrival, cfg.seed * 31 + 7);
    }

    // Pre-size the event heap and the measurement histograms from
    // configuration hints so the warm-up phase reaches steady state
    // without a single reallocation on the kernel's hot path. The
    // event population is bounded by per-core machinery (run quantum,
    // pending queue, hierarchy misses) plus one in-flight event per
    // MSR entry and a slice of arrival bookkeeping.
    std::size_t expected_events =
        64 + static_cast<std::size_t>(cfg.cores) *
                 (cfg.sched.pendingCap + 32);
    if (dcache)
        expected_events += dcache->msrCapacity();
    if (arrivals)
        expected_events += 64;
    eq.reserve(expected_events);

    // Every recorded latency is bounded by the simulated-time wall.
    serviceHist.reserveFor(cfg.maxSimTicks);
    responseHist.reserveFor(cfg.maxSimTicks);

    registerStats();
    registerInvariants();
}

void
System::registerStats()
{
    auto &sys_reg = statsTree.subRegistry("system");
    sys_reg.registerHistogram("service", &serviceHist,
                              "per-job service time in ticks");
    sys_reg.registerHistogram("response", &responseHist,
                              "arrival-to-completion time in ticks");
    sys_reg.registerUint("measured_jobs", &measuredJobs,
                         "jobs completed inside the measurement window");
    sys_reg.registerUint("completed_jobs", &completedJobs,
                         "jobs completed since the run began");
    sys_reg.registerUint("measured_misses", &measuredMisses,
                         "DRAM-cache misses inside the window");

    for (std::size_t c = 0; c < cores.size(); ++c)
        cores[c]->regStats(
            statsTree.subRegistry("core" + std::to_string(c)));
    if (dcache)
        dcache->regStats(statsTree.subRegistry("dcache"));
    if (flashDev)
        flashDev->regStats(statsTree.subRegistry("flash"));
    if (flatDram)
        flatDram->regStats(statsTree.subRegistry("flatdram"));
    if (osModel)
        osModel->regStats(statsTree.subRegistry("os"));
}

void
System::registerInvariants()
{
    invariants.add("eq", [this](sim::InvariantChecker &chk) {
        eq.checkInvariants(chk);
    });
    for (std::size_t c = 0; c < cores.size(); ++c) {
        SimCore *core = cores[c].get();
        const std::string prefix = "core" + std::to_string(c);
        invariants.add(prefix + ".sched",
                       [core](sim::InvariantChecker &chk) {
                           core->scheduler().checkInvariants(chk);
                       });
        invariants.add(prefix + ".tlb",
                       [core](sim::InvariantChecker &chk) {
                           core->tlb().checkInvariants(chk);
                       });
        invariants.add(prefix + ".hier",
                       [core](sim::InvariantChecker &chk) {
                           core->hierarchy().checkInvariants(chk);
                       });
    }
    if (dcache) {
        invariants.add("dcache", [this](sim::InvariantChecker &chk) {
            dcache->checkInvariants(chk);
        });
        // Shard-scoped hook names collapse to the pre-sharding
        // spellings ("dcache.bc.msr", "dcache.fc_to_bc", ...) when
        // there is a single BC shard.
        const std::uint32_t shards = dcache->shardCount();
        for (std::uint32_t i = 0; i < shards; ++i) {
            const std::string tag =
                shards == 1 ? std::string{} : std::to_string(i);
            invariants.add("dcache.bc" + tag + ".msr",
                           [this, i](sim::InvariantChecker &chk) {
                               dcache->msr(i).checkInvariants(chk);
                           });
            invariants.add(
                "dcache.bc" + tag + ".evictbuf",
                [this, i](sim::InvariantChecker &chk) {
                    dcache->evictBuffer(i).checkInvariants(chk);
                });
        }
        invariants.add("dcache.tags",
                       [this](sim::InvariantChecker &chk) {
                           dcache->pageArray().checkInvariants(chk);
                       });
        for (std::uint32_t i = 0; i < shards; ++i) {
            const std::string tag =
                shards == 1 ? std::string{} : std::to_string(i);
            invariants.add(
                "dcache.fc_to_bc" + tag,
                [this, i](sim::InvariantChecker &chk) {
                    dcache->missChannel(i).checkInvariants(chk);
                });
            invariants.add(
                "dcache.bc_to_flash" + tag,
                [this, i](sim::InvariantChecker &chk) {
                    dcache->flashChannel(i).checkInvariants(chk);
                });
        }
    }
    if (flashDev) {
        if (flashDev->deviceCount() == 1) {
            invariants.add("flash",
                           [this](sim::InvariantChecker &chk) {
                               flashDev->checkInvariants(chk);
                           });
        } else {
            for (std::uint32_t j = 0; j < flashDev->deviceCount();
                 ++j) {
                invariants.add(
                    "flash.dev" + std::to_string(j),
                    [this, j](sim::InvariantChecker &chk) {
                        flashDev->device(j).checkInvariants(chk);
                    });
            }
        }
    }
    if (osModel) {
        invariants.add("os", [this](sim::InvariantChecker &chk) {
            osModel->checkInvariants(chk);
        });
    }
}

System::~System() = default;

void
System::buildMemorySystem()
{
    // The DRAM-cache and page-cache sizes (and prewarm()'s frame
    // estimate) cast dataset * ratio to an integer, which is undefined
    // for a negative or non-finite product.
    if (!(std::isfinite(cfg.dramCacheRatio) && cfg.dramCacheRatio > 0))
        ASTRI_FATAL("DRAM-cache ratio %g must be finite and positive",
                    cfg.dramCacheRatio);
    const std::uint64_t dataset = cfg.workload.datasetBytes;
    const std::uint64_t dataset_pages = dataset / mem::kPageSize;

    // Page-table region sits above the dataset inside the flash BAR
    // (only used by the noDP configuration's leaf walks).
    const std::uint64_t pt_stride =
        ((dataset_pages >> mem::PageTableModel::kIndexBits) + 1) *
        mem::kPageSize;
    const std::uint64_t pt_region =
        pt_stride * mem::PageTableModel::kLevels;
    const std::uint64_t flash_bytes = dataset + pt_region;

    // Flat DRAM partition: covers the dataset in DRAM-only (the
    // "1 TB of DRAM" machine); elsewhere it holds OS state + PTEs.
    const std::uint64_t flat_bytes =
        cfg.kind == SystemKind::DramOnly
            ? dataset
            : std::max<std::uint64_t>(dataset / 16,
                                      std::uint64_t{64} << 20);
    amap = std::make_unique<mem::AddressMap>(flat_bytes, flash_bytes);

    ptModel = std::make_unique<mem::PageTableModel>(
        mem::alignUp(dataset, mem::kPageSize), mem::kPageSize,
        pt_stride);

    // Size each SSD with headroom above its slice of the dataset
    // (spare blocks for out-of-place writes) and pre-load only the
    // dataset + PT region, striped across the fabric's devices. With
    // one device this reduces exactly to sizing the whole SSD for the
    // whole dataset.
    const std::uint32_t fabric_devices = cfg.dramCache.fabric.devices;
    if (fabric_devices == 0)
        ASTRI_FATAL("flash fabric needs at least one device");
    cfg.flash = flash::FlashConfig::forCapacity(
        (flash_bytes + fabric_devices - 1) / fabric_devices);
    flashDev = std::make_unique<flash::FlashFabric>(
        "flash", cfg.flash, cfg.dramCache.fabric,
        flash_bytes / mem::kPageSize);

    flatDram = std::make_unique<mem::Dram>("flatdram",
                                           cfg.dramCache.dram);

    if (cfg.kind == SystemKind::DramOnly)
        return;

    if (cfg.kind == SystemKind::OsSwap) {
        const std::uint64_t cache_bytes = static_cast<std::uint64_t>(
            static_cast<double>(dataset) * cfg.dramCacheRatio);
        osModel = std::make_unique<os::OsPagingModel>(
            "os", mem::alignUp(cache_bytes, 16 * mem::kPageSize),
            cfg.osCosts, cfg.cores, *flashDev, *amap);
        return;
    }

    DramCacheConfig dc = cfg.dramCache;
    dc.capacityBytes = mem::alignUp(
        static_cast<std::uint64_t>(static_cast<double>(dataset) *
                                   cfg.dramCacheRatio),
        dc.ways * dc.pageBytes);
    cfg.dramCache = dc;
    dcache = std::make_unique<DramCache>(eq, "dramcache", dc, *flashDev,
                                         *amap);
}

mem::Addr
System::dataPa(mem::Addr va) const
{
    // DRAM-only serves the dataset from the flat partition; flash-
    // backed configurations map it through the flash BAR (§IV-A).
    if (cfg.kind == SystemKind::DramOnly)
        return va;
    return amap->flashRange().base + va;
}

mem::Addr
System::leafPtePa(mem::Addr va) const
{
    return amap->flashRange().base +
           ptModel->walkAddresses(va)[mem::PageTableModel::kLevels - 1];
}

sim::Ticks
System::flatDramAccess(mem::Addr pa, bool write, sim::Ticks t)
{
    return flatDram->access(pa, t, write).complete;
}

void
System::noteLlcWriteback(mem::Addr pa)
{
    if (dcache)
        dcache->markPageDirty(pa);
    else if (osModel)
        osModel->markDirty(pa);
}

bool
System::supplyJob(std::uint32_t core, sim::Ticks now,
                  workload::Job &job)
{
    if (phase == Phase::Done)
        return false;
    if (arrivals)
        return false; // open loop: jobs come from arrival events only
    job = jobSource ? jobSource(core) : gens[core]->nextJob();
    job.arrival = now;
    job.enqueued = now;
    return true;
}

void
System::scheduleNextArrival()
{
    // Generate enough arrivals to cover warmup + measurement with
    // slack for jobs that never finish inside the window.
    const std::uint64_t target =
        (cfg.warmupJobs + cfg.measureJobs) * 2 + 64;
    if (arrivalsIssued >= target || phase == Phase::Done)
        return;
    const sim::Ticks when = arrivals->next(eq.curTick());
    eq.schedule(when, [this] {
        const std::uint32_t core = nextArrivalCore;
        nextArrivalCore = (nextArrivalCore + 1) % cfg.cores;
        workload::Job job =
            jobSource ? jobSource(core) : gens[core]->nextJob();
        job.arrival = eq.curTick();
        job.enqueued = job.arrival;
        cores[core]->scheduler().enqueueNew(std::move(job));
        cores[core]->kick();
        ++arrivalsIssued;
        scheduleNextArrival();
    });
}

void
System::beginMeasurement(sim::Ticks now)
{
    phase = Phase::Measure;
    measureStart = now;
    serviceHist.reset();
    responseHist.reset();
    measuredMisses = 0;
    if (dcache)
        dcache->resetStats();
    if (osModel)
        osModel->resetStats();
    flashDev->resetStats();
    for (auto &core : cores)
        core->resetStats();
}

void
System::jobFinished(const workload::Job &job, sim::Ticks now)
{
    ++completedJobs;
    if (phase == Phase::Warmup) {
        if (completedJobs >= cfg.warmupJobs)
            beginMeasurement(now);
        return;
    }
    if (phase != Phase::Measure)
        return;
    ++measuredJobs;
    serviceHist.sample(job.service);
    responseHist.sample(job.finished - job.arrival);
    measuredMisses += job.misses;
    if (measuredJobs >= cfg.measureJobs) {
        phase = Phase::Done;
        measureEnd = now;
    }
}

void
System::prewarm()
{
    // Steady-state approximation: the DRAM cache (or OS page cache)
    // holds the hot region plus the most popular Zipfian pages; the
    // TLBs hold the hottest translations.
    const std::uint64_t dataset_pages =
        cfg.workload.datasetBytes / mem::kPageSize;
    const std::uint64_t hot_pages = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               static_cast<double>(dataset_pages) *
               cfg.workload.hotRegionFraction));
    const std::uint64_t frames =
        dcache ? dcache->pageFrames()
               : static_cast<std::uint64_t>(
                     static_cast<double>(dataset_pages) *
                     cfg.dramCacheRatio);

    auto install = [&](mem::Addr page_va) {
        const mem::Addr pa = dataPa(page_va * mem::kPageSize);
        if (dcache)
            dcache->prewarmPage(pa);
        else if (osModel)
            osModel->prewarmPage(pa);
    };

    if (cfg.kind == SystemKind::DramOnly)
        return;

    // Hot region first (always resident in steady state).
    std::uint64_t installed = 0;
    for (std::uint64_t p = 0; p < hot_pages && installed < frames;
         ++p, ++installed) {
        install(dataset_pages - hot_pages + p);
    }
    // Then the Zipfian working set in decreasing popularity (it maps
    // onto the low cold pages; see Workload::coldAddr).
    const std::uint64_t ws = gens.empty()
        ? 0 : gens[0]->workingSet();
    for (std::uint64_t r = 0; installed < frames && r < ws;
         ++r, ++installed) {
        install(gens[0]->rankToPage(r));
    }
    // Any remaining frames pick up uniform-tail pages.
    for (std::uint64_t p = ws;
         installed < frames && p < dataset_pages - hot_pages;
         ++p, ++installed) {
        install(p);
    }
}

RunResults
System::run()
{
    prewarm();
    for (auto &core : cores)
        core->start();
    if (arrivals)
        scheduleNextArrival();

    // The one event loop (DESIGN.md §15). The stop condition is read
    // only between rounds, so the round budget fixes where a run ends;
    // the goldens pin this boundary.
    sim::ParallelEngine engine(eq, 20000);

    // Invariant sweeps run between rounds, never from scheduled
    // events: a recurring event would keep the queue non-empty and
    // defeat quiesce-by-drain termination.
    sim::Ticks next_check = eq.curTick() + cfg.invariantInterval;
    sim::ParallelEngine::RunHooks hooks;
    hooks.stop = [this] {
        return phase == Phase::Done ||
               eq.curTick() >= cfg.maxSimTicks;
    };
    hooks.atBarrier = [this, &next_check](sim::Ticks now) {
        if (sim::checksEnabled() && cfg.invariantInterval > 0 &&
            now >= next_check) {
            invariants.checkAll(now);
            next_check = now + cfg.invariantInterval;
        }
    };
    engine.run(hooks);
    engineStatsData = engine.stats();

    if (sim::checksEnabled())
        invariants.checkAll(eq.curTick()); // quiesce sweep
    if (phase != Phase::Done) {
        ASTRI_WARN("%s/%s: run ended early (phase=%d, %llu measured)",
                   systemKindName(cfg.kind),
                   workload::kindName(cfg.workloadKind),
                   static_cast<int>(phase),
                   static_cast<unsigned long long>(measuredJobs));
        measureEnd = eq.curTick();
    }

    RunResults res;
    res.jobs = measuredJobs;
    res.measureTicks =
        measureEnd > measureStart ? measureEnd - measureStart : 0;
    if (res.measureTicks > 0) {
        res.throughputJobsPerSec =
            static_cast<double>(measuredJobs) /
            sim::toSeconds(res.measureTicks);
    }
    res.service = serviceHist;
    res.response = responseHist;

    if (dcache) {
        res.dramCacheHitRatio = dcache->hitRatio();
        res.peakOutstandingMisses = dcache->bcTotals().peakOutstanding;
    }
    res.flashReads = flashDev->readsCompleted();
    res.flashWrites = flashDev->writesAccepted();
    res.gcBlockedReads = flashDev->gcBlockedReadCount();
    if (osModel)
        res.shootdowns = osModel->bus().stats().shootdowns.value();
    res.invariantSweeps = invariants.sweeps();
    res.invariantChecks = invariants.conditionsEvaluated();
    res.invariantViolations = invariants.violationCount();

    // Calibration: execution time between misses (§V-A's 5-25 µs).
    if (measuredMisses > 0 && measuredJobs > 0) {
        const double exec_per_job = static_cast<double>(
            gens[0]->meanComputePerJob());
        res.avgExecBetweenMissesUs =
            exec_per_job * static_cast<double>(measuredJobs) /
            static_cast<double>(measuredMisses) / sim::kMicrosecond;
    }
    return res;
}

} // namespace astriflash::core
