/**
 * @file
 * google-benchmark micro suites for the load-bearing primitives:
 * event queue, histogram, Zipfian draws, workload job generation and
 * the per-core generator build a System does, set-associative lookup,
 * miss/fill and clock renumbering, the two-level TLB's miss path,
 * DRAM bank access, the three-level cache hierarchy's miss path
 * (alone and across 256 hierarchies, on the heap and in a tag slab,
 * and in bursts with a one-access look-ahead hint), the on-chip MSHR
 * hold-time recorder, MSR operations, DRAM-cache hit path, and
 * real user-level thread switches (the artifact
 * behind the paper's 100 ns switch claim — here measured as
 * host-machine ucontext switches).
 */

#include <benchmark/benchmark.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "core/dram_cache.hh"
#include "core/miss_status_row.hh"
#include "flash/flash_device.hh"
#include "mem/address_map.hh"
#include "mem/cache_hierarchy.hh"
#include "mem/dram.hh"
#include "mem/mshr.hh"
#include "mem/set_assoc_cache.hh"
#include "mem/tag_slab.hh"
#include "mem/tlb.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "uthread/uthread.hh"
#include "workload/workload.hh"
#include "workload/zipfian.hh"

using namespace astriflash;

static void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    sim::EventQueue eq;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        eq.scheduleIn(1, [&fired] { ++fired; });
        eq.runSteps(1);
    }
    benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueueScheduleRun);

static void
BM_HistogramSample(benchmark::State &state)
{
    sim::Histogram h;
    sim::Rng rng(1);
    for (auto _ : state)
        h.sample(rng.next() & 0xffffffff);
    benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramSample);

static void
BM_HistogramPercentile(benchmark::State &state)
{
    sim::Histogram h;
    sim::Rng rng(1);
    for (int i = 0; i < 100000; ++i)
        h.sample(rng.next() & 0xffffff);
    for (auto _ : state)
        benchmark::DoNotOptimize(h.percentile(0.99));
}
BENCHMARK(BM_HistogramPercentile);

static void
BM_ZipfianNext(benchmark::State &state)
{
    workload::ZipfianGenerator zipf(
        static_cast<std::uint64_t>(state.range(0)), 0.99, true, 3);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.next());
}
BENCHMARK(BM_ZipfianNext)->Arg(1 << 16)->Arg(1 << 24);

namespace {

/** The generator config of the benchmark's workloads: a 1 GB dataset. */
workload::WorkloadConfig
gigabyteDataset(std::uint64_t seed)
{
    workload::WorkloadConfig wc;
    wc.datasetBytes = std::uint64_t{1} << 30;
    wc.seed = seed;
    return wc;
}

} // namespace

static void
BM_WorkloadNextJob(benchmark::State &state)
{
    // One core's job stream: ~40 accesses per TATP job, ~100 per TPCC
    // job, each a Zipf or uniform draw plus a block draw.
    const auto kind = static_cast<workload::Kind>(state.range(0));
    workload::Workload w(kind, gigabyteDataset(1000003));
    for (auto _ : state)
        benchmark::DoNotOptimize(w.nextJob());
}
BENCHMARK(BM_WorkloadNextJob)
    ->ArgNames({"kind"})
    ->Arg(static_cast<int>(workload::Kind::Tatp))
    ->Arg(static_cast<int>(workload::Kind::Tpcc));

static void
BM_WorkloadBuild(benchmark::State &state)
{
    // The per-core TATP generators of a System at seed 1: core 0's
    // built (summing the Zipf normaliser), the rest reseeded from it.
    const auto cores = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state) {
        std::vector<std::unique_ptr<workload::Workload>> gens;
        gens.reserve(cores);
        for (std::uint32_t c = 0; c < cores; ++c) {
            const std::uint64_t seed = 1000003 + c;
            if (c == 0)
                gens.push_back(workload::makeWorkload(
                    workload::Kind::Tatp, gigabyteDataset(seed)));
            else
                gens.push_back(std::make_unique<workload::Workload>(
                    gens.front()->reseeded(seed)));
        }
        benchmark::DoNotOptimize(gens.data());
    }
}
BENCHMARK(BM_WorkloadBuild)->ArgNames({"cores"})->Arg(16)->Arg(256);

static void
BM_CacheLookupHit(benchmark::State &state)
{
    mem::SetAssocCache c("c", 1 << 20, 64, 8);
    for (std::uint64_t a = 0; a < (1 << 20); a += 64)
        c.fill(a);
    sim::Rng rng(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            c.access(rng.uniformInt(1 << 14) * 64));
    }
}
BENCHMARK(BM_CacheLookupHit);

static void
BM_CacheMissFill(benchmark::State &state)
{
    // 1 MB, 16-way, 64 B LLC geometry under a uniform stream over 8x
    // its capacity: about 7 in 8 lookups miss and fill, evicting.
    constexpr std::uint64_t kCap = 1 << 20;
    mem::SetAssocCache c("llc", kCap, 64, 16);
    sim::Rng rng(3);
    for (auto _ : state) {
        const mem::Addr a = rng.uniformInt(8 * kCap / 64) * 64;
        if (!c.access(a))
            benchmark::DoNotOptimize(c.fill(a));
    }
}
BENCHMARK(BM_CacheMissFill);

static void
BM_CacheRenumber(benchmark::State &state)
{
    // BM_CacheMissFill's 1 MB, 16-way array, whose 1 024 sets share
    // one clock, filled by a uniform stream with one fill in four
    // dirty. Only the call that finds the clock at kMaxStamp, and so
    // ranks every set, is timed; the hits that bring the clock back
    // there run with the timer paused.
    constexpr std::uint64_t kCap = 1 << 20;
    constexpr std::uint32_t kWays = 16;
    // Calls from one renumbering to the next, that one included.
    constexpr std::uint32_t kPeriod = mem::SetAssocCache::kMaxStamp - kWays;
    mem::SetAssocCache c("llc", kCap, 64, kWays);
    sim::Rng rng(3);
    std::uint32_t ticks = 0; // calls that advanced the clock
    while (ticks < mem::SetAssocCache::kMaxStamp) {
        const mem::Addr a = rng.uniformInt(8 * kCap / 64) * 64;
        ++ticks;
        if (!c.access(a) && ticks < mem::SetAssocCache::kMaxStamp) {
            c.fill(a, rng.uniformInt(4) == 0);
            ++ticks;
        }
    }
    const mem::Addr hot = 0;
    c.fill(hot); // the first renumbering, untimed
    for (std::uint32_t i = 1; i < kPeriod; ++i)
        c.access(hot);
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.access(hot));
        state.PauseTiming();
        for (std::uint32_t i = 1; i < kPeriod; ++i)
            c.access(hot);
        state.ResumeTiming();
    }
}
BENCHMARK(BM_CacheRenumber);

static void
BM_HierarchyAccessMiss(benchmark::State &state)
{
    // The default L1D/L2/LLC hierarchy over 64 MB, so nearly every
    // access misses the LLC and the refill cascades through all three
    // levels; one access in four is a store.
    mem::CacheHierarchy h("h", mem::defaultHierarchyConfig());
    sim::Rng rng(4);
    for (auto _ : state) {
        const mem::Addr a = rng.uniformInt((64 << 20) / 64) * 64;
        const bool write = rng.uniformInt(4) == 0;
        if (h.access(a, write).llcMiss)
            h.fillFromMemory(a, write);
    }
}
BENCHMARK(BM_HierarchyAccessMiss);

static void
BM_TlbLookupMiss(benchmark::State &state)
{
    // The default two-level TLB under uniform pages of 64 MB, 16 384
    // pages against 1 280 L2 entries, so most lookups miss both
    // levels and the walk's fill follows, as in SimCore.
    mem::Tlb tlb("tlb", mem::Tlb::Config{});
    sim::Rng rng(6);
    for (auto _ : state) {
        const mem::Addr va =
            rng.uniformInt((64 << 20) / mem::kPageSize) * mem::kPageSize;
        if (tlb.lookup(va).miss)
            tlb.fill(va);
    }
}
BENCHMARK(BM_TlbLookupMiss);

static void
BM_DramAccess(benchmark::State &state)
{
    // Uniform block accesses over 64 MB with the banks kept idle, so
    // the time is the model's: the bank map, the row compare, stats.
    mem::Dram dram("dram", mem::DramConfig{});
    sim::Rng rng(5);
    sim::Ticks t = 0;
    for (auto _ : state) {
        // Top 20 bits of a raw draw: a block of 64 MB, no division.
        const mem::Addr a = (rng.next() >> 44) * 64;
        benchmark::DoNotOptimize(dram.access(a, t, false));
        t += sim::microseconds(1);
    }
}
BENCHMARK(BM_DramAccess);

namespace {

/**
 * BM_HierarchyAccessMiss's stream served round-robin by 256 default
 * hierarchies, one per core of the paper-scale runs. Their 6.5 M ways
 * do not fit in a host cache, so each access pays for the set bytes
 * it fetches, as the 256-core systems do.
 */
struct Farm {
    std::vector<mem::CacheHierarchy> hiers;
    sim::Rng rng{4};
    std::size_t next = 0;
    std::size_t served = 0; ///< Accesses of the current burst so far.
    /** The next access, drawn one ahead so a hint can see it. */
    mem::Addr nextAddr = 0;
    bool nextWrite = false;

    /** 256 hierarchies with their tag arrays in @p slab, or the heap. */
    explicit Farm(mem::TagSlab *slab)
    {
        hiers.reserve(256);
        for (int i = 0; i < 256; ++i)
            hiers.emplace_back("h", mem::defaultHierarchyConfig(), slab);
        draw();
        // Built and warmed once, as google-benchmark calls a benchmark
        // function several times to size its run: two LLC capacities
        // of accesses per hierarchy fill nearly every set, so misses
        // evict.
        for (int i = 0; i < 256 * 32 * 1024; ++i)
            step();
    }

    void
    draw()
    {
        nextAddr = rng.uniformInt((64 << 20) / 64) * 64;
        nextWrite = rng.uniformInt(4) == 0;
    }

    /**
     * Serve one access, moving on to the next hierarchy after
     * @p burst of them, as a core runs a few ops per event. With
     * @p hint, first prefetch the sets of the access after it, as
     * SimCore does one op ahead.
     */
    void
    step(std::size_t burst = 1, bool hint = false)
    {
        mem::CacheHierarchy &h = hiers[next];
        const mem::Addr a = nextAddr;
        const bool write = nextWrite;
        if (++served >= burst) {
            served = 0;
            next = (next + 1) % hiers.size();
        }
        draw();
        if (hint)
            hiers[next].prefetch(nextAddr);
        if (h.access(a, write).llcMiss)
            h.fillFromMemory(a, write);
    }
};

/** The farm with every tag array in one huge-page slab, built once. */
Farm &
slabFarm()
{
    static mem::TagSlab slab(
        256 * mem::CacheHierarchy::storageBytes(
                  mem::defaultHierarchyConfig()));
    static Farm farm(&slab);
    return farm;
}

} // namespace

static void
BM_HierarchyMissFill256(benchmark::State &state)
{
    static Farm farm(nullptr);
    for (auto _ : state)
        farm.step();
}
BENCHMARK(BM_HierarchyMissFill256);

static void
BM_HierarchyMissFill256Slab(benchmark::State &state)
{
    // The same stream with every tag array in one huge-page slab, as
    // a System lays out its cores' arrays.
    Farm &farm = slabFarm();
    for (auto _ : state)
        farm.step();
}
BENCHMARK(BM_HierarchyMissFill256Slab);

static void
BM_HierarchyMissFill256SlabLookahead(benchmark::State &state)
{
    // The slab farm in bursts of `burst` accesses per hierarchy, with
    // (hint = 1) or without the one-access look-ahead prefetch.
    // tatp_256c runs about two memory ops per core event.
    Farm &farm = slabFarm();
    const auto burst = static_cast<std::size_t>(state.range(0));
    const bool hint = state.range(1) != 0;
    for (auto _ : state)
        farm.step(burst, hint);
}
BENCHMARK(BM_HierarchyMissFill256SlabLookahead)
    ->ArgNames({"burst", "hint"})
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({40, 0})
    ->Args({40, 1});

static void
BM_MshrRecord(benchmark::State &state)
{
    // One LLC miss's MSHR traffic as SimCore makes it: hint the
    // bucket, then record the hold until the memory system's answer.
    mem::MshrFile m;
    sim::Ticks now = 0;
    for (auto _ : state) {
        m.prefetch();
        m.record(now, now + 700 + (now & 0xff));
        now += 1000;
    }
    benchmark::DoNotOptimize(m.stats().heldTicks.value());
}
BENCHMARK(BM_MshrRecord);

static void
BM_MsrAllocateFree(benchmark::State &state)
{
    core::MissStatusRow msr("m", 128, 8);
    std::uint64_t page = 0;
    for (auto _ : state) {
        msr.allocate(mem::PageNum(page));
        msr.free(mem::PageNum(page));
        ++page;
    }
}
BENCHMARK(BM_MsrAllocateFree);

static void
BM_DramCacheHitPath(benchmark::State &state)
{
    sim::EventQueue eq;
    mem::AddressMap amap(64 << 20, 256 << 20);
    flash::FlashConfig fcfg =
        flash::FlashConfig::forCapacity(512 << 20);
    flash::FlashDevice flash("f", fcfg, (256 << 20) / 4096);
    core::DramCacheConfig cfg;
    cfg.capacityBytes = 8 << 20;
    core::DramCache dc(eq, "dc", cfg, flash, amap);
    for (std::uint64_t p = 0; p < cfg.capacityBytes / 4096; ++p)
        dc.prewarmPage(amap.flashRange().base + p * 4096);
    sim::Rng rng(3);
    sim::Ticks t = 0;
    for (auto _ : state) {
        const mem::Addr pa = amap.flashRange().base +
                             rng.uniformInt(2048) * 4096;
        benchmark::DoNotOptimize(dc.access(pa, false, t, 0));
        t += 1000000; // keep banks idle: measures the model cost
    }
}
BENCHMARK(BM_DramCacheHitPath);

static void
BM_UthreadSwitch(benchmark::State &state)
{
    // Measures a full yield round-trip (worker -> scheduler ->
    // worker): two ucontext switches. The paper's 100 ns switch is
    // the hardware-assisted single switch; this is the host-software
    // analog.
    uthread::UScheduler sched;
    bool stop = false;
    std::uint64_t switches = 0;
    sched.spawn([&] {
        while (!stop) {
            sched.yield();
            ++switches;
        }
    });
    sched.spawn([&] {
        for (auto _ : state) {
            sched.yield();
        }
        stop = true;
    });
    sched.run();
    state.counters["roundtrips"] =
        static_cast<double>(switches);
}
BENCHMARK(BM_UthreadSwitch);

static void
BM_FlashReadModel(benchmark::State &state)
{
    flash::FlashConfig cfg = flash::FlashConfig::forCapacity(1 << 30);
    flash::FlashDevice dev("f", cfg, (1 << 30) / 4096);
    sim::Rng rng(4);
    sim::Ticks t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dev.read(flash::Lpn(rng.uniformInt(100000)), t));
        t += sim::microseconds(10);
    }
}
BENCHMARK(BM_FlashReadModel);

BENCHMARK_MAIN();
