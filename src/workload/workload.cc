#include "workload.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace astriflash::workload {

const char *
kindName(Kind kind)
{
    switch (kind) {
      case Kind::ArraySwap:
        return "arrayswap";
      case Kind::RedBlackTree:
        return "rbt";
      case Kind::HashTable:
        return "hashtable";
      case Kind::Tatp:
        return "tatp";
      case Kind::Tpcc:
        return "tpcc";
      case Kind::Silo:
        return "silo";
      case Kind::Masstree:
        return "masstree";
    }
    return "unknown";
}

Profile
defaultProfile(Kind kind)
{
    using sim::nanoseconds;
    // Calibrated so that at a 3% DRAM-to-dataset ratio with
    // theta=0.99 each thread misses the DRAM cache every 5-25 µs of
    // execution, and TATP jobs take ~10 µs — the paper's §V-A anchor
    // points. coldAccesses hit the Zipfian bulk dataset; hotAccesses
    // hit index/metadata pages that any 3% cache retains.
    switch (kind) {
      case Kind::ArraySwap:
        // Pure swap pairs: half the accesses are stores, no index.
        return Profile{32, 0, nanoseconds(200), 0.5};
      case Kind::RedBlackTree:
        // Deep pointer chases; upper tree levels are hot.
        return Profile{30, 90, nanoseconds(80), 0.04};
      case Kind::HashTable:
        // Bucket-array probe (hot) then entry access (cold).
        return Profile{24, 24, nanoseconds(150), 0.10};
      case Kind::Tatp:
        // Short 'update subscriber data' transactions (~10 µs).
        return Profile{20, 20, nanoseconds(220), 0.20};
      case Kind::Tpcc:
        // 'neworder': the compute-heavy outlier.
        return Profile{48, 56, nanoseconds(400), 0.30};
      case Kind::Silo:
        // OCC key-value transactions.
        return Profile{28, 32, nanoseconds(180), 0.25};
      case Kind::Masstree:
        // Trie/B+-tree traversals, long chases, mostly reads.
        return Profile{36, 64, nanoseconds(140), 0.05};
    }
    ASTRI_PANIC("unhandled workload kind");
}

std::unique_ptr<Workload>
makeWorkload(Kind kind, const WorkloadConfig &config)
{
    return std::make_unique<Workload>(kind, config);
}

Workload::Workload(Kind kind, const WorkloadConfig &config)
    : Workload(kind, config, defaultProfile(kind))
{
}

Workload::Workload(Kind kind, const WorkloadConfig &config,
                   const Profile &profile)
    : kindVal(kind), cfg(config), prof(profile),
      pages(config.datasetBytes / mem::kPageSize),
      hotPages(static_cast<std::uint64_t>(
          static_cast<double>(config.datasetBytes / mem::kPageSize) *
          config.hotRegionFraction)),
      coldPages(pages > hotPages ? pages - hotPages : 1),
      workingSetPages(std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 static_cast<double>(coldPages) *
                 config.workingSetFraction))),
      computeTicks(static_cast<sim::Ticks>(
          static_cast<double>(prof.computePerOp) * config.computeScale)),
      zipf(workingSetPages, config.zipfTheta,
           /*scramble=*/true, streamSeeds(config.seed).zipf),
      rng(streamSeeds(config.seed).mix)
{
    if (pages < 16)
        ASTRI_FATAL("workload %s: dataset too small (%llu pages)",
                    name(), static_cast<unsigned long long>(pages));
    if (hotPages == 0)
        hotPages = 1;
}

Workload
Workload::reseeded(std::uint64_t seed) const
{
    const StreamSeeds seeds = streamSeeds(seed);
    Workload w(*this);
    w.cfg.seed = seed;
    w.zipf = zipf.reseeded(seeds.zipf);
    w.rng = sim::Rng(seeds.mix);
    w.nextId = 1;
    return w;
}

mem::Addr
Workload::coldAddr()
{
    // Bulk-data mixture: Zipfian over the hot working set (scrambled
    // across [0, workingSetPages)), with a uniform tail over every
    // cold page. The working set maps onto the low cold pages; the
    // scramble already scatters popularity within it.
    std::uint64_t page;
    if (rng.chance(cfg.uniformFraction))
        page = rng.uniformInt(coldPages);
    else
        page = zipf.next();
    const std::uint64_t block = rng.uniformInt(
        mem::kPageSize / mem::kBlockSize);
    return page * mem::kPageSize + block * mem::kBlockSize;
}

mem::Addr
Workload::hotAddr()
{
    // Hot region sits in the top pages of the dataset.
    const std::uint64_t page =
        (pages - hotPages) + rng.uniformInt(hotPages);
    const std::uint64_t block = rng.uniformInt(
        mem::kPageSize / mem::kBlockSize);
    return page * mem::kPageSize + block * mem::kBlockSize;
}

void
Workload::appendAccess(std::vector<Op> &ops, mem::Addr addr, bool store)
{
    Op compute;
    compute.type = Op::Type::Compute;
    compute.compute = computeTicks;
    ops.push_back(compute);

    Op access;
    access.type = store ? Op::Type::Store : Op::Type::Load;
    access.addr = addr;
    ops.push_back(access);
}

void
Workload::genArraySwap(std::vector<Op> &ops)
{
    // Each operation swaps two Zipfian-chosen elements: two loads
    // followed by two stores to the same locations.
    const std::uint32_t swaps = prof.coldAccesses / 4;
    for (std::uint32_t i = 0; i < swaps; ++i) {
        const mem::Addr a = coldAddr();
        const mem::Addr b = coldAddr();
        appendAccess(ops, a, false);
        appendAccess(ops, b, false);
        appendAccess(ops, a, true);
        appendAccess(ops, b, true);
    }
}

void
Workload::genPointerChase(std::vector<Op> &ops, std::uint32_t chase_len)
{
    const std::uint32_t total = prof.coldAccesses + prof.hotAccesses;
    const std::uint32_t chains =
        total / chase_len == 0 ? 1 : total / chase_len;
    const std::uint32_t cold_per_chain = prof.coldAccesses / chains;
    for (std::uint32_t c = 0; c < chains; ++c) {
        // Upper levels of the structure are hot; the tail of the
        // chase descends into cold leaves.
        const std::uint32_t cold_tail =
            cold_per_chain < chase_len ? cold_per_chain : chase_len;
        for (std::uint32_t hop = 0; hop < chase_len; ++hop) {
            const bool cold = hop >= chase_len - cold_tail;
            appendAccess(ops, cold ? coldAddr() : hotAddr(), false);
        }
        // Occasional insert/rebalance writes back the touched leaf.
        if (rng.chance(prof.storeFraction))
            appendAccess(ops, coldAddr(), true);
    }
}

void
Workload::genHashTable(std::vector<Op> &ops)
{
    // Probe = hot bucket-array read, then cold entry access.
    const std::uint32_t probes = prof.coldAccesses;
    for (std::uint32_t i = 0; i < probes; ++i) {
        appendAccess(ops, hotAddr(), false);
        appendAccess(ops, coldAddr(), rng.chance(prof.storeFraction));
    }
}

void
Workload::genTransaction(std::vector<Op> &ops, std::uint32_t read_set,
                         std::uint32_t write_set)
{
    // Index lookups (hot) interleaved with record accesses (cold);
    // the write set updates records at commit.
    const std::uint32_t hot_per_record =
        read_set + write_set > 0
            ? prof.hotAccesses / (read_set + write_set)
            : 0;
    for (std::uint32_t r = 0; r < read_set; ++r) {
        for (std::uint32_t h = 0; h < hot_per_record; ++h)
            appendAccess(ops, hotAddr(), false);
        appendAccess(ops, coldAddr(), false);
    }
    for (std::uint32_t w = 0; w < write_set; ++w) {
        for (std::uint32_t h = 0; h < hot_per_record; ++h)
            appendAccess(ops, hotAddr(), false);
        appendAccess(ops, coldAddr(), true);
    }
}

Job
Workload::nextJob()
{
    Job job;
    job.id = nextId++;
    job.ops.reserve(
        2 * (prof.coldAccesses + prof.hotAccesses) + 4);

    switch (kindVal) {
      case Kind::ArraySwap:
        genArraySwap(job.ops);
        break;
      case Kind::RedBlackTree:
        genPointerChase(job.ops, 6);
        break;
      case Kind::HashTable:
        genHashTable(job.ops);
        break;
      case Kind::Masstree:
        genPointerChase(job.ops, 10);
        break;
      case Kind::Tatp: {
        const std::uint32_t writes = static_cast<std::uint32_t>(
            prof.storeFraction * prof.coldAccesses + 0.5);
        genTransaction(job.ops, prof.coldAccesses - writes, writes);
        break;
      }
      case Kind::Tpcc: {
        const std::uint32_t writes = static_cast<std::uint32_t>(
            prof.storeFraction * prof.coldAccesses + 0.5);
        genTransaction(job.ops, prof.coldAccesses - writes, writes);
        break;
      }
      case Kind::Silo: {
        const std::uint32_t writes = static_cast<std::uint32_t>(
            prof.storeFraction * prof.coldAccesses + 0.5);
        genTransaction(job.ops, prof.coldAccesses - writes, writes);
        break;
      }
    }
    return job;
}

sim::Ticks
Workload::meanComputePerJob() const
{
    // Every access is preceded by one compute interval; the pattern
    // emitters add no other compute.
    double accesses = 0;
    switch (kindVal) {
      case Kind::ArraySwap:
        accesses = (prof.coldAccesses / 4) * 4.0;
        break;
      case Kind::RedBlackTree:
      case Kind::Masstree: {
        const std::uint32_t chase =
            kindVal == Kind::Masstree ? 10 : 6;
        const std::uint32_t total =
            prof.coldAccesses + prof.hotAccesses;
        const std::uint32_t chains =
            total / chase == 0 ? 1 : total / chase;
        accesses = static_cast<double>(chains) * chase +
                   static_cast<double>(chains) * prof.storeFraction;
        break;
      }
      case Kind::HashTable:
        accesses = prof.coldAccesses * 2.0;
        break;
      default: {
        const std::uint32_t hot_per_record =
            prof.coldAccesses > 0
                ? prof.hotAccesses / prof.coldAccesses
                : 0;
        accesses =
            static_cast<double>(prof.coldAccesses) *
            (1.0 + hot_per_record);
        break;
      }
    }
    return static_cast<sim::Ticks>(
        accesses * static_cast<double>(prof.computePerOp) *
        cfg.computeScale);
}

} // namespace astriflash::workload
