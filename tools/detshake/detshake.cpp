/**
 * @file
 * detshake — schedule-perturbation determinism harness.
 *
 * A correct discrete-event simulation must produce byte-identical
 * stats whatever order same-tick events happen to fire in and however
 * deep its (never-stalling) channels are: any divergence means some
 * model consulted an ordering accident — unordered-container
 * iteration, address-dependent keys, tie-break luck — and would break
 * the SweepRunner byte-identity contract (DESIGN.md §14).
 *
 * For every committed golden case (tools/golden_cases.hh) detshake
 * reruns the simulation under
 *
 *  1. a seeded random permutation of same-tick event tie-breaking
 *     (sim::EventQueue::setTiePerturbation; the hook is compiled out
 *     of plain Release, so this needs a Debug or
 *     -DASTRIFLASH_CHECKS=ON build), and
 *  2. seeded channel-depth jitter inside the timing-neutral band
 *     (every depth stays far above the peak occupancy any config can
 *     reach, so accept ticks cannot move),
 *
 * and byte-compares the full stats JSON against the committed golden
 * file. Exit 0: every ordering reproduced the goldens. Exit 1: a
 * divergence (the offending case/seed and the first differing byte
 * are reported, and the actual output is kept for diffing). Exit 77:
 * the tie-break hook is compiled out and --jitter-only was not given
 * (ctest treats 77 as SKIP).
 *
 *   detshake --golden-dir=tests/golden --seeds=8
 *   detshake --golden-dir=tests/golden --seeds=4 --jitter-only
 *   detshake --case=astriflash_tatp --seeds=2 --out-dir=/tmp/shake
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/option_parser.hh"

#include "golden_cases.hh"

using namespace astriflash;
using namespace astriflash::core;
using namespace astriflash::tools;

namespace {

/** splitmix64, the jitter's only randomness source (host-seedless). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * A jittered channel depth in the timing-neutral band [8 Ki, 256 Ki]:
 * every configuration's peak channel occupancy is bounded by its MSR
 * capacity (1024 entries cache-wide), so no depth in the band can ever
 * stall a push and the stats must not move.
 */
std::uint32_t
jitterDepth(std::uint64_t key)
{
    return 8192u << (mix64(key) % 6);
}

struct Mismatch {
    std::string caseName;
    std::string variant;
};

/** Render one (case, tie seed, jitter seed) run to JSON. */
std::string
renderRun(const GoldenCase &gc, std::uint64_t tie_seed,
          std::uint64_t jitter_seed)
{
    SystemConfig cfg = goldenCaseConfig(gc);
    cfg.tieBreakSeed = tie_seed;
    if (jitter_seed != 0) {
        ChannelConfig &ch = cfg.dramCache.channels;
        ch.fcToBcDepth = jitterDepth(jitter_seed * 3 + 0);
        ch.bcToFlashDepth = jitterDepth(jitter_seed * 3 + 1);
        ch.bcToFcDepth = jitterDepth(jitter_seed * 3 + 2);
    }
    System sys(cfg);
    const RunResults r = sys.run();
    std::ostringstream os;
    writeGoldenJson(os, gc, r, sys);
    return os.str();
}

/** Report the first differing byte between @p got and @p want. */
void
reportDiff(const std::string &got, const std::string &want)
{
    const std::size_t n = std::min(got.size(), want.size());
    std::size_t i = 0;
    while (i < n && got[i] == want[i])
        ++i;
    std::size_t line = 1;
    for (std::size_t j = 0; j < i; ++j) {
        if (want[j] == '\n')
            ++line;
    }
    std::fprintf(stderr,
                 "  first divergence at byte %zu (line %zu); sizes "
                 "%zu vs golden %zu\n",
                 i, line, got.size(), want.size());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string golden_dir = "tests/golden";
    std::string out_dir;
    std::string only_case;
    std::uint64_t seeds = 8;
    bool jitter_only = false;
    bool list = false;

    sim::OptionParser opts(
        "detshake",
        "Rerun the golden configs under perturbed same-tick event "
        "ordering and jittered channel depths; require byte-identical "
        "stats JSON.");
    opts.addString("golden-dir", &golden_dir,
                   "directory holding the committed <case>.json files");
    opts.addString("out-dir", &out_dir,
                   "where to keep diverging outputs (default: skip)");
    opts.addString("case", &only_case, "restrict to one case name");
    opts.addUint("seeds", &seeds,
                 "perturbation seeds per case (1..N, 0 = baseline only)");
    opts.addFlag("jitter-only", &jitter_only,
                 "skip tie-break perturbation (works in any build)");
    opts.addFlag("list", &list, "print the known case names");
    opts.parseOrExit(argc, argv);

    if (list) {
        for (const GoldenCase &gc : kGoldenCases)
            std::printf("%s\n", gc.name);
        return 0;
    }

    const bool perturb = !jitter_only;
    if (perturb && !sim::EventQueue::tiePerturbationCompiledIn()) {
        std::fprintf(stderr,
                     "detshake: the tie-break perturbation hook is "
                     "compiled out (plain Release); rebuild with "
                     "-DASTRIFLASH_CHECKS=ON or pass --jitter-only\n");
        return 77;
    }

    std::vector<Mismatch> bad;
    std::uint64_t runs = 0;
    for (const GoldenCase &gc : kGoldenCases) {
        if (!only_case.empty() && only_case != gc.name)
            continue;

        const std::string golden_path =
            golden_dir + "/" + gc.name + ".json";
        std::ifstream in(golden_path, std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "detshake: cannot read '%s'\n",
                         golden_path.c_str());
            return 2;
        }
        std::ostringstream slurp;
        slurp << in.rdbuf();
        const std::string want = slurp.str();

        for (std::uint64_t s = 0; s <= seeds; ++s) {
            // s == 0 is the unperturbed baseline (also proves the
            // harness itself reproduces the golden); s >= 1 shakes the
            // tie-breaking and the channel depths together.
            const std::uint64_t tie = perturb ? s : 0;
            const std::string variant =
                s == 0 ? std::string("baseline")
                       : (perturb ? "tie+jitter seed " : "jitter seed ") +
                             std::to_string(s);
            const std::string got = renderRun(gc, tie, s);
            ++runs;
            if (got == want) {
                std::printf("ok   %-28s %s\n", gc.name, variant.c_str());
                continue;
            }
            std::printf("FAIL %-28s %s\n", gc.name, variant.c_str());
            reportDiff(got, want);
            if (!out_dir.empty()) {
                const std::string path = out_dir + "/" + gc.name +
                                         ".seed" + std::to_string(s) +
                                         ".json";
                std::ofstream out(path, std::ios::binary);
                out << got;
                std::fprintf(stderr, "  actual output kept at %s\n",
                             path.c_str());
            }
            bad.push_back(Mismatch{gc.name, variant});
        }
    }

    if (!bad.empty()) {
        std::fprintf(stderr,
                     "detshake: %zu of %llu runs diverged from the "
                     "goldens — the simulation depends on same-tick "
                     "ordering or channel depth\n",
                     bad.size(),
                     static_cast<unsigned long long>(runs));
        return 1;
    }
    std::printf("detshake: %llu runs, all byte-identical to the "
                "goldens\n",
                static_cast<unsigned long long>(runs));
    return 0;
}
