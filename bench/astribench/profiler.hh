/**
 * @file
 * Statistical host profiler for the traced astribench run.
 *
 * A SIGPROF handler driven by ITIMER_PROF (process CPU time, so every
 * thread of the parallel engine is sampled) stores raw call stacks into
 * a preallocated ring; nothing is allocated or symbolised while the
 * program runs. After the run each sample is attributed to a layer of
 * the repository: the innermost frame whose demangled, argument-stripped
 * name starts with a prefix from layers.txt decides. Samples with no
 * such frame are "unattributed".
 */

#ifndef ASTRIBENCH_PROFILER_HH
#define ASTRIBENCH_PROFILER_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace astribench {

/** Prefix -> layer table (layers.txt), matched longest-prefix-first. */
class LayerMap
{
  public:
    /** Parse "layer prefix" lines; '#' starts a comment. Returns false
     *  and sets @p error if the file is missing or malformed. */
    bool load(const std::string &path, std::string *error);

    /** Layer names in file order, then "unattributed". */
    const std::vector<std::string> &layers() const { return names; }

    /** Layer index for a demangled symbol name, or -1. */
    int classify(const std::string &demangled) const;

    /** Index of the "unattributed" pseudo-layer. */
    int unattributed() const { return static_cast<int>(names.size()) - 1; }

  private:
    int matchQualified(const std::string &qualified) const;

    std::vector<std::string> names;
    std::vector<std::pair<std::string, int>> prefixes; ///< Longest first.
};

/**
 * Qualified function name of a demangled symbol: the argument list,
 * everything after it, and any leading return type removed.
 * "void a::B<int>::f<x>(a::C) const" -> "a::B<int>::f<x>".
 */
std::string qualifiedName(const std::string &demangled);

/** Program phase a sample was taken in. */
enum class Phase : int { Idle = 0, Setup = 1, Run = 2 };

class Profiler
{
  public:
    /** Samples per phase and layer, plus bookkeeping. */
    struct Profile {
        std::vector<std::string> layers;
        std::vector<std::uint64_t> setupSamples; ///< Per layer.
        std::vector<std::uint64_t> runSamples;   ///< Per layer.
        std::uint64_t dropped = 0;   ///< Ring overflow.
        double intervalS = 0;        ///< Sampling period.
        /** Top symbols (qualified name -> run-phase samples) of the
         *  unattributed and heaviest layers, for the profile file. */
        std::map<std::string, std::uint64_t> topSymbols;
    };

    /** Preallocate the ring and install the handler; @p interval_us
     *  is the ITIMER_PROF period. Only one Profiler may be live. */
    explicit Profiler(unsigned interval_us);
    ~Profiler();
    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;

    /** Tag subsequent samples with @p phase (Idle drops them). */
    void setPhase(Phase phase);

    /** Disarm the timer and attribute every stored sample. */
    Profile finish(const LayerMap &map);

  private:
    unsigned intervalUs;
    bool armed = false;
};

} // namespace astribench

#endif // ASTRIBENCH_PROFILER_HH
