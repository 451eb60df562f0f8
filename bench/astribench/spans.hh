/**
 * @file
 * In-memory span recorder for the traced astribench run.
 *
 * Spans are timed from the benchmark side of each call into the
 * simulator (System::System, System::run, Workload::nextJob through the
 * job-source hook, StatRegistry::dumpJson), kept in memory while the
 * program runs, and written once at the end as Chrome trace-event JSON
 * that Perfetto and chrome://tracing load.
 */

// aflint-allow-file(AF001): spans measure host wall-clock time by
// design; no simulated behavior depends on it.

#ifndef ASTRIBENCH_SPANS_HH
#define ASTRIBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace astribench {

class SpanRecorder
{
  public:
    using Clock = std::chrono::steady_clock;

    /** Span id 0 means "no parent". */
    using SpanId = std::uint32_t;

    struct Span {
        const char *name;
        SpanId parent;
        Clock::time_point start;
        Clock::time_point end;
        /** Job spans: (core, per-core job id); 0/0 otherwise. */
        std::uint32_t core;
        std::uint64_t job;
    };

    explicit SpanRecorder(std::size_t expected_spans);

    /** Start a span now, so children can name it as their parent. */
    SpanId open(const char *name, SpanId parent = 0);

    /** End span @p id now. */
    void close(SpanId id);

    /** Record a finished span; thread-safe. @return its id. */
    SpanId add(const char *name, SpanId parent, Clock::time_point start,
               Clock::time_point end, std::uint32_t core = 0,
               std::uint64_t job = 0);

    /** Durations in ns of every span named @p name. */
    std::vector<double> durationsNs(const char *name) const;

    /** Write Chrome trace-event JSON. @return false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    mutable std::mutex mu;
    std::vector<Span> spans; ///< Guarded by mu; index = id - 1.
};

} // namespace astribench

#endif // ASTRIBENCH_SPANS_HH
