#include "spans.hh"

#include <cstring>
#include <fstream>

#include "sim/json.hh"

namespace astribench {

SpanRecorder::SpanRecorder(std::size_t expected_spans)
{
    spans.reserve(expected_spans);
}

SpanRecorder::SpanId
SpanRecorder::open(const char *name, SpanId parent)
{
    const auto now = Clock::now();
    return add(name, parent, now, now);
}

void
SpanRecorder::close(SpanId id)
{
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mu);
    spans[id - 1].end = now;
}

SpanRecorder::SpanId
SpanRecorder::add(const char *name, SpanId parent, Clock::time_point start,
                  Clock::time_point end, std::uint32_t core,
                  std::uint64_t job)
{
    std::lock_guard<std::mutex> lock(mu);
    spans.push_back(Span{name, parent, start, end, core, job});
    return static_cast<SpanId>(spans.size());
}

std::vector<double>
SpanRecorder::durationsNs(const char *name) const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<double> out;
    for (const Span &s : spans)
        if (std::strcmp(s.name, name) == 0)
            out.push_back(std::chrono::duration<double, std::nano>(
                              s.end - s.start)
                              .count());
    return out;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    std::lock_guard<std::mutex> lock(mu);
    const auto origin = spans.empty() ? Clock::time_point{}
                                      : spans.front().start;
    auto us = [origin](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin)
            .count();
    };
    astriflash::sim::JsonWriter w(out, /*pretty=*/false);
    w.beginObject();
    w.field("displayTimeUnit", "ns");
    w.key("traceEvents");
    w.beginArray();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        w.beginObject();
        w.field("name", s.name);
        w.field("ph", "X");
        w.field("pid", std::uint64_t{1});
        w.field("tid", std::uint64_t{1});
        w.field("ts", us(s.start));
        w.field("dur", us(s.end) - us(s.start));
        w.key("args");
        w.beginObject();
        w.field("id", static_cast<std::uint64_t>(i + 1));
        w.field("parent", static_cast<std::uint64_t>(s.parent));
        if (s.job != 0) {
            w.field("core", static_cast<std::uint64_t>(s.core));
            w.field("job", s.job);
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    out << "\n";
    return static_cast<bool>(out);
}

} // namespace astribench
