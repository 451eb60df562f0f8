#include "profiler.hh"

#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <unordered_map>

namespace astribench {

namespace {

constexpr int kMaxDepth = 32;
/** About a minute of CPU at the 1 ms period; overflow is counted. */
constexpr std::size_t kRingSlots = 1 << 16;

struct Sample {
    void *pcs[kMaxDepth];
    int depth;
    /** Written last with release order: nonzero marks a complete
     *  slot, so finish() never reads a half-written stack. */
    std::atomic<int> phase;
};

// Signal-handler state, allocated by the first Profiler and kept for
// the life of the process: a handler already running on another thread
// when the timer is disarmed may still be writing its slot.
std::unique_ptr<Sample[]> ring;
std::atomic<std::size_t> nextSlot{0};
std::atomic<int> curPhase{0};
std::atomic<std::uint64_t> droppedSamples{0};

void
onSigprof(int)
{
    const int saved_errno = errno;
    const int phase = curPhase.load(std::memory_order_relaxed);
    if (phase != 0) {
        const std::size_t i =
            nextSlot.fetch_add(1, std::memory_order_relaxed);
        if (i < kRingSlots) {
            ring[i].depth = backtrace(ring[i].pcs, kMaxDepth);
            ring[i].phase.store(phase, std::memory_order_release);
        } else {
            droppedSamples.fetch_add(1, std::memory_order_relaxed);
        }
    }
    errno = saved_errno;
}

void
setTimer(unsigned interval_us)
{
    itimerval tv{};
    tv.it_interval.tv_sec = interval_us / 1000000;
    tv.it_interval.tv_usec = interval_us % 1000000;
    tv.it_value = tv.it_interval;
    setitimer(ITIMER_PROF, &tv, nullptr);
}

std::string
demangle(const char *sym)
{
    int status = 0;
    std::unique_ptr<char, decltype(&std::free)> out(
        abi::__cxa_demangle(sym, nullptr, nullptr, &status), &std::free);
    return status == 0 && out ? std::string(out.get()) : std::string(sym);
}

bool
startsWith(const std::string &s, std::size_t at, const char *lit)
{
    return s.compare(at, std::char_traits<char>::length(lit), lit) == 0;
}

} // namespace

std::string
qualifiedName(const std::string &s)
{
    // Cut at the argument list: the first '(' outside template
    // brackets. Arguments must not take part in matching, or a
    // signature that mentions sim::StrongId would file a mem function
    // under sim.
    int angle = 0;
    std::size_t cut = s.size();
    std::size_t name_start = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (startsWith(s, i, "(anonymous namespace)")) {
            i += 20;
            continue;
        }
        if (startsWith(s, i, "operator")) {
            // Operator names contain brackets that do not nest.
            std::size_t j = i + 8;
            if (startsWith(s, j, "()"))
                j += 2;
            else
                while (j < s.size() &&
                       std::strchr("<>=!+-*/%&|^~[],", s[j]) != nullptr)
                    ++j;
            i = j - 1;
            continue;
        }
        const char c = s[i];
        if (c == '<') {
            ++angle;
        } else if (c == '>') {
            --angle;
        } else if (c == ' ' && angle == 0) {
            name_start = i + 1; // drop a leading return type
        } else if (c == '(' && angle == 0) {
            cut = i;
            break;
        }
    }
    return s.substr(name_start, cut - name_start);
}

bool
LayerMap::load(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot open " + path;
        return false;
    }
    names.clear();
    prefixes.clear();
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        line = line.substr(0, line.find('#'));
        std::istringstream fields(line);
        std::string layer, prefix, extra;
        if (!(fields >> layer))
            continue;
        if (!(fields >> prefix) || (fields >> extra)) {
            *error = path + ":" + std::to_string(lineno) +
                     ": expected 'layer prefix'";
            return false;
        }
        auto it = std::find(names.begin(), names.end(), layer);
        if (it == names.end())
            it = names.insert(names.end(), layer);
        prefixes.emplace_back(prefix,
                              static_cast<int>(it - names.begin()));
    }
    if (prefixes.empty()) {
        *error = path + ": no layers";
        return false;
    }
    names.push_back("unattributed");
    std::stable_sort(prefixes.begin(), prefixes.end(),
                     [](const auto &a, const auto &b) {
                         return a.first.size() > b.first.size();
                     });
    return true;
}

int
LayerMap::matchQualified(const std::string &qualified) const
{
    for (const auto &[prefix, layer] : prefixes)
        if (qualified.compare(0, prefix.size(), prefix) == 0)
            return layer;
    return -1;
}

int
LayerMap::classify(const std::string &demangled) const
{
    const int direct = matchQualified(qualifiedName(demangled));
    if (direct >= 0)
        return direct;
    // Type-erased callback thunks (sim::InlineFunction, std::function)
    // carry the callback's lambda type in their template arguments.
    // The lambda body is usually inlined into the thunk, so the thunk
    // frame is the callback's own code: attribute it to the function
    // that defined the lambda.
    const std::size_t lambda = demangled.find("::{lambda(");
    if (lambda == std::string::npos)
        return -1;
    std::size_t start = lambda;
    int paren = 0, angle = 0;
    while (start > 0) {
        const char c = demangled[start - 1];
        if (c == ')') {
            ++paren;
        } else if (c == '(') {
            if (paren == 0)
                break;
            --paren;
        } else if (c == '>') {
            ++angle;
        } else if (c == '<') {
            if (angle == 0)
                break;
            --angle;
        } else if ((c == ',' || c == ' ') && paren == 0 && angle == 0) {
            break;
        }
        --start;
    }
    return matchQualified(
        qualifiedName(demangled.substr(start, lambda - start)));
}

Profiler::Profiler(unsigned interval_us) : intervalUs(interval_us)
{
    if (!ring)
        ring = std::make_unique<Sample[]>(kRingSlots);
    // backtrace() loads its unwinder on first use, which allocates;
    // do that here rather than inside the first signal.
    void *warm[4];
    backtrace(warm, 4);

    struct sigaction sa{};
    sa.sa_handler = onSigprof;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, nullptr);
    setTimer(intervalUs);
    armed = true;
}

Profiler::~Profiler()
{
    if (armed)
        setTimer(0);
    curPhase.store(0);
}

void
Profiler::setPhase(Phase phase)
{
    curPhase.store(static_cast<int>(phase), std::memory_order_relaxed);
}

Profiler::Profile
Profiler::finish(const LayerMap &map)
{
    setTimer(0);
    armed = false;
    curPhase.store(0);

    Profile prof;
    prof.layers = map.layers();
    prof.setupSamples.assign(prof.layers.size(), 0);
    prof.runSamples.assign(prof.layers.size(), 0);
    prof.dropped = droppedSamples.load();
    prof.intervalS = intervalUs * 1e-6;

    struct Frame {
        int layer;
        std::string name;
    };
    std::unordered_map<void *, Frame> frames;
    auto resolve = [&](void *pc) -> const Frame & {
        auto it = frames.find(pc);
        if (it != frames.end())
            return it->second;
        Frame f{-1, "?"};
        Dl_info info{};
        // Return addresses point past the call; look up the call.
        if (dladdr(static_cast<char *>(pc) - 1, &info) != 0 &&
            info.dli_sname != nullptr) {
            const std::string name = demangle(info.dli_sname);
            f.layer = map.classify(name);
            f.name = qualifiedName(name);
        }
        return frames.emplace(pc, std::move(f)).first->second;
    };

    const std::size_t used = std::min(nextSlot.load(), kRingSlots);
    for (std::size_t i = 0; i < used; ++i) {
        const int phase = ring[i].phase.load(std::memory_order_acquire);
        if (phase == 0)
            continue;
        int layer = map.unattributed();
        std::string symbol = "?";
        // Frames 0 and 1 are this handler and the signal trampoline.
        for (int d = 2; d < ring[i].depth; ++d) {
            const Frame &f = resolve(ring[i].pcs[d]);
            if (symbol == "?")
                symbol = f.name; // innermost named frame, for the report
            if (f.layer >= 0) {
                layer = f.layer;
                symbol = f.name;
                break;
            }
        }
        if (phase == static_cast<int>(Phase::Setup)) {
            ++prof.setupSamples[layer];
        } else {
            ++prof.runSamples[layer];
            ++prof.topSymbols[prof.layers[layer] + " " + symbol];
        }
    }
    return prof;
}

} // namespace astribench
