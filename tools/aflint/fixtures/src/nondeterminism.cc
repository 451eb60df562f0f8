/**
 * @file
 * Deliberately nondeterministic source for the aflint v3 negative
 * tests: each construct below violates one of the determinism rules
 * AF015-AF018, so the per-rule fixture tests must report them. Never
 * compiled.
 */

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>

namespace fixture {

struct Job {
    std::uint64_t id;
    int priority;
};

// AF017: mutable namespace-scope state without a storage keyword.
int g_jobsRetired = 0;

// AF017: static-storage mutable state.
static std::uint64_t s_lastTick = 0;

// AF016: ordering over raw addresses varies with the allocator.
std::set<Job *> byAddress;

struct Tracker {
    std::unordered_map<std::uint64_t, Job> pendingJobs;

    std::uint64_t
    drainInOrder()
    {
        std::uint64_t retired = 0;
        // AF015: hash iteration order decides retire order.
        for (const auto &[id, job] : pendingJobs) {
            retired += id + static_cast<std::uint64_t>(job.priority);
            ++g_jobsRetired;
        }
        s_lastTick = retired;
        return retired;
    }
};

template <typename T> struct BoundedChannel {
    BoundedChannel(std::string name, std::uint32_t capacity);
};

std::unique_ptr<BoundedChannel<Job>>
makeUncertifiedChannel()
{
    // AF018: no ChannelContract — the channel declares no lookahead.
    return std::make_unique<BoundedChannel<Job>>("fixture.chan", 64u);
}

} // namespace fixture
