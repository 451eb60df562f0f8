#include "event_queue.hh"

#include <algorithm>

#include "logging.hh"

namespace astriflash::sim {

#if ASTRIFLASH_CHECKS_ENABLED
namespace {
/** splitmix64: uniform, invertible 64-bit mix for the tie keys. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}
} // namespace
#endif

void
EventQueue::setTiePerturbation(std::uint64_t seed)
{
    if (seed != 0 && !tiePerturbationCompiledIn()) {
        ASTRI_FATAL("tie-break perturbation requested (seed %llu) but "
                    "the hook is compiled out; rebuild with "
                    "-DASTRIFLASH_CHECKS=ON",
                    static_cast<unsigned long long>(seed));
    }
    tieSeed = seed;
}

void
EventQueue::schedule(Ticks when, Callback fn, EventPriority prio,
                     Warm warm)
{
    ASTRI_ASSERT_MSG(when >= now,
                     "scheduling into the past: when=%llu now=%llu",
                     static_cast<unsigned long long>(when),
                     static_cast<unsigned long long>(now));
    std::uint32_t slot;
    if (!freeSlots.empty()) {
        slot = freeSlots.back();
        freeSlots.pop_back();
    } else {
        ASTRI_ASSERT_MSG(slots.size() < (1ull << 32),
                         "event slot table overflow");
        slot = static_cast<std::uint32_t>(slots.size());
        slots.emplace_back();
    }
    Slot &s = slots[slot];
    s.fn = std::move(fn);
    s.warm = warm;
    s.busy = true;
    const std::uint64_t seq = (nextSeq)++;
#if ASTRIFLASH_CHECKS_ENABLED
    // Seed 0 keeps tie == seq, bit-for-bit the unperturbed order.
    const std::uint64_t tie = tieSeed ? mix64(seq ^ tieSeed) : seq;
    heapPush(Node{when, static_cast<std::int32_t>(prio), slot, seq,
                  tie});
#else
    heapPush(Node{when, static_cast<std::int32_t>(prio), slot, seq});
#endif
}

void
EventQueue::reserve(std::size_t expected_events)
{
    heap.reserve(expected_events);
    slots.reserve(expected_events);
    freeSlots.reserve(expected_events);
}

void
EventQueue::heapPush(const Node &n)
{
    heap.push_back(n);
    std::push_heap(heap.begin(), heap.end(), later);
}

EventQueue::Node
EventQueue::heapPop()
{
    std::pop_heap(heap.begin(), heap.end(), later);
    const Node n = heap.back();
    heap.pop_back();
    return n;
}

void
EventQueue::releaseSlot(std::uint32_t slot)
{
    Slot &s = slots[slot];
    s.fn.reset();
    s.warm = {};
    s.busy = false;
    freeSlots.push_back(slot);
}

void
EventQueue::warmNext() const
{
    // The head runs next, unless the event about to run schedules
    // ahead of it.
    if (heap.empty())
        return;
    if (const Warm &w = slots[heap[0].slot].warm; w.fn)
        w.fn(w.arg);
}

std::uint64_t
EventQueue::runSteps(std::uint64_t max_events)
{
    std::uint64_t n = 0;
    while (n < max_events && !heap.empty()) {
        const Node node = heapPop();
        ASTRI_ASSERT(node.when >= now);
        now = node.when;
        // Move the callback out and release the slot *before* running:
        // the callback may schedule (reusing this slot) or grow the
        // slot table, either of which would invalidate an in-place
        // reference.
        Callback fn = std::move(slots[node.slot].fn);
        releaseSlot(node.slot);
        warmNext();
        ++executedCount;
        fn();
        ++n;
    }
    return n;
}

void
EventQueue::checkInvariants(InvariantChecker &chk) const
{
    // Slot-table / heap cross-accounting.
    std::size_t busy = 0;
    for (const Slot &s : slots)
        busy += s.busy;
    SIM_INVARIANT_MSG(chk, busy == heap.size(),
                      "%zu busy slots != %zu heap nodes", busy,
                      heap.size());
    SIM_INVARIANT_MSG(chk, busy + freeSlots.size() == slots.size(),
                      "%zu busy + %zu free != %zu slots", busy,
                      freeSlots.size(), slots.size());

    for (std::size_t i = 0; i < heap.size(); ++i) {
        const Node &n = heap[i];
        SIM_INVARIANT_MSG(chk,
                          n.slot < slots.size() && slots[n.slot].busy,
                          "heap node %zu references dead slot %u", i,
                          n.slot);
        SIM_INVARIANT_MSG(chk, n.seq < nextSeq,
                          "heap node seq %llu outside issued range",
                          static_cast<unsigned long long>(n.seq));
        // Time only advances to the earliest pending node, so nothing
        // in the heap may lie in the past.
        SIM_INVARIANT_MSG(chk, n.when >= now,
                          "heap node at %llu lies before now %llu",
                          static_cast<unsigned long long>(n.when),
                          static_cast<unsigned long long>(now));
        if (i > 0) {
            const Node &parent = heap[(i - 1) / 2];
            SIM_INVARIANT_MSG(chk, !later(parent, n),
                              "heap property violated at node %zu", i);
        }
    }
}

} // namespace astriflash::sim
