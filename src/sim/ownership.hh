/**
 * @file
 * Domain-ownership model: makes "which domain owns which state" a
 * declared, runtime-checked property (DESIGN.md §16).
 *
 * The conservative parallel engine (DESIGN.md §15) partitions the
 * System into domains (FC+cores, one per BC shard), but today all of
 * them are fused into a single exec group because the DramCache facade
 * still pumps synchronous state across the FC↔BC boundary. This layer
 * names the ownership structure so that coupling becomes visible and
 * enforceable:
 *
 *  - OwnershipRegistry: the vocabulary. Domains are registered by
 *    (name, EventQueue*) — the queue pointer is the domain key, since
 *    every component schedules on exactly one queue. Components and
 *    channel endpoints declare their owners against it.
 *
 *  - OwnershipAuditor: the runtime teeth. ParallelEngine (and the
 *    legacy single-queue loop) publish a thread-local current-domain
 *    id while executing events; instrumented SimObject callbacks
 *    verify they run only in their owning domain. Cross-domain
 *    touches are permitted only at quantum barriers and through
 *    channels; the facade's deliberate synchronous crossings are
 *    pre-registered and counted (never violations) so the measured
 *    coupling graph (`aflint --ownership-report`, DESIGN.md §16) can
 *    be certified against what actually runs.
 *
 * Arming follows SIM_CHECK: hooks early-return unless checksEnabled().
 * Counters are deliberately NOT part of the stats tree: arming checks
 * must never change the golden stats JSON.
 */

#ifndef ASTRIFLASH_SIM_OWNERSHIP_HH
#define ASTRIFLASH_SIM_OWNERSHIP_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "invariant.hh"
#include "ticks.hh"

namespace astriflash::sim {

/** Dense id of an execution domain (an EventQueue's partition). */
using DomainId = std::uint32_t;

/** "No domain": unresolved owner, or execution outside any domain. */
inline constexpr DomainId kNoDomain = static_cast<DomainId>(-1);

/**
 * The ownership vocabulary of one simulated system: its domains
 * (keyed by event-queue identity), the components each domain owns,
 * and the declared producer/consumer endpoints of every channel.
 */
class OwnershipRegistry
{
  public:
    struct Component {
        std::string name;
        DomainId owner = kNoDomain;
    };

    struct Channel {
        std::string name;
        DomainId producer = kNoDomain;
        DomainId consumer = kNoDomain;
    };

    OwnershipRegistry() = default;
    OwnershipRegistry(const OwnershipRegistry &) = delete;
    OwnershipRegistry &operator=(const OwnershipRegistry &) = delete;

    /**
     * Register a domain keyed by its event queue's identity.
     * Re-registering the same key returns the existing id.
     */
    DomainId addDomain(std::string name, const void *queue_key);

    /** Domain owning @p queue_key, or kNoDomain if unregistered. */
    DomainId domainOf(const void *queue_key) const;

    const std::string &domainName(DomainId d) const;
    std::size_t domainCount() const { return domains.size(); }

    /** A component declared itself owned by @p owner. */
    void declareComponent(std::string component, DomainId owner);
    const std::vector<Component> &components() const { return comps; }

    /** A channel declared its endpoint domains. */
    void declareChannel(std::string channel, DomainId producer,
                        DomainId consumer);
    const std::vector<Channel> &channels() const { return chans; }

  private:
    struct Domain {
        std::string name;
        const void *key = nullptr;
    };

    std::vector<Domain> domains;
    std::vector<Component> comps;
    std::vector<Channel> chans;
};

/**
 * Runtime enforcement of the ownership declarations. One auditor per
 * System; components find it via the thread-local attach scope during
 * construction (mirroring CausalityAuditor), and the engines publish
 * the executing domain through ExecScope while running events.
 */
class OwnershipAuditor
{
  public:
    /** One ownership violation, with enough context to debug it. */
    struct Violation {
        std::string component;
        std::string detail;
        Ticks tick = 0;
    };

    /**
     * One pre-registered, deliberately-synchronous cross-domain edge
     * (the facade allowlist). Observed counts feed certification of
     * the static coupling report; they are never violations.
     */
    struct CrossingState {
        std::string name;
        DomainId from = kNoDomain;
        DomainId to = kNoDomain;
        std::uint64_t count = 0;
        Ticks lastTick = 0;
    };

    explicit OwnershipAuditor(OwnershipRegistry &r) : reg(r) {}
    OwnershipAuditor(const OwnershipAuditor &) = delete;
    OwnershipAuditor &operator=(const OwnershipAuditor &) = delete;

    OwnershipRegistry &registry() { return reg; }
    const OwnershipRegistry &registry() const { return reg; }

    /**
     * Panic on the first violation (default, mirrors
     * CausalityAuditor); tests disable this to collect a report.
     */
    void setFailFast(bool on) { failFast = on; }

    /** Declare an allowlisted crossing. @return its handle. */
    std::uint32_t registerCrossing(std::string name, DomainId from,
                                   DomainId to);

    /** The crossing @p id was exercised at @p now. */
    void
    onCrossing(std::uint32_t id, Ticks now)
    {
        if (!checksEnabled())
            return;
        CrossingState &st = crossings[id];
        ++st.count;
        ++crossingsObservedCount;
        st.lastTick = now;
    }

    /**
     * An instrumented component callback is executing. Verifies the
     * thread's current domain matches @p owner; execution outside any
     * domain (tests driving queues directly) and unresolved owners
     * are exempt.
     */
    void
    onCallback(const char *component, DomainId owner, Ticks now)
    {
        if (!checksEnabled())
            return;
        // Armed multi-group engine runs audit callbacks from every
        // worker; crossings, by contrast, exist only inside one merged
        // exec group (one worker at a time), so onCrossing stays
        // unsynchronized.
        callbacksAuditedCount.fetch_add(1, std::memory_order_relaxed);
        const DomainId cur = currentDomain();
        if (cur == kNoDomain || owner == kNoDomain || cur == owner)
            return;
        callbackViolation(component, owner, cur, now);
    }

    std::size_t crossingCount() const { return crossings.size(); }
    const CrossingState &crossing(std::uint32_t id) const;

    std::uint64_t callbacksAudited() const
    {
        return callbacksAuditedCount.load(std::memory_order_relaxed);
    }
    std::uint64_t crossingsObserved() const
    {
        return crossingsObservedCount;
    }

    std::uint64_t violationCount() const
    {
        return static_cast<std::uint64_t>(out.size());
    }
    const std::vector<Violation> &violations() const { return out; }

    /**
     * Invariant-sweep hook: re-reports every stored violation into
     * @p chk and cross-checks the crossing accounting.
     */
    void checkInvariants(InvariantChecker &chk) const;

    /** Auditor components attach to during construction (or null). */
    static OwnershipAuditor *current();

    /**
     * Installs @p a as the construction-time attach point for the
     * current thread; restores the previous one on destruction.
     */
    class Scope
    {
      public:
        explicit Scope(OwnershipAuditor &a);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        OwnershipAuditor *prev;
    };

    /** Domain the current thread is executing events for. */
    static DomainId currentDomain();

    /**
     * Publishes @p d as the current thread's executing domain for the
     * enclosed event execution; restores the previous domain on
     * destruction. ParallelEngine wraps each runSteps(1) of a group
     * member in one; System's legacy loop wraps the whole run.
     */
    class ExecScope
    {
      public:
        explicit ExecScope(DomainId d);
        ~ExecScope();
        ExecScope(const ExecScope &) = delete;
        ExecScope &operator=(const ExecScope &) = delete;

      private:
        DomainId prev;
    };

  private:
    void callbackViolation(const char *component, DomainId owner,
                           DomainId cur, Ticks now);

    OwnershipRegistry &reg;
    std::vector<CrossingState> crossings;
    /** Guards the violation log; onCallback's counter is atomic so
     *  the clean path stays lock-free across engine workers. */
    mutable std::mutex vioMu;
    std::vector<Violation> out;
    std::atomic<std::uint64_t> callbacksAuditedCount{0};
    std::uint64_t crossingsObservedCount = 0;
    bool failFast = true;
};

} // namespace astriflash::sim

#endif // ASTRIFLASH_SIM_OWNERSHIP_HH
