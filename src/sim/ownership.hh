/**
 * @file
 * Domain-ownership model: makes "which domain owns which state" a
 * declared, runtime-checked property (DESIGN.md §16).
 *
 * The System registers one domain, "fc", for its one event queue
 * (DESIGN.md §15); the FC and BC controllers exchange state only
 * through channels, and the static coupling report (`aflint
 * --ownership-report`, DESIGN.md §16) finds no synchronous facade
 * call and no cross-domain shared state. This layer keeps the
 * ownership structure declared and checked, so a future partition
 * starts from an audited vocabulary:
 *
 *  - OwnershipRegistry: the vocabulary. Domains are registered by
 *    (name, EventQueue*) — the queue pointer is the domain key, since
 *    every component schedules on exactly one queue. Components and
 *    channel endpoints declare their owners against it.
 *
 *  - OwnershipAuditor: the runtime teeth. ParallelEngine publishes a
 *    thread-local current-domain id while executing events;
 *    instrumented SimObject callbacks verify they run only in their
 *    owning domain.
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
        // worker, so the counter is atomic.
        callbacksAuditedCount.fetch_add(1, std::memory_order_relaxed);
        const DomainId cur = currentDomain();
        if (cur == kNoDomain || owner == kNoDomain || cur == owner)
            return;
        callbackViolation(component, owner, cur, now);
    }

    std::uint64_t callbacksAudited() const
    {
        return callbacksAuditedCount.load(std::memory_order_relaxed);
    }

    std::uint64_t violationCount() const
    {
        return static_cast<std::uint64_t>(out.size());
    }
    const std::vector<Violation> &violations() const { return out; }

    /** Invariant-sweep hook: re-reports every stored violation
     *  into @p chk. */
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
     * member in one while the checks gate is armed.
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
    /** Guards the violation log; onCallback's counter is atomic so
     *  the clean path stays lock-free across engine workers. */
    mutable std::mutex vioMu;
    std::vector<Violation> out;
    std::atomic<std::uint64_t> callbacksAuditedCount{0};
    bool failFast = true;
};

} // namespace astriflash::sim

#endif // ASTRIFLASH_SIM_OWNERSHIP_HH
