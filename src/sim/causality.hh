/**
 * @file
 * Causality auditor: makes the determinism contract a checked
 * property (DESIGN.md §14).
 *
 * Every sim::BoundedChannel declares a ChannelContract — its
 * conservative lookahead (`minLatency`: no message may be consumed
 * sooner than its push tick plus the declared latency) and whether
 * its producers push with monotone timestamps. The auditor hooks the
 * channels and the event queue and certifies, on every message:
 *
 *  - FIFO delivery: messages are consumed in push order.
 *  - Stamp sanity: accept >= push, consume >= accept.
 *  - Lookahead: consume >= push + minLatency, the declared minimum
 *    latency of the modeled hardware queue.
 *  - Declared monotonicity: a channel whose producers are event
 *    handlers (never skewed core-local clocks) must see non-
 *    decreasing push ticks.
 *
 * Arming follows SIM_CHECK: the hooks early-return unless
 * checksEnabled() (Debug default, -DASTRIFLASH_CHECKS=ON Release
 * opt-in, runtime-armable). Violations name the channel and the
 * ticks involved; with fail-fast set (the default) the first one
 * panics, otherwise they are recorded for the invariant sweep.
 *
 * The auditor's counters are deliberately NOT part of the stats
 * tree: arming checks must never change the golden stats JSON.
 */

#ifndef ASTRIFLASH_SIM_CAUSALITY_HH
#define ASTRIFLASH_SIM_CAUSALITY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "invariant.hh"
#include "ticks.hh"

namespace astriflash::sim {

/**
 * Per-channel determinism contract, declared at construction (the
 * lookahead manifest lives in core::ChannelConfig and is converted
 * to ticks by whoever builds the channels).
 */
struct ChannelContract {
    /** Conservative lookahead: consume tick >= push tick + this. */
    Ticks minLatency = 0;
    /** Producers push with non-decreasing ticks (event-driven side). */
    bool monotonePush = false;
};

/**
 * Records and enforces the causality contract across all channels of
 * one simulated system. One auditor per System; channels find it via
 * the thread-local attach scope during construction, so SweepRunner's
 * per-thread Systems never share one.
 */
class CausalityAuditor
{
  public:
    /** One contract violation, with enough context to debug it. */
    struct Violation {
        std::string channel;
        std::string detail;
        Ticks tick = 0;
    };

    /** Audit state for one registered channel. */
    struct ChannelState {
        std::string name;
        ChannelContract contract;
        std::uint64_t sends = 0;
        std::uint64_t deliveries = 0;
        std::uint64_t nextDeliverSeq = 1;
        Ticks lastPushTick = 0;
        /** Largest backwards push-tick jump seen (skew telemetry on
         *  channels that do not declare monotonePush). */
        Ticks maxObservedSkew = 0;
        /** Tightest push-to-consume latency actually observed. */
        Ticks minObservedLatency = kTickNever;
    };

    CausalityAuditor() = default;
    CausalityAuditor(const CausalityAuditor &) = delete;
    CausalityAuditor &operator=(const CausalityAuditor &) = delete;

    /**
     * Panic on the first violation (default, mirrors
     * InvariantRegistry); torture harnesses disable this to collect
     * a full report.
     */
    void setFailFast(bool on) { failFast = on; }

    /** Declare a channel. @return its audit handle. */
    std::uint32_t registerChannel(std::string name,
                                  ChannelContract contract);

    /** A message entered channel @p ch (gated on checksEnabled()). */
    void onPush(std::uint32_t ch, std::uint64_t seq, Ticks pushed_at,
                Ticks accepted_at);

    /** The front message of @p ch was consumed. */
    void onDeliver(std::uint32_t ch, std::uint64_t seq,
                   Ticks pushed_at, Ticks accepted_at,
                   Ticks consumed_at);

    /** The event queue fired an event at @p when (queue was at now). */
    void
    onEventFired(Ticks now, Ticks when)
    {
        if (!checksEnabled())
            return;
        ++eventsAuditedCount;
        if (when < now) {
            violation("eq",
                      detail::format(
                          "event fired at %llu behind the queue "
                          "clock %llu",
                          static_cast<unsigned long long>(when),
                          static_cast<unsigned long long>(now)),
                      when);
        }
    }

    std::size_t channelCount() const { return channels.size(); }
    const ChannelState &channel(std::uint32_t ch) const;

    std::uint64_t sendsAudited() const { return sendsAuditedCount; }
    std::uint64_t deliveriesAudited() const
    {
        return deliveriesAuditedCount;
    }
    std::uint64_t eventsAudited() const { return eventsAuditedCount; }

    std::uint64_t violationCount() const
    {
        return static_cast<std::uint64_t>(out.size());
    }
    const std::vector<Violation> &violations() const { return out; }

    /**
     * Invariant-sweep hook: re-reports every stored violation into
     * @p chk and cross-checks the per-channel audit accounting.
     */
    void checkInvariants(InvariantChecker &chk) const;

    /** Auditor channels attach to during construction (or null). */
    static CausalityAuditor *current();

    /**
     * Installs @p a as the construction-time attach point for the
     * current thread; restores the previous one on destruction.
     */
    class Scope
    {
      public:
        explicit Scope(CausalityAuditor &a);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        CausalityAuditor *prev;
    };

  private:
    void violation(const std::string &channel, std::string detail,
                   Ticks tick);

    std::vector<ChannelState> channels;
    std::vector<Violation> out;
    std::uint64_t sendsAuditedCount = 0;
    std::uint64_t deliveriesAuditedCount = 0;
    std::uint64_t eventsAuditedCount = 0;
    bool failFast = true;
};

} // namespace astriflash::sim

#endif // ASTRIFLASH_SIM_CAUSALITY_HH
