#include "causality.hh"

#include "logging.hh"

namespace astriflash::sim {

std::uint32_t
CausalityAuditor::registerChannel(std::string name,
                                  ChannelContract contract)
{
    ChannelState st;
    st.name = std::move(name);
    st.contract = contract;
    channels.push_back(std::move(st));
    return static_cast<std::uint32_t>(channels.size() - 1);
}

const CausalityAuditor::ChannelState &
CausalityAuditor::channel(std::uint32_t ch) const
{
    ASTRI_ASSERT_MSG(ch < channels.size(),
                     "auditor channel handle %u out of range", ch);
    return channels[ch];
}

void
CausalityAuditor::violation(const std::string &channel,
                            std::string detail, Ticks tick)
{
    if (failFast) {
        ASTRI_PANIC("causality violation on %s at tick %llu: %s",
                    channel.c_str(),
                    static_cast<unsigned long long>(tick),
                    detail.c_str());
    }
    out.push_back(Violation{channel, std::move(detail), tick});
}

void
CausalityAuditor::onPush(std::uint32_t ch, Ticks pushed_at,
                         Ticks accepted_at)
{
    if (!checksEnabled())
        return;
    ChannelState &st = channels[ch];
    ++st.sends;
    ++sendsAuditedCount;
    if (accepted_at < pushed_at) {
        violation(st.name,
                  detail::format("push %llu accepted at %llu "
                                 "before its push tick %llu",
                                 static_cast<unsigned long long>(
                                     st.sends),
                                 static_cast<unsigned long long>(
                                     accepted_at),
                                 static_cast<unsigned long long>(
                                     pushed_at)),
                  pushed_at);
    }
    if (st.sends > 1) {
        if (pushed_at < st.lastPushTick) {
            const Ticks skew = st.lastPushTick - pushed_at;
            if (st.contract.monotonePush) {
                violation(
                    st.name,
                    detail::format(
                        "declared-monotone channel pushed at %llu "
                        "after a push at %llu",
                        static_cast<unsigned long long>(pushed_at),
                        static_cast<unsigned long long>(
                            st.lastPushTick)),
                    pushed_at);
            } else if (skew > st.maxObservedSkew) {
                st.maxObservedSkew = skew;
            }
        }
    }
    if (pushed_at > st.lastPushTick)
        st.lastPushTick = pushed_at;
}

void
CausalityAuditor::onDeliver(std::uint32_t ch, Ticks pushed_at,
                            Ticks accepted_at, Ticks consumed_at)
{
    if (!checksEnabled())
        return;
    ChannelState &st = channels[ch];
    ++st.deliveries;
    ++deliveriesAuditedCount;
    // A window holds one open push, so delivery n consumes push n.
    const auto seq = static_cast<unsigned long long>(st.deliveries);
    if (consumed_at < accepted_at) {
        violation(st.name,
                  detail::format("push %llu consumed at %llu "
                                 "before its accept at %llu",
                                 seq,
                                 static_cast<unsigned long long>(
                                     consumed_at),
                                 static_cast<unsigned long long>(
                                     accepted_at)),
                  consumed_at);
    }
    // The lookahead certificate: the consumer never observes a
    // message earlier than its push tick plus the declared channel
    // latency.
    const Ticks horizon = pushed_at + st.contract.minLatency;
    if (consumed_at < horizon) {
        violation(st.name,
                  detail::format(
                      "push %llu consumed at %llu inside the "
                      "declared lookahead (push %llu + minLatency "
                      "%llu = %llu)",
                      seq,
                      static_cast<unsigned long long>(consumed_at),
                      static_cast<unsigned long long>(pushed_at),
                      static_cast<unsigned long long>(
                          st.contract.minLatency),
                      static_cast<unsigned long long>(horizon)),
                  consumed_at);
    }
    const Ticks lat =
        consumed_at >= pushed_at ? consumed_at - pushed_at : 0;
    if (lat < st.minObservedLatency)
        st.minObservedLatency = lat;
}

void
CausalityAuditor::checkInvariants(InvariantChecker &chk) const
{
    for (const Violation &v : out) {
        chk.fail(__FILE__, __LINE__,
                 detail::format("%s at tick %llu: %s",
                                v.channel.c_str(),
                                static_cast<unsigned long long>(v.tick),
                                v.detail.c_str()));
    }
    std::uint64_t sends = 0, deliveries = 0;
    for (const ChannelState &st : channels) {
        sends += st.sends;
        deliveries += st.deliveries;
        SIM_INVARIANT_MSG(chk, st.deliveries <= st.sends,
                          "%s: %llu deliveries outnumber %llu sends",
                          st.name.c_str(),
                          static_cast<unsigned long long>(
                              st.deliveries),
                          static_cast<unsigned long long>(st.sends));
        // The observed latency floor must respect the declared
        // lookahead (violations above would already have recorded
        // any breach; this pins the aggregate view).
        SIM_INVARIANT_MSG(chk,
                          st.minObservedLatency >=
                              st.contract.minLatency,
                          "%s: observed latency floor %llu under the "
                          "declared minLatency %llu",
                          st.name.c_str(),
                          static_cast<unsigned long long>(
                              st.minObservedLatency),
                          static_cast<unsigned long long>(
                              st.contract.minLatency));
    }
    SIM_INVARIANT(chk, sends == sendsAuditedCount);
    SIM_INVARIANT(chk, deliveries == deliveriesAuditedCount);
}

} // namespace astriflash::sim
