#include "ownership.hh"

#include "logging.hh"

namespace astriflash::sim {

namespace {
// Construction-time attach point; SweepRunner builds one System per
// worker thread, so thread-local scoping keeps auditors disjoint
// (same sanctioned pattern as CausalityAuditor's attach scope).
thread_local OwnershipAuditor *g_current = nullptr;

// Domain the thread is currently executing events for. Published by
// ParallelEngine::runGroupRound via ExecScope; kNoDomain outside event
// execution (construction, tests driving queues directly).
thread_local DomainId g_execDomain = kNoDomain;
} // namespace

DomainId
OwnershipRegistry::addDomain(std::string name, const void *queue_key)
{
    for (std::size_t i = 0; i < domains.size(); ++i) {
        if (domains[i].key == queue_key)
            return static_cast<DomainId>(i);
    }
    domains.push_back(Domain{std::move(name), queue_key});
    return static_cast<DomainId>(domains.size() - 1);
}

DomainId
OwnershipRegistry::domainOf(const void *queue_key) const
{
    for (std::size_t i = 0; i < domains.size(); ++i) {
        if (domains[i].key == queue_key)
            return static_cast<DomainId>(i);
    }
    return kNoDomain;
}

const std::string &
OwnershipRegistry::domainName(DomainId d) const
{
    ASTRI_ASSERT_MSG(d < domains.size(),
                     "domain id %u out of range", d);
    return domains[d].name;
}

void
OwnershipRegistry::declareComponent(std::string component,
                                    DomainId owner)
{
    comps.push_back(Component{std::move(component), owner});
}

void
OwnershipRegistry::declareChannel(std::string channel,
                                  DomainId producer, DomainId consumer)
{
    chans.push_back(Channel{std::move(channel), producer, consumer});
}

OwnershipAuditor *
OwnershipAuditor::current()
{
    return g_current;
}

OwnershipAuditor::Scope::Scope(OwnershipAuditor &a) : prev(g_current)
{
    g_current = &a;
}

OwnershipAuditor::Scope::~Scope()
{
    g_current = prev;
}

DomainId
OwnershipAuditor::currentDomain()
{
    return g_execDomain;
}

OwnershipAuditor::ExecScope::ExecScope(DomainId d) : prev(g_execDomain)
{
    g_execDomain = d;
}

OwnershipAuditor::ExecScope::~ExecScope()
{
    g_execDomain = prev;
}

void
OwnershipAuditor::callbackViolation(const char *component,
                                    DomainId owner, DomainId cur,
                                    Ticks now)
{
    const std::string owner_name = owner < reg.domainCount()
                                       ? reg.domainName(owner)
                                       : "?";
    const std::string cur_name =
        cur < reg.domainCount() ? reg.domainName(cur) : "?";
    std::string detail = detail::format(
        "callback ran in domain %s but the component is owned by %s",
        cur_name.c_str(), owner_name.c_str());
    if (failFast) {
        ASTRI_PANIC("ownership violation on %s at tick %llu: %s",
                    component, static_cast<unsigned long long>(now),
                    detail.c_str());
    }
    std::lock_guard<std::mutex> lk(vioMu);
    out.push_back(Violation{component, std::move(detail), now});
}

void
OwnershipAuditor::checkInvariants(InvariantChecker &chk) const
{
    std::lock_guard<std::mutex> lk(vioMu);
    for (const Violation &v : out) {
        chk.fail(__FILE__, __LINE__,
                 detail::format("%s at tick %llu: %s",
                                v.component.c_str(),
                                static_cast<unsigned long long>(v.tick),
                                v.detail.c_str()));
    }
}

} // namespace astriflash::sim
