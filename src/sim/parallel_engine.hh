/**
 * @file
 * Conservative parallel discrete-event engine (Chandy–Misra style,
 * quantum barriers).
 *
 * A simulation is partitioned into *domains*, each owning one
 * sim::EventQueue. Directed *links* between domains declare the
 * conservative lookahead of the communication path they model — for
 * the AstriFlash system these come straight from the per-channel
 * sim::ChannelContract minLatency manifest (DESIGN.md §14). Between
 * quantum barriers a domain may execute every event up to its
 * *horizon*, min over inbound cross-group links of
 * (source committed clock, channel stamp watermark) + lookahead: no
 * message that could still arrive can be earlier, so conservative
 * execution never violates causality.
 *
 * Domains whose events must interleave in exact order are placed in
 * one *exec group*. A group executes as a unit: one worker thread at a
 * time runs a K-way merge over the member queues in exact global
 * (when, prio, tie, seq) order, with all members sharing one clock and
 * one sequence counter (EventQueueGroup). That makes a group's
 * execution bit-identical to the same events in a single queue, while
 * distinct groups run concurrently on the worker pool.
 *
 * core::System is the engine's one production caller and registers a
 * single domain (DESIGN.md §15): its FC and BC controllers answer each
 * access in one synchronous drain chain over the channels, so there is
 * nothing to partition, and stats are byte-identical at any host-jobs
 * by construction. Multi-domain groups, links and posts are exercised
 * by the engine's own tests.
 *
 * Cross-group communication uses post(): thread-safe mailboxes whose
 * contents are delivered at the next barrier in deterministic
 * (when, prio, source domain, source order) order, so the delivery
 * schedule is independent of worker timing.
 */

#ifndef ASTRIFLASH_SIM_PARALLEL_ENGINE_HH
#define ASTRIFLASH_SIM_PARALLEL_ENGINE_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "event_queue.hh"
#include "ownership.hh"
#include "ticks.hh"

namespace astriflash::sim {

class ParallelEngine
{
  public:
    using DomainId = std::uint32_t;
    using GroupId = std::uint32_t;

    struct Config {
        /** Worker threads; <= 1 executes every round inline. */
        unsigned hostJobs = 1;
        /**
         * Per-group event budget between barriers. hooks.stop is read
         * only at barriers, so the budget decides the executed-event
         * boundary a run ends on; System keeps 20000 because the
         * committed goldens depend on that boundary.
         */
        std::uint64_t roundEvents = 20000;
    };

    /** Per-round hooks, all invoked on the coordinating thread. */
    struct RunHooks {
        /** Checked before every round; true ends the run. */
        std::function<bool()> stop;
        /** After each barrier, with the global committed-clock floor. */
        std::function<void(Ticks)> atBarrier;
        /** Run once in each spawned worker before any event executes
         *  (thread-local setup: tracer redirect and the like). */
        std::function<void()> workerInit;
    };

    struct Stats {
        std::uint64_t rounds = 0;      ///< Group rounds executed.
        std::uint64_t barriers = 0;    ///< Quantum barriers crossed.
        std::uint64_t events = 0;      ///< Events run by the engine.
        std::uint64_t postsDelivered = 0;
        /** Rounds cut short by a horizon (not budget/drain): how often
         *  conservative synchronization actually bit. */
        std::uint64_t horizonStalls = 0;
        /** Exec groups the run partitioned into (System runs one
         *  single-domain group). */
        std::uint32_t groups = 0;
        /** Events executed per exec group, indexed in group-id order —
         *  the partition's load-balance evidence (bench/parallel_bench
         *  publishes it next to the speedup numbers). */
        std::vector<std::uint64_t> groupEvents;
    };

    explicit ParallelEngine(Config cfg);
    ParallelEngine(const ParallelEngine &) = delete;
    ParallelEngine &operator=(const ParallelEngine &) = delete;

    /**
     * Register a domain executing @p queue. Domains with the same
     * @p group id form one exec group and must already share an
     * EventQueueGroup (EventQueue::joinGroup) when the group has more
     * than one member; run() verifies this.
     */
    DomainId addDomain(std::string name, EventQueue &queue,
                       GroupId group);

    /**
     * Declare a communication path @p src -> @p dst with conservative
     * @p lookahead ticks: an event executing in src at tick T only
     * ever causes dst work at >= T + lookahead. Cross-group links
     * need lookahead > 0 (verified at run()); intra-group links are
     * recorded for telemetry but impose no bound — the merged group
     * order is already exact.
     *
     * @p watermark, when provided, returns the earliest stamp sitting
     * undelivered in the modeled channel (kTickNever when idle) — the
     * BoundedChannel stamp watermark — tightening the horizon input
     * from "source clock" to "source clock or oldest in-flight
     * stamp, whichever is earlier".
     */
    void addLink(DomainId src, DomainId dst, Ticks lookahead,
                 std::function<Ticks()> watermark = {});

    /**
     * Schedule @p fn at absolute tick @p when on @p dst's queue from
     * an event executing in @p src. Thread-safe; the event is
     * delivered at the next barrier. @p when must respect every
     * declared src->dst lookahead (the destination queue's
     * monotonicity check catches violations).
     */
    void post(DomainId src, DomainId dst, Ticks when,
              EventQueue::Callback fn,
              EventPriority prio = EventPriority::Default);

    /**
     * Attach the system's ownership auditor (DESIGN.md §16): each
     * engine domain resolves its registry domain id from its queue,
     * and runGroupRound publishes it through
     * OwnershipAuditor::ExecScope while executing that domain's
     * events. Thread-local publication only — never touches stats.
     */
    void setOwnership(OwnershipAuditor *a) { ownershipAuditor = a; }

    /**
     * Run rounds until every queue and mailbox drains or hooks.stop
     * returns true. May be called once per engine instance.
     */
    void run(const RunHooks &hooks = {});

    const Stats &stats() const { return statsData; }

    /** Worker threads the last run() actually spawned. */
    unsigned workersSpawned() const { return spawnedWorkers; }

  private:
    struct Link {
        DomainId src;
        Ticks lookahead;
        std::function<Ticks()> watermark;
        bool crossGroup = false; // resolved in prepare()
    };

    struct Domain {
        std::string name;
        EventQueue *q;
        GroupId group;
        std::vector<Link> inbound;
        Ticks committed = 0; ///< Null-message fixpoint clock.
        Ticks horizon = kTickNever;
        std::uint64_t postSeq = 0; ///< Orders this domain's posts.
        /** Ownership-registry domain id (resolved in prepare()). */
        std::uint32_t ownerTag = kNoDomain;
    };

    struct Group {
        GroupId id;
        std::vector<DomainId> members;
        bool ranThisRound = false;
        /** Lifetime event tally; only the worker holding the group
         *  touches it, and the poolMu handshake publishes it. */
        std::uint64_t events = 0;
    };

    /** A cross-group event parked until the next barrier. */
    struct Post {
        Ticks when;
        std::int32_t prio;
        DomainId src;
        DomainId dst;
        std::uint64_t srcSeq;
        EventQueue::Callback fn;
    };

    void prepare();
    void computeHorizons();
    bool allDrained() const;
    bool groupQueuesEmpty(const Group &g) const;
    std::uint64_t runGroupRound(Group &g);
    void deliverPosts();
    void workerMain(const RunHooks &hooks);

    Config cfg;
    std::vector<Domain> domains;
    std::vector<Group> groups;
    Stats statsData;
    OwnershipAuditor *ownershipAuditor = nullptr;
    bool prepared = false;
    unsigned spawnedWorkers = 0;

    // Per-round state. roundWork is built by the coordinator while
    // workers are parked; workers update the tallies under poolMu.
    std::vector<Group *> roundWork;
    std::uint64_t roundExecuted = 0;
    std::uint64_t roundHorizonStalls = 0;

    // Cross-group mailbox; append under postMu, drained by the
    // coordinator between rounds.
    std::mutex postMu;
    std::vector<Post> mailbox;

    // Worker pool handshake: the coordinator publishes a round under
    // poolMu and bumps the epoch; workers claim groups through
    // nextGroup and report completion through activeWorkers. The
    // mutex chain is also what hands each group's simulator state
    // from round to round with proper happens-before edges.
    std::mutex poolMu;
    std::condition_variable workCv;
    std::condition_variable doneCv;
    std::uint64_t epoch = 0;
    bool quitWorkers = false;
    unsigned activeWorkers = 0;
    std::size_t nextGroup = 0;
    std::vector<std::thread> workers;
};

} // namespace astriflash::sim

#endif // ASTRIFLASH_SIM_PARALLEL_ENGINE_HH
