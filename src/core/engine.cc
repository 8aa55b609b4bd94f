#include "core/engine.hh"

#include <algorithm>
#include <chrono>
#include <span>

#include <limits>

#include "core/chunk.hh"
#include "core/circulant.hh"
#include "core/extender.hh"
#include "core/horizontal.hh"
#include "core/parallel/cancel.hh"
#include "core/parallel/thread_pool.hh"
#include "core/recovery/recovery.hh"
#include "core/steal/steal.hh"
#include "sim/cost_model.hh"
#include "support/check.hh"

namespace khuzdul
{
namespace core
{

/**
 * The BFS-DFS hybrid traversal (§4.2) of one execution unit: a
 * stack of fixed-budget chunks, DFS across levels, BFS within a
 * chunk.  Edge-list resolution is delegated to the unit's
 * EdgeListProvider, batching/timing to the per-level
 * CirculantScheduler, extension math to the PlanExtender.
 *
 * One explorer is one host-parallel task (§6): it only ever writes
 * its unit's NodeStats slot, its traffic tally and its unit-local
 * trace sink — never shared engine state — so any number of
 * explorers may run concurrently.
 */
class HybridExplorer
{
  public:
    /** Replays of one chunk before declaring the plan unrecoverable
     *  (finite triggers and bounded windows converge far earlier). */
    static constexpr unsigned kMaxChunkReplays = 64;

    /** Embeddings per dynamically-dispatched mini-batch (§6). */
    static constexpr unsigned kMiniBatchSize = 64;

    /** Compute slowdown on multi-socket nodes without NUMA-aware
     *  placement (remote-socket DRAM on ~half the accesses). */
    static constexpr double kNumaComputePenalty = 1.45;

    HybridExplorer(Engine &engine, unsigned unit,
                   const ExtendPlan &plan, MatchVisitor *visitor,
                   sim::NodeStats &stats, sim::TrafficTally &tally,
                   sim::TraceSink &sink,
                   std::vector<ChunkRecord> *steal_ledger,
                   CrashReport *crash_report)
        : engine_(engine), setup_(engine.context_->setup()),
          graph_(*engine.graph_), plan_(plan),
          visitor_(visitor), unit_(unit), stats_(stats),
          tally_(tally), sink_(sink),
          stealLedger_(steal_ledger), crash_(crash_report),
          provider_(*engine.providers_[unit]),
          faults_(engine.faultSessions_.empty()
                      ? nullptr
                      : engine.faultSessions_[unit].get()),
          extender_(*engine.graph_, plan, engine.session_.kernelMode),
          cores_(engine.context_->computeCoresPerUnit()),
          deadlineNs_(engine.session_.deadlineNs),
          deadlineStartNs_(stats.totalNs()),
          cancel_(engine.cancel_)
    {
        const int n = plan.pattern.size();
        chunkedLevels_ = plan.hasIep ? plan.numMaterializedLevels()
                                     : std::max(1, n - 1);
        for (int i = 0; i < chunkedLevels_; ++i) {
            chunks_.emplace_back(engine.session_.chunkBytes);
            tables_.emplace_back();
            scheds_.emplace_back(unit, engine.partition_.numUnits(),
                                 engine.partition_.socketsPerNode());
        }
        if (crash_)
            chunkOpens_.assign(chunkedLevels_, 0);
        if (!setup_.numaAware && setup_.cluster.socketsPerNode >= 2)
            penalty_ = kNumaComputePenalty;
    }

    /** Explore every tree rooted at this unit's owned vertices. */
    std::int64_t
    run()
    {
        const auto &roots = engine_.partition_.ownedVertices(unit_);
        const PlanLevel &root_level = plan_.levels[0];

        if (plan_.pattern.size() == 1) {
            for (const VertexId v : roots)
                if (!root_level.hasLabelFilter
                    || graph_.label(v) == root_level.labelFilter)
                    ++raw_;
            return raw_;
        }

        std::size_t cursor = 0;
        while (cursor < roots.size()) {
            Chunk &chunk0 = chunks_[0];
            while (cursor < roots.size() && !chunk0.full()) {
                const VertexId v = roots[cursor++];
                if (root_level.hasLabelFilter
                    && graph_.label(v) != root_level.labelFilter)
                    continue;
                chunk0.add(v, kNoParent, root_level.fetchEdgeList);
                ++stats_.embeddingsCreated;
            }
            if (!chunk0.empty()) {
                processLevel(0);
                checkpoint();
            }
            chunk0.reset();
            tables_[0].clear();
        }
        if (crash_ && crashed_)
            crash_->lost = std::move(sinceCheckpoint_);
        return raw_;
    }

    /** Host-side candidate-memo tallies of this unit's run. */
    const CandidateMemoCounters &
    memoCounters() const
    {
        return extender_.memoCounters();
    }

  private:
    sim::TraceSink &trace() { return sink_; }

    /** Crash trigger (DESIGN.md §9): the unit dies the instant it
     *  opens its K-th chunk of level L, read purely from its own
     *  chunk ordinals — bit-identical at every thread count.  The
     *  host keeps enumerating (counts stay exact by construction);
     *  everything this ghost run charges past the crash point is
     *  restored away post-merge, and its chunks become the orphans
     *  survivors adopt. */
    void
    maybeCrash(int level)
    {
        if (!crash_ || crashed_)
            return;
        const std::uint64_t ordinal = ++chunkOpens_[level];
        for (const sim::FaultSpec &f : engine_.session_.faults.specs()) {
            if (f.kind != sim::FaultKind::Crash || f.unit != unit_
                || f.level != level || f.chunk != ordinal)
                continue;
            crashed_ = true;
            crash_->unit = unit_;
            crash_->level = level;
            crash_->chunkOrdinal = ordinal;
            crash_->computeNs = stats_.computeNs;
            crash_->commExposedNs = stats_.commExposedNs;
            crash_->commTotalNs = stats_.commTotalNs;
            crash_->schedulerNs = stats_.schedulerNs;
            crash_->cacheNs = stats_.cacheNs;
            trace().emit({sim::PhaseEvent::UnitCrashed, unit_,
                          level, ordinal, 0});
            return;
        }
    }

    /** Level-0 barrier checkpoint (DESIGN.md §9): the DFS stack is
     *  drained here, so the partial count and the closed-chunk
     *  ledger form a consistent cut.  Chunks closed before this cut
     *  are durable and can never be lost to a later crash. */
    void
    checkpoint()
    {
        if (!crash_ || crashed_)
            return;
        const double charge = sim::cost::checkpointNs;
        stats_.schedulerNs += charge;
        stats_.checkpointOverheadNs += charge;
        ++stats_.checkpointsTaken;
        trace().emit({sim::PhaseEvent::Checkpoint, unit_, 0,
                      sinceCheckpoint_.size(), 0});
        sinceCheckpoint_.clear();
    }

    /** Communication phase of one chunk: resolve every embedding's
     *  new edge list through the provider chain; Remote outcomes
     *  join the circulant scheduler's per-owner batches.
     *  @return false when a batch exhausted its retry budget and
     *  the chunk must be replayed (§9). */
    bool
    fetchPhase(int level)
    {
        Chunk &chunk = chunks_[level];
        CirculantScheduler &sched = scheds_[level];
        sched.begin(chunk.size());
        // The active-list column holds exactly the embeddings that
        // fetch, in insertion order — one contiguous run, no
        // per-embedding flag test (same resolution order as the flag
        // scan, so modeled outcomes are unchanged).
        const std::span<const VertexId> verts = chunk.vertexColumn();
        const std::uint64_t hits_before = stats_.staticCacheHits;
        const std::uint64_t misses_before = stats_.staticCacheMisses;
        for (const std::uint32_t idx : chunk.fetchList()) {
            const Resolution r = provider_.resolve(
                unit_, verts[idx], &tables_[level], stats_, faults_);
            if (r.kind == ResolutionKind::Shared) {
                sched.noteShared(idx, r.owner);
            } else if (r.kind == ResolutionKind::Remote) {
                sched.noteRemote(idx, r.owner, r.bytes);
                chunk.addFetchedBytes(r.bytes);
            }
        }
        // One tally per outcome and phase, not one event per probe:
        // the trace stays O(chunks) however many embeddings fetch.
        const std::uint64_t hits = stats_.staticCacheHits - hits_before;
        const std::uint64_t misses =
            stats_.staticCacheMisses - misses_before;
        if (hits != 0)
            trace().emit({sim::PhaseEvent::CacheHit, unit_, level,
                          hits, 0});
        if (misses != 0)
            trace().emit({sim::PhaseEvent::CacheMiss, unit_, level,
                          misses, 0});
        return sched.issue(engine_.fabric_, stats_, tally_, trace(),
                           level, faults_);
    }

    /** Run the communication phase until it succeeds, replaying the
     *  chunk after every retry exhaustion: the wasted attempt time
     *  of a failed phase is folded as pure communication (no work
     *  overlapped it — extension never started), the chunk's
     *  horizontal table is rebuilt, and the phase re-runs from
     *  resolution.  A chunk is never dropped, so counts stay exact
     *  under any fault plan; a defensive replay budget turns a plan
     *  with no recovery path into a FabricFault. */
    void
    fetchWithReplay(int level)
    {
        unsigned replays = 0;
        while (!fetchPhase(level)) {
            const auto wasted =
                scheds_[level].pipeline(cores_, penalty_);
            stats_.commTotalNs += wasted.commNs;
            stats_.commExposedNs += wasted.exposedNs;
            ++stats_.chunksReplayed;
            ++replays;
            trace().emit({sim::PhaseEvent::ChunkReplayed, unit_,
                          level, chunks_[level].size(), replays});
            tables_[level].clear();
            if (replays >= kMaxChunkReplays)
                throw sim::FabricFault(
                    "chunk replay budget exhausted: fault plan "
                    "leaves no recovery path");
        }
    }

    /** Process a filled chunk: fetch, then extend level by level
     *  (descending whenever the child chunk fills, §4.2), and fold
     *  the batch timeline through the circulant pipeline (§4.3). */
    void
    processLevel(int level)
    {
        if (cancel_ && cancel_->cancelled())
            throw sim::QueryCancelled(
                "query cancelled at a chunk boundary");
        maybeCrash(level);
        Chunk &chunk = chunks_[level];
        ++stats_.chunksProcessed;
        stats_.schedulerNs += sim::cost::chunkSetupNs;
        stats_.peakChunkBytes =
            std::max(stats_.peakChunkBytes, chunk.modeledBytes());
        trace().emit({sim::PhaseEvent::ChunkOpen, unit_, level,
                      chunk.size(), chunk.modeledBytes()});

        fetchWithReplay(level);

        stats_.schedulerNs += CirculantScheduler::dispatchOverheadNs(
            chunk.size(), kMiniBatchSize, cores_);

        const bool terminal = level == chunkedLevels_ - 1;
        trace().emit({sim::PhaseEvent::ExtendStart, unit_, level,
                      chunk.size(), 0});
        for (std::uint32_t idx = 0; idx < chunk.size(); ++idx) {
            const double work_before = extender_.exchangeWork(0);
            if (terminal)
                raw_ += extender_.extendTerminal(chunks_, level, idx,
                                                 visitor_, stats_);
            else
                extender_.extendInner(chunks_, chunks_[level + 1],
                                      level, idx, stats_);
            scheds_[level].chargeWork(idx, extender_.workNs());
            extender_.exchangeWork(work_before);

            if (!terminal && chunks_[level + 1].full()) {
                processLevel(level + 1);
                chunks_[level + 1].reset();
                tables_[level + 1].clear();
            }
        }
        if (!terminal && !chunks_[level + 1].empty()) {
            processLevel(level + 1);
            chunks_[level + 1].reset();
            tables_[level + 1].clear();
        }
        trace().emit({sim::PhaseEvent::ExtendEnd, unit_, level,
                      chunk.size(), 0});

        const auto t = scheds_[level].pipeline(cores_, penalty_);
        stats_.computeNs += t.computeNs;
        stats_.commTotalNs += t.commNs;
        stats_.commExposedNs += t.exposedNs;
        if (stealLedger_ || crash_) {
            // Donation/recovery ledgers (DESIGN.md §9, §11):
            // remember what this chunk charged, and the fault-free
            // prices a healthy peer re-running it would pay.
            const ChunkRecord rec = [&] {
                const auto base =
                    scheds_[level].basePipeline(cores_, penalty_);
                return ChunkRecord{
                    unit_, level, chunk.size(),
                    columnWireBytes(chunk.size(), level),
                    t.computeNs, t.commNs, t.exposedNs, base.commNs,
                    base.exposedNs};
            }();
            if (crashed_) {
                // Past the crash point the chunk never ran on this
                // unit: it is an orphan a survivor adopts.
                crash_->orphans.push_back(rec);
            } else {
                if (stealLedger_)
                    stealLedger_->push_back(rec);
                if (crash_)
                    sinceCheckpoint_.push_back(rec);
            }
        }
        flushKernelCounters(level);
        trace().emit({sim::PhaseEvent::ChunkClose, unit_, level,
                      chunk.size(), 0});
        // The deadline is modeled state (the unit's own run-local
        // clock), so whether and where it fires is a pure function
        // of the config — unlike cancellation above, which is a
        // host-side request and makes no determinism claim.
        if (deadlineNs_ > 0
            && stats_.totalNs() - deadlineStartNs_ > deadlineNs_)
            throw sim::DeadlineExceeded(
                "modeled deadline exceeded at a chunk boundary "
                "(--deadline)");
    }

    /** Fold the dispatcher tallies accumulated since the previous
     *  flush into stats, and emit one KernelDispatch trace event
     *  carrying the total set-operation delta of the chunk (not the
     *  per-kind split: which kernel ran is host-dependent once the
     *  SIMD tier exists, but the number of set operations is not, so
     *  the event stays bit-identical across modes and builds). */
    void
    flushKernelCounters(int level)
    {
        static_assert(
            std::tuple_size_v<decltype(sim::NodeStats::kernelCalls)>
                == kNumKernelKinds,
            "NodeStats::kernelCalls must track core::KernelKind");
        const KernelCounters &now = extender_.kernelCounters();
        std::uint64_t total_delta = 0;
        for (std::size_t k = 0; k < kNumKernelKinds; ++k) {
            const std::uint64_t delta =
                now.calls[k] - lastKernelCalls_[k];
            if (delta == 0)
                continue;
            stats_.kernelCalls[k] += delta;
            total_delta += delta;
            lastKernelCalls_[k] = now.calls[k];
        }
        if (total_delta != 0)
            trace().emit({sim::PhaseEvent::KernelDispatch, unit_,
                          level, total_delta, 0});
    }

    Engine &engine_;
    const GraphSetup &setup_;
    const Graph &graph_;
    const ExtendPlan &plan_;
    MatchVisitor *visitor_;
    unsigned unit_;
    sim::NodeStats &stats_;
    sim::TrafficTally &tally_;
    sim::TraceSink &sink_;
    std::vector<ChunkRecord> *stealLedger_;
    CrashReport *crash_;
    EdgeListProvider &provider_;
    sim::FaultSession *faults_;
    PlanExtender extender_;
    unsigned cores_;
    double deadlineNs_;
    double deadlineStartNs_;
    const CancelToken *cancel_;
    double penalty_ = 1.0;
    int chunkedLevels_ = 0;
    bool crashed_ = false;

    /** Per-level 1-based chunk-open ordinals (crash triggers). */
    std::vector<std::uint64_t> chunkOpens_;

    /** Chunks closed since the last checkpoint: lost if we crash. */
    std::vector<ChunkRecord> sinceCheckpoint_;

    std::vector<Chunk> chunks_;
    std::vector<HorizontalTable> tables_;
    std::vector<CirculantScheduler> scheds_;

    /** Dispatcher tallies already folded into stats/trace. */
    std::array<std::uint64_t, kNumKernelKinds> lastKernelCalls_{};

    std::int64_t raw_ = 0;
};

namespace
{

/** One unit's trace for one run (§6): per-event tallies summed into
 *  the engine's counts at the ordered merge, plus a replay buffer
 *  that is fed only while a user sink is installed — so a run
 *  without one holds no trace record at all. */
struct UnitTrace
{
    UnitTrace() = default;
    UnitTrace(const UnitTrace &) = delete;
    UnitTrace &operator=(const UnitTrace &) = delete;

    sim::CountingTraceSink counts;
    sim::BufferingTraceSink buffer;
    /** What the unit's explorer emits into. */
    sim::TeeTraceSink sink{counts};
};

} // namespace

Engine::Engine(const Graph &g, const EngineConfig &config)
    : Engine(std::make_unique<GraphContext>(g, config.graph), nullptr,
             config.session)
{}

Engine::Engine(GraphContext &context, const SessionConfig &session)
    : Engine(nullptr, &context, session)
{}

Engine::Engine(std::unique_ptr<GraphContext> owned,
               GraphContext *context, const SessionConfig &session)
    : ownedContext_(std::move(owned)),
      context_(ownedContext_ ? ownedContext_.get() : context),
      graph_(&context_->graph()), session_(session),
      partition_(context_->partition()),
      fabric_(partition_)
{
    const Graph &g = *graph_;
    const GraphSetup &setup = context_->setup();
    // An empty zero-budget chunk is already full: no root would ever
    // be admitted and the explorer would never advance.
    KHUZDUL_REQUIRE(session_.chunkBytes > 0,
                    "chunk byte budget must be nonzero");
    session_.faults.validate(partition_.numNodes(),
                             partition_.numUnits());
    stats_.nodes.resize(partition_.numUnits());
    if (session_.kernelMode == KernelMode::Auto)
        context_->ensureHubBitmaps();
    const std::uint64_t per_unit = context_->cacheBytesPerUnit();
    for (unsigned u = 0; u < partition_.numUnits(); ++u) {
        caches_.push_back(std::make_unique<DataCache>(
            g, setup.cachePolicy, per_unit,
            setup.cacheDegreeThreshold));
        providers_.push_back(std::make_unique<EdgeListProvider>(
            g, partition_, caches_.back().get(),
            setup.horizontalSharing,
            EdgeListProvider::engineCosts(*caches_.back())));
        providers_.back()->setResidency(&context_->residency());
        if (!session_.faults.empty())
            faultSessions_.push_back(
                std::make_unique<sim::FaultSession>(
                    session_.faults, partition_.numNodes()));
    }
}

Engine::~Engine() = default;

std::vector<double>
Engine::unitFinishNs() const
{
    std::vector<double> finish;
    finish.reserve(stats_.nodes.size());
    for (const sim::NodeStats &node : stats_.nodes)
        finish.push_back(node.totalNs());
    return finish;
}

void
Engine::commitMigration(unsigned receiver, unsigned victim,
                        const ChunkRecord &rec, double transfer_ns,
                        double handshake_ns)
{
    const unsigned units_per_node = partition_.socketsPerNode();
    // khuzdul-lint: allow(fabric-mutation) migration commit: the sequential post-merge passes ARE the sanctioned entry point
    fabric_.recordTransfer(receiver / units_per_node,
                           victim / units_per_node, rec.columnBytes, 1);
    // Fault-free prices: the receiver re-runs the chunk against a
    // healthy fetch path, plus the column transfer and a handshake.
    sim::NodeStats &in = stats_.nodes[receiver];
    in.computeNs += rec.computeNs;
    in.commExposedNs += rec.baseExposedNs + transfer_ns;
    in.commTotalNs += rec.baseCommNs + transfer_ns;
    in.schedulerNs += handshake_ns;
    in.bytesReceived += rec.columnBytes;
    in.messagesSent += 1;
    stats_.nodes[victim].bytesSent += rec.columnBytes;
}

Count
Engine::run(const ExtendPlan &plan)
{
    return run(plan, nullptr);
}

Count
Engine::run(const ExtendPlan &plan, MatchVisitor *visitor)
{
    if (visitor) {
        KHUZDUL_REQUIRE(!plan.hasIep,
                        "visitors cannot observe IEP-folded embeddings");
        KHUZDUL_REQUIRE(plan.countDivisor == 1,
                        "visitors need complete symmetry breaking");
    }
    stats_.startupNs += sim::cost::engineStartupNs;

    const unsigned units = partition_.numUnits();
    // Visitors are client UDFs of unknown thread-safety; their runs
    // stay sequential.  Counting runs use the configured cap.
    const unsigned threads = visitor
        ? 1u
        : std::min(ThreadPool::resolveThreadCount(session_.hostThreads),
                   units);
    // khuzdul-lint: allow(wall-clock) host observability: feeds RunStats::hostWallNs, excluded from toJson(false)
    const auto wall_start = std::chrono::steady_clock::now();

    // Per-unit isolation (§6): each unit counts its fabric traffic
    // in its own tally (per owner unit, sized by the partition),
    // traces into its own UnitTrace and writes doubles only into its
    // own NodeStats slot.  The same per-unit state is used at every
    // thread count — including 1 — and merged in unit order
    // below, so modeled results are a pure function of the config,
    // never of the thread count or the interleaving.
    std::vector<sim::TrafficTally> tallies(units,
                                           sim::TrafficTally(units));
    std::vector<std::int64_t> raws(units, 0);
    std::vector<CandidateMemoCounters> memos(units);
    sim::TraceSink *const user_sink = tracer_.secondary();
    std::vector<UnitTrace> traces(units);
    if (user_sink)
        for (UnitTrace &t : traces)
            t.sink.secondary(&t.buffer);
    // Per-unit donation ledgers for the post-barrier steal pass
    // (DESIGN.md §11); each unit appends only to its own slot.
    std::vector<std::vector<ChunkRecord>> stealLedgers(
        session_.stealEnabled ? units : 0);
    // Per-unit crash reports for the post-barrier recovery pass
    // (DESIGN.md §9); chunkOrdinal == 0 marks an untouched slot.
    // A crash plan implies checkpointing; checkpointEnabled alone
    // arms the barriers (to measure fault-free overhead) without
    // any crash ever firing.
    const bool recovery_armed = session_.checkpointEnabled
        || session_.faults.hasCrash();
    std::vector<CrashReport> crashReports(
        recovery_armed ? units : 0);

    const auto run_unit = [&](std::size_t u) {
        HybridExplorer explorer(
            *this, static_cast<unsigned>(u), plan, visitor,
            stats_.nodes[u], tallies[u], traces[u].sink,
            session_.stealEnabled ? &stealLedgers[u] : nullptr,
            recovery_armed ? &crashReports[u] : nullptr);
        raws[u] = explorer.run();
        memos[u] = explorer.memoCounters();
    };

    if (sharedPool_ && !visitor) {
        // Service mode: unit tasks go to the QueryService's shared
        // pool, where they interleave with co-running sessions'
        // units at task granularity.  run() blocks until this
        // session's units finish (the pool is reentrant).
        sharedPool_->run(units, run_unit);
    } else if (threads <= 1) {
        for (unsigned u = 0; u < units; ++u)
            run_unit(u);
    } else {
        if (!pool_ || pool_->workers() != threads)
            pool_ = std::make_unique<ThreadPool>(threads);
        pool_->run(units, run_unit);
    }

    // Ordered merge: fold each unit's trace tallies (sums commute)
    // and replay its buffer into the user sink, then its traffic
    // tally (ledger links, owners' bytesSent; a configured byte cap
    // throws here exactly when the run's total exceeds it).
    std::int64_t raw = 0;
    for (unsigned u = 0; u < units; ++u) {
        traceCounts_.add(traces[u].counts);
        stats_.traceBufferPeak = std::max<std::uint64_t>(
            stats_.traceBufferPeak, traces[u].buffer.size());
        if (user_sink)
            traces[u].buffer.flushTo(*user_sink);
        // khuzdul-lint: allow(fabric-mutation) ordered merge: the sequential post-barrier fold IS the sanctioned ledger write
        fabric_.mergeTally(u, tallies[u], stats_.nodes);
        raw += raws[u];
        stats_.candidateMemoLookups += memos[u].lookups;
        stats_.candidateMemoHits += memos[u].hits;
    }

    // Post-barrier recovery pass (DESIGN.md §9): runs strictly
    // after the ordered merge and before the steal pass, over
    // merged modeled state only — the same pure-function contract
    // as stealing.  Dead units are frozen at their crash snapshot
    // (the ghost charges of the host's continued enumeration are
    // restored away); their lost and orphaned chunks are adopted by
    // survivors at fault-free prices plus a handshake and the
    // fabric-priced column transfer.  Counts are never touched.
    std::vector<CrashReport> crashes;
    for (CrashReport &report : crashReports)
        if (report.chunkOrdinal != 0)
            crashes.push_back(std::move(report));
    if (!crashes.empty()) {
        for (const CrashReport &r : crashes) {
            sim::NodeStats &dead = stats_.nodes[r.unit];
            dead.computeNs = r.computeNs;
            dead.commExposedNs = r.commExposedNs;
            dead.commTotalNs = r.commTotalNs;
            dead.schedulerNs = r.schedulerNs;
            dead.cacheNs = r.cacheNs;
            dead.unitCrashes += 1;
            dead.chunksOrphaned += r.lost.size() + r.orphans.size();
        }
        const RecoveryPlanner planner(fabric_);
        const auto adoptions = planner.plan(crashes, unitFinishNs());
        const double handshake = sim::cost::adoptionHandshakeNs;
        for (const AdoptionDecision &d : adoptions) {
            const ChunkRecord &rec = d.chunk;
            // Mirror of the planner's finish[] update: the adopter
            // re-runs the chunk from the checkpointed columns.  Lost
            // chunks are double-paid by design — the dead unit's
            // burned time stays in its frozen snapshot AND the
            // adopter replays the work, which is exactly what
            // re-execution from a checkpoint costs.  The victim's
            // frozen times are never touched; only its send-side
            // volume grows (the checkpoint store on its node ships
            // the columns).
            commitMigration(d.adopter, d.victim, rec, d.transferNs,
                            handshake);
            sim::NodeStats &adopter = stats_.nodes[d.adopter];
            adopter.chunksAdopted += 1;
            adopter.adoptionBytesIn += rec.columnBytes;
            adopter.adoptionNs += handshake + d.transferNs;
            stats_.nodes[d.victim].adoptionBytesOut += rec.columnBytes;
            tracer_.emit({sim::PhaseEvent::ChunkAdopted, d.adopter,
                          rec.level, rec.embeddings, d.victim});
        }
    }

    // Post-barrier steal pass (DESIGN.md §11): rebalance tail
    // chunks from backlogged units onto idle ones.  Runs strictly
    // after the ordered merge, over merged modeled state only, so
    // the stolen schedule is the same pure function of the config
    // the rest of the modeled machine is.  Counts are never
    // touched — only modeled time, traffic and attribution move.
    if (session_.stealEnabled && units > 1) {
        std::vector<double> finish = unitFinishNs();
        // Dead units neither donate nor steal: an empty ledger
        // disqualifies them as victims, an infinite finish as
        // thieves.  Their chunks already moved in the recovery pass.
        for (const CrashReport &r : crashes) {
            stealLedgers[r.unit].clear();
            finish[r.unit] = std::numeric_limits<double>::infinity();
        }
        const StealPlanner planner(
            fabric_, session_.stealBacklogThresholdNs);
        const auto decisions =
            planner.plan(std::move(stealLedgers), std::move(finish));
        const double handshake = sim::cost::stealHandshakeNs;
        for (const StealDecision &d : decisions) {
            const ChunkRecord &rec = d.chunk;
            tracer_.emit({sim::PhaseEvent::StealIssued, d.thief,
                          rec.level, rec.columnBytes, d.victim});
            // Mirror of the planner's finish[] update: the thief
            // re-executes the chunk; the victim sheds exactly what
            // its ledger recorded and keeps the handshake.
            // recoveryNs and replay waste stay with the victim — the
            // fault history happened on its watch.
            commitMigration(d.thief, d.victim, rec, d.transferNs,
                            handshake);
            sim::NodeStats &thief = stats_.nodes[d.thief];
            sim::NodeStats &victim = stats_.nodes[d.victim];
            thief.chunksStolen += 1;
            thief.stealBytesIn += rec.columnBytes;
            thief.stealOverheadNs += handshake + d.transferNs;
            victim.computeNs -= rec.computeNs;
            victim.commExposedNs -= rec.exposedNs;
            victim.commTotalNs -= rec.commNs;
            victim.schedulerNs += handshake;
            victim.chunksDonated += 1;
            victim.stealBytesOut += rec.columnBytes;
            victim.stealOverheadNs += handshake;
            tracer_.emit({sim::PhaseEvent::StealCompleted, d.thief,
                          rec.level, rec.embeddings, d.victim});
        }
    }

    // Cross-query residency observations (host block of the stats;
    // never part of the modeled dump).
    for (auto &provider : providers_) {
        stats_.sharedCacheProbes += provider->sharedProbes();
        stats_.sharedCacheHits += provider->sharedHits();
        provider->resetSharedCounters();
    }

    stats_.hostThreads = std::max(
        stats_.hostThreads,
        sharedPool_ && !visitor ? sharedPool_->workers() : threads);
    stats_.hostWallNs += std::chrono::duration<double, std::nano>(
        // khuzdul-lint: allow(wall-clock) host observability: feeds RunStats::hostWallNs, excluded from toJson(false)
        std::chrono::steady_clock::now() - wall_start)
                             .count();

    KHUZDUL_CHECK(raw >= 0, "negative raw count");
    KHUZDUL_CHECK(raw % plan.countDivisor == 0,
                  "raw count " << raw << " not divisible by "
                  << plan.countDivisor);
    return static_cast<Count>(raw / plan.countDivisor);
}

void
Engine::chargeQueryRetry(unsigned attempt)
{
    KHUZDUL_REQUIRE(attempt >= 1, "retry attempts are 1-based");
    double backoff = sim::cost::queryRetryBackoffNs;
    for (unsigned k = 1; k < attempt; ++k)
        backoff *= 2;
    stats_.startupNs += backoff;
    ++stats_.queryRetries;
    tracer_.emit({sim::PhaseEvent::QueryRetried, 0, 0, attempt, 0});
}

void
Engine::resetStats()
{
    stats_ = sim::RunStats{};
    stats_.nodes.resize(partition_.numUnits());
    // khuzdul-lint: allow(fabric-mutation) sequential ledger wipe between census patterns; no units in flight
    fabric_.reset();
    traceCounts_.reset();
    for (auto &cache : caches_)
        cache->resetCounters();
    for (auto &provider : providers_)
        provider->resetSharedCounters();
    for (auto &session : faultSessions_)
        session->reset();
}

void
Engine::clearCaches()
{
    for (auto &cache : caches_)
        cache->clear();
    // A private context is this session's alone; a shared one
    // belongs to every co-running session and is never touched.
    if (ownedContext_)
        ownedContext_->clearCaches();
}

} // namespace core
} // namespace khuzdul
