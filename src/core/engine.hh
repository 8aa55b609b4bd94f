/**
 * @file
 * The Khuzdul distributed execution engine (§3-§6).
 *
 * The engine runs an ExtendPlan — the compiled EXTEND function of a
 * client GPM system — over a 1-D hash-partitioned graph on a
 * simulated cluster.  The runtime is layered; each layer is its own
 * translation unit with a narrow interface:
 *
 *   - EdgeListProvider (core/provider): classifies each embedding's
 *     needed edge list as local / cached / horizontally shared /
 *     remote and returns a typed Resolution (§5.2-§5.3);
 *   - CirculantScheduler (core/circulant): groups remote fetches
 *     into per-owner batches and folds the pipelined
 *     comm(b0) + Σ max(compute, comm) timeline (§4.3);
 *   - PlanExtender (core/extender): the intersection/filter/IEP
 *     step kernel with vertical sharing (§5.1), also driven by the
 *     baselines' runPlanDfs (core/plan_runner), so there is exactly
 *     one copy of the extension semantics;
 *   - HybridExplorer (this TU): the BFS-DFS traversal — fixed-budget
 *     chunks per level, DFS across chunks, BFS within (§4.2) —
 *     driving the layers above;
 *   - TraceSink (sim/trace): phase-event observability across all
 *     layers, null by default.
 *
 * Enumeration is performed for real (counts are exact and tested
 * against brute force); time and traffic are modeled through
 * sim/cost_model.hh / sim::Fabric so an 18-node cluster reproduces
 * deterministically on one host core.
 */

#ifndef KHUZDUL_CORE_ENGINE_HH
#define KHUZDUL_CORE_ENGINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/cache.hh"
#include "core/context.hh"
#include "core/kernels/kernels.hh"
#include "core/provider.hh"
#include "core/visitor.hh"
#include "graph/graph.hh"
#include "graph/partition.hh"
#include "pattern/plan.hh"
#include "sim/cluster.hh"
#include "sim/fabric.hh"
#include "sim/faults.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace khuzdul
{
namespace core
{

class ThreadPool;
class CancelToken;
struct ChunkRecord;

/**
 * Per-query session tunables — the knobs that are legitimately a
 * property of one query rather than of the resident graph (those
 * live in GraphSetup / GraphContext).  Defaults mirror the paper's
 * configuration at stand-in scale.
 */
struct SessionConfig
{
    /**
     * Per-level chunk byte budget (§4.2); must be nonzero.  The
     * paper defaults to 4 GB on ~10 GB graphs; scaled stand-ins
     * default to 4 MB.
     */
    std::uint64_t chunkBytes = 4ull << 20;

    /** Set-kernel dispatch policy (core/kernels): Auto adapts per
     *  call; other modes force one kernel for A/B runs.  Charges
     *  are canonical, so the mode never changes modeled results. */
    KernelMode kernelMode = KernelMode::Auto;

    /**
     * Host worker threads executing simulated units in parallel
     * (§6); ignored when the session runs on a QueryService's
     * shared pool.  Purely host-side: 0 means "all hardware
     * threads", 1 forces sequential execution, and every value
     * produces bit-identical modeled results — counts, RunStats,
     * the fabric ledger and the trace stream never depend on it.
     */
    unsigned hostThreads = 0;

    /**
     * Deterministic fault schedule (§9, CLI `--fault`).  Empty =
     * healthy fabric.  Triggers read only modeled per-unit state, so
     * for a fixed plan the run stays bit-identical at every
     * hostThreads value; counts stay exact under any plan because
     * exhausted chunks are replayed, never dropped.
     */
    sim::FaultPlan faults;

    /**
     * Deterministic inter-unit work stealing (DESIGN.md §11, CLI
     * `--steal`).  A post-barrier planning pass over the merged
     * per-chunk ledgers migrates tail chunks from backlogged units
     * to idle ones, pricing the embedding-column transfer and a
     * handshake through the fabric.  Purely modeled: counts never
     * change, and for a fixed config the stolen schedule is
     * bit-identical at every hostThreads value and fault plan.
     */
    bool stealEnabled = false;

    /** Minimum remaining modeled backlog (ns) before a unit is
     *  considered a steal victim (CLI `--steal-threshold`). */
    double stealBacklogThresholdNs = 1.0e5;

    /**
     * Modeled per-query deadline (ns, CLI `--deadline`); 0 = none.
     * Checked at chunk boundaries against the unit's run-local
     * modeled time, so whether a run exceeds its deadline is a pure
     * function of the config — an exceeded deadline raises the
     * typed sim::DeadlineExceeded at every thread count.
     */
    double deadlineNs = 0;

    /**
     * Level-barrier checkpointing (DESIGN.md §9, CLI `--checkpoint`):
     * every unit logically snapshots its partial counts and pending
     * ledger at each level-0 barrier, charged sim::cost::checkpointNs.
     * Implicitly armed whenever the fault plan contains a crash spec
     * (recovery needs the checkpoints); enable explicitly to measure
     * the fault-free overhead.
     */
    bool checkpointEnabled = false;

    /** Whole-query retries the service may spend on a failed run
     *  (CLI `--query-retries`); each attempt k charges a modeled
     *  backoff of queryRetryBackoffNs * 2^(k-1).  0 = fail fast. */
    unsigned maxQueryRetries = 0;
};

/** A single-query run's whole configuration: the graph-resident half
 *  (GraphContext construction) and the per-query half (session
 *  construction). */
struct EngineConfig
{
    GraphSetup graph;
    SessionConfig session;
};

/**
 * The execution engine, structured as a per-query *session* over a
 * shared GraphContext.  The context owns everything graph-resident
 * (partition, hub bitmaps, cross-query residency directory,
 * cumulative traffic ledger); the session owns everything a query
 * must be able to account deterministically on its own — its
 * per-unit modeled DataCaches, its fabric ledger, its RunStats and
 * trace sinks.  run() can be invoked repeatedly (e.g. once per
 * motif pattern) and accumulates stats across runs.
 *
 * Reset vs. clear semantics (the PR-5 wart, now explicit):
 *   - resetStats() wipes statistics, trace counts and the session's
 *     traffic ledger but keeps cache *contents* warm — reruns after
 *     a reset model a long-lived deployment and may legitimately
 *     differ from a cold run (fewer misses, less traffic).
 *   - clearCaches() additionally drops the session's cache contents
 *     (and, when the engine owns its private context, the context's
 *     residency directory and cumulative ledger), so
 *     clearCaches() + resetStats() restores the full cold-start
 *     state: the next run is byte-identical to a fresh engine's
 *     under every cache policy, not just CachePolicy::None.
 */
class Engine
{
  public:
    /** Single-query convenience: builds a private GraphContext from
     *  config.graph and a session from config.session.  Exactly
     *  equivalent to the two-step form. */
    Engine(const Graph &g, const EngineConfig &config);

    /** A query session over a shared (possibly concurrent) context.
     *  @p context must outlive the engine. */
    explicit Engine(GraphContext &context,
                    const SessionConfig &session = {});

    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Count the embeddings of @p plan's pattern. */
    Count run(const ExtendPlan &plan);

    /**
     * Enumerate embeddings, passing each to @p visitor (the UDF of
     * Figure 5).  Requires a plan without IEP and with
     * countDivisor == 1.
     */
    Count run(const ExtendPlan &plan, MatchVisitor *visitor);

    const Graph &graph() const { return *graph_; }
    const Partition &partition() const { return partition_; }

    /** The shared context this session runs over (the engine's own
     *  private one when built from an EngineConfig). */
    GraphContext &context() { return *context_; }
    const GraphContext &context() const { return *context_; }

    /** Per-query tunables of this session. */
    const SessionConfig &session() const { return session_; }

    /** Cumulative statistics (one entry per execution unit). */
    const sim::RunStats &stats() const { return stats_; }

    /** Fabric ledger (per-link traffic; test fault injection). */
    sim::Fabric &fabric() { return fabric_; }

    /**
     * Install a phase-event sink observing every layer (nullptr
     * uninstalls).  Tracing never changes results or modeled time.
     * While a sink is installed each unit buffers its run's events
     * (O(chunks + fetch batches) records) for the ordered replay;
     * without one, units only count.
     */
    void setTraceSink(sim::TraceSink *sink) { tracer_.secondary(sink); }

    /** Per-event tallies of the engine's built-in counting sink
     *  (cross-checkable against stats(); cleared by resetStats). */
    const sim::CountingTraceSink &traceCounts() const
    {
        return traceCounts_;
    }

    /** Clear statistics, trace counts and the traffic ledger.
     *  Cache contents stay warm — see the class comment for the
     *  reset-vs-clear contract. */
    void resetStats();

    /**
     * Drop this session's cache contents (cold restart).  When the
     * engine owns its private context the context's residency
     * directory and cumulative ledger are cleared too; a *shared*
     * context is never touched — co-running sessions own that
     * decision via GraphContext::clearCaches().
     */
    void clearCaches();

    /**
     * Run units on an externally owned pool instead of a private
     * one (nullptr reverts).  The QueryService installs its shared
     * pool here, which serves concurrent sessions' unit tasks first
     * come, first served.  Host-side only: modeled results are
     * identical on any pool.
     */
    void setHostPool(ThreadPool *pool) { sharedPool_ = pool; }

    /**
     * Install a cooperative cancellation token (nullptr uninstalls).
     * The explorer polls it at chunk boundaries and raises the typed
     * sim::QueryCancelled from run().  A run that is never cancelled
     * is bit-identical with or without a token installed.
     */
    void setCancelToken(const CancelToken *token) { cancel_ = token; }

    /**
     * Charge one whole-query retry to this session (DESIGN.md §9):
     * modeled backoff queryRetryBackoffNs * 2^(attempt-1) into
     * startupNs, a QueryRetried trace event, and the RunStats
     * queryRetries counter.  The QueryService calls this on the
     * fresh engine of attempt k once per prior failed attempt, so
     * the surviving stats carry the full retry history.
     */
    void chargeQueryRetry(unsigned attempt);

  private:
    friend class HybridExplorer;

    Engine(std::unique_ptr<GraphContext> owned, GraphContext *context,
           const SessionConfig &session);

    /** Every unit's modeled finish time (NodeStats::totalNs()): the
     *  input of the post-barrier recovery and steal planners. */
    std::vector<double> unitFinishNs() const;

    /**
     * Commit the part of one post-barrier chunk migration (crash
     * adoption, DESIGN.md §9.4, or steal, §11) that both passes
     * share: the column transfer @p receiver <- @p victim on the
     * fabric ledger, the receiver re-running the chunk at fault-free
     * prices plus the transfer and @p handshake_ns, and the victim's
     * node shipping the columns.  Pass-specific counters and trace
     * events stay with the caller.
     */
    void commitMigration(unsigned receiver, unsigned victim,
                         const ChunkRecord &rec, double transfer_ns,
                         double handshake_ns);

    /** Non-null iff this engine was built from an EngineConfig and
     *  owns its context. */
    std::unique_ptr<GraphContext> ownedContext_;
    GraphContext *context_;
    const Graph *graph_;
    SessionConfig session_;
    const Partition &partition_;
    sim::Fabric fabric_;
    sim::RunStats stats_;
    sim::CountingTraceSink traceCounts_;
    sim::TeeTraceSink tracer_{traceCounts_};
    std::vector<std::unique_ptr<DataCache>> caches_;
    std::vector<std::unique_ptr<EdgeListProvider>> providers_;

    /** One deterministic fault cursor per execution unit (empty
     *  when session_.faults is); reset alongside the ledger. */
    std::vector<std::unique_ptr<sim::FaultSession>> faultSessions_;

    /** Host worker pool, created lazily on the first parallel run
     *  and rebuilt when session_.hostThreads resolves differently. */
    std::unique_ptr<ThreadPool> pool_;

    /** Borrowed service pool (setHostPool); wins over pool_. */
    ThreadPool *sharedPool_ = nullptr;

    /** Borrowed cancellation token (setCancelToken); host-side. */
    const CancelToken *cancel_ = nullptr;
};

} // namespace core
} // namespace khuzdul

#endif // KHUZDUL_CORE_ENGINE_HH
