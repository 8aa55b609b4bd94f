/**
 * @file
 * GraphContext: the shared, query-independent half of the engine.
 *
 * Khuzdul's cacheable data structures are properties of the *graph*,
 * not of any one query: the 1-D hash partition, the hub bitmaps
 * backing the bitmap kernel, the planner's degree profile, the
 * cross-query residency directory and the cumulative traffic
 * ledger.  Before this type existed each `Engine` owned all of it,
 * so concurrent queries could not amortize anything.  Now one
 * GraphContext is built per resident graph and any number of
 * per-query `Engine` sessions — and the `core/service` QueryService
 * scheduling them — share it.
 *
 * Determinism scope (DESIGN.md §10): everything a session *charges*
 * (cache probe time, fetch bytes, its fabric ledger) runs against
 * per-session deterministic state.  The context only holds state
 * whose contents may legitimately depend on co-runners — the
 * residency directory, the cumulative traffic total, lazy build
 * flags — and nothing modeled ever reads it.
 */

#ifndef KHUZDUL_CORE_CONTEXT_HH
#define KHUZDUL_CORE_CONTEXT_HH

#include <cstdint>
#include <memory>
// khuzdul-lint: allow(thread-primitive) guards lazy shared artifacts + cumulative ledger; host-side, never modeled
#include <mutex>

#include "core/cache.hh"
#include "core/residency.hh"
#include "graph/graph.hh"
#include "graph/partition.hh"
#include "pattern/planner.hh"
#include "sim/cluster.hh"
#include "sim/fabric.hh"
#include "support/types.hh"

namespace khuzdul
{
namespace core
{

/**
 * Graph-resident configuration: everything that describes the
 * deployment a graph lives in, as opposed to how one query runs.
 * Shared verbatim by every session of a context.  Defaults mirror
 * the paper's configuration at stand-in scale.  The time constants
 * are not part of it: they describe the paper's one testbed and are
 * compile-time constants (sim/cost_model.hh).
 */
struct GraphSetup
{
    /** Simulated machines. */
    sim::ClusterConfig cluster;

    /** Graph-data cache policy (STATIC is the paper's design). */
    CachePolicy cachePolicy = CachePolicy::Static;

    /** Cache capacity as a fraction of the graph size, per node;
     *  must lie in [0, 1]. */
    double cacheFraction = 0.15;

    /** Static-cache admission degree threshold (§5.3). */
    EdgeId cacheDegreeThreshold = 32;

    /** Horizontal data sharing on/off (Fig 12 ablation). */
    bool horizontalSharing = true;

    /** NUMA-aware sub-partitioning (§5.4, Table 7 ablation). */
    bool numaAware = true;
};

/**
 * The shared per-graph half of the runtime.  Thread-safe: any
 * number of query sessions (and the QueryService's dispatchers) may
 * call into one context concurrently.
 */
class GraphContext
{
  public:
    GraphContext(const Graph &g, const GraphSetup &setup = {});

    GraphContext(const GraphContext &) = delete;
    GraphContext &operator=(const GraphContext &) = delete;

    const Graph &graph() const { return *graph_; }
    const GraphSetup &setup() const { return setup_; }
    const Partition &partition() const { return partition_; }

    /** Compute cores available to one execution unit. */
    unsigned computeCoresPerUnit() const;

    /** Byte budget of one unit's data cache (session caches and the
     *  cross-query directory use the same geometry). */
    std::uint64_t cacheBytesPerUnit() const;

    /** Build the graph's hub bitmaps once (idempotent, thread-safe;
     *  Auto-mode sessions call this).  The admission degree and byte
     *  cap are constants, so the row set depends on the graph
     *  alone. */
    void ensureHubBitmaps();

    /** Planner degree profile, computed once and shared. */
    const GraphProfile &profile();

    /** Cross-query residency directory (host observability). */
    SharedResidency &residency() { return residency_; }

    /** @name Cumulative traffic ledger
     *
     * Every session folds its per-query fabric ledger's cross-node
     * byte total in after each run.  A plain uint64 sum, so the
     * cumulative total is independent of admission order; per-link
     * and per-query attribution live in the sessions' own ledgers.
     */
    /// @{
    void absorbTraffic(const sim::Fabric &query_ledger);
    std::uint64_t sharedTotalBytes() const;
    /// @}

    /** @name Cross-query reuse counters (host observability) */
    /// @{
    std::uint64_t crossQueryHits() const { return residency_.hits(); }
    std::uint64_t crossQueryProbes() const
    {
        return residency_.probes();
    }
    /// @}

    /**
     * Drop the cross-query residency directory and the cumulative
     * traffic ledger.  Does NOT touch any session's own caches —
     * those are cleared by `Engine::clearCaches()` (see engine.hh
     * for the reset-vs-clear semantics).
     */
    void clearCaches();

  private:
    const Graph *graph_;
    GraphSetup setup_;
    Partition partition_;
    SharedResidency residency_;

    /** Guards the lazy artifacts and the cumulative ledger. */
    // khuzdul-lint: allow(thread-primitive) host-side guard; protects observability and build-once state only
    mutable std::mutex mutex_;
    std::uint64_t sharedBytes_ = 0;
    bool hubBitmapsBuilt_ = false;
    std::unique_ptr<GraphProfile> profile_;
};

} // namespace core
} // namespace khuzdul

#endif // KHUZDUL_CORE_CONTEXT_HH
