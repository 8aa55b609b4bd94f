/**
 * @file
 * Single-machine DFS plan driver.  This is the nested-loop execution
 * the paper's Figure 1 shows — the code shape Automine and GraphPi
 * compile to.  Every loop level is one step of the PlanExtender
 * kernel (core/extender), the same kernel the distributed engine's
 * chunked explorer drives, so all baselines run exactly the engine's
 * extension semantics.  It backs the single-machine baselines
 * (AutomineIH, the Peregrine/Pangolin-like engines), the
 * replicated-graph GraphPi baseline, the per-tree computation of
 * G-thinker, the aDFS-like mover and the single-machine FSM backend.
 */

#ifndef KHUZDUL_CORE_PLAN_RUNNER_HH
#define KHUZDUL_CORE_PLAN_RUNNER_HH

#include <span>

#include "core/kernels/kernels.hh"
#include "core/visitor.hh"
#include "graph/graph.hh"
#include "pattern/plan.hh"
#include "support/types.hh"

namespace khuzdul
{
namespace core
{

/** Work and result counters of one runner invocation. */
struct RunnerResult
{
    /** Matches found, before dividing by plan.countDivisor. */
    std::int64_t rawCount = 0;

    /** Elements consumed by set kernels (compute-cost proxy). */
    WorkItems workItems = 0;

    /** Candidates examined against filters. */
    Count candidatesChecked = 0;

    /** Partial embeddings (internal tree nodes) visited. */
    Count embeddingsVisited = 0;
};

/**
 * Enumerate the embedding trees rooted at @p roots under @p plan.
 *
 * @param visitor optional; called per complete embedding (requires
 *        a plan without IEP and with countDivisor == 1).
 * @param hooks optional enumeration observer.
 */
RunnerResult runPlanDfs(const Graph &g, const ExtendPlan &plan,
                        std::span<const VertexId> roots,
                        MatchVisitor *visitor = nullptr,
                        RunnerHooks *hooks = nullptr);

/** Convenience: run from every vertex and apply the divisor. */
Count countWithPlan(const Graph &g, const ExtendPlan &plan);

} // namespace core
} // namespace khuzdul

#endif // KHUZDUL_CORE_PLAN_RUNNER_HH
