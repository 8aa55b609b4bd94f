/**
 * @file
 * Plan compilation: turns a pattern into an ExtendPlan.  This plays
 * the role of the Automine / GraphPi compilers in the paper — the
 * ~500-line "porting" layer that emits the EXTEND function.  Two
 * compilation styles are provided:
 *
 *  - compileAutomine(): Automine/GraphZero style — a locality
 *    heuristic matching order, full symmetry-breaking restrictions,
 *    vertical-computation-sharing annotations, no IEP;
 *  - compileGraphPi(): GraphPi style — exhaustive matching-order
 *    search under a degree-based cost model plus the
 *    inclusion-exclusion (IEP) terminal block for counting.
 */

#ifndef KHUZDUL_PATTERN_PLANNER_HH
#define KHUZDUL_PATTERN_PLANNER_HH

#include <vector>

#include "graph/graph.hh"
#include "pattern/pattern.hh"
#include "pattern/plan.hh"

namespace khuzdul
{

/** Input-graph statistics driving cost-based order selection. */
struct GraphProfile
{
    double numVertices = 1.0;
    double avgDegree = 1.0;

    static GraphProfile fromGraph(const Graph &g);
};

/** Knobs for plan compilation (ablation switches map to Fig 11). */
struct PlanOptions
{
    /** Induced (exact-adjacency) matching; disables IEP. */
    bool induced = false;

    /** Allow the IEP terminal block (GraphPi only). */
    bool useIep = true;

    /** Emit vertical-computation-sharing annotations (§5.1). */
    bool verticalSharing = true;

    /**
     * Emit symmetry-breaking restrictions.  When false the plan
     * counts every ordered match and sets countDivisor = |Aut|.
     */
    bool symmetryBreaking = true;
};

/**
 * Build a plan for @p p matched in @p order (order[i] = pattern
 * vertex matched at position i).  Every prefix of the order must be
 * connected in @p p.  Restrictions and countDivisor are derived from
 * the automorphism group so that counts are exact for any valid
 * order.
 *
 * @param iep_suffix number of trailing positions to fold into an
 *        IEP block (0 = none); they must be pairwise non-adjacent.
 */
ExtendPlan buildPlan(const Pattern &p, const std::vector<int> &order,
                     const PlanOptions &options, int iep_suffix = 0);

/**
 * The matching orders compileGraphPi() searches: every order of @p p
 * whose prefixes stay connected, in lexicographic order, keeping
 * only the first that reorders @p p into a given pattern (adjacency
 * rows plus labels by position).  Orders sigma . order for sigma in
 * Aut(p) reorder p alike, so this yields (connected orders) / |Aut(p)|
 * orders: one for a clique, every connected order for an asymmetric
 * pattern.
 */
std::vector<std::vector<int>> distinctOrders(const Pattern &p);

/** Automine-style heuristic matching order. */
std::vector<int> automineOrder(const Pattern &p);

/** Compile with the Automine heuristic order (no IEP).  Throws
 *  FatalError unless @p p is connected and non-empty. */
ExtendPlan compileAutomine(const Pattern &p, const PlanOptions &options);

/**
 * Compile GraphPi style: search the distinctOrders() and their IEP
 * suffix sizes under the cost model, return the cheapest plan (the
 * first on ties).  Throws FatalError unless @p p is connected and
 * non-empty.
 */
ExtendPlan compileGraphPi(const Pattern &p, const GraphProfile &profile,
                          const PlanOptions &options);

/** All set partitions of {0..n-1}; each partition is a block list. */
std::vector<std::vector<std::vector<int>>> setPartitions(int n);

/**
 * Rough work estimate for executing @p plan on a graph with profile
 * @p profile; used by compileGraphPi() and exposed for tests.
 */
double estimatePlanCost(const ExtendPlan &plan,
                        const GraphProfile &profile);

} // namespace khuzdul

#endif // KHUZDUL_PATTERN_PLANNER_HH
