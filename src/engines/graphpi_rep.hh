/**
 * @file
 * Replicated-graph distributed GraphPi (the paper's strongest
 * replication-based competitor, Table 2 / Fig 13).  Every node
 * holds the whole graph, so there is no edge-list communication;
 * instead the first matching loop is split into coarse task chunks
 * distributed statically across nodes.  The two weaknesses the
 * paper calls out are modeled: a fixed task-partitioning overhead,
 * and coarse-grained parallelism whose imbalance hurts scaling on
 * skewed graphs.  The graph must fit in each node's memory —
 * exceeding it raises FatalError (the paper's "CRASHED" rows).
 */

#ifndef KHUZDUL_ENGINES_GRAPHPI_REP_HH
#define KHUZDUL_ENGINES_GRAPHPI_REP_HH

#include "core/plan_runner.hh"
#include "graph/graph.hh"
#include "pattern/planner.hh"
#include "sim/cluster.hh"
#include "sim/stats.hh"

namespace khuzdul
{
namespace engines
{

/** Result of a replicated-GraphPi run. */
struct GraphPiRepResult
{
    Count count = 0;
    double makespanNs = 0;
    sim::RunStats stats;
};

/** The engine itself. */
class GraphPiRepEngine
{
  public:
    GraphPiRepEngine(const Graph &g, const sim::ClusterConfig &cluster);

    /**
     * Count embeddings of @p p.  Throws FatalError when the
     * replicated graph exceeds per-node memory.
     */
    GraphPiRepResult count(const Pattern &p,
                           const PlanOptions &options = {});

  private:
    const Graph *graph_;
    sim::ClusterConfig cluster_;

    /** Planner degree profile of the graph. */
    GraphProfile profile_;
};

} // namespace engines
} // namespace khuzdul

#endif // KHUZDUL_ENGINES_GRAPHPI_REP_HH
