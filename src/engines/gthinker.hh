/**
 * @file
 * G-thinker baseline (§2.3, Table 2, Fig 15): the state-of-the-art
 * partitioned-graph competitor.  Each task explores one whole
 * embedding tree after pulling the k-hop subgraph it needs; a
 * general-purpose LRU software cache shared by all tasks
 * deduplicates pulls, at the price of maintaining the task<->data
 * map on every request and periodic scheduler readiness scans.
 * Those two costs — the paper measures them at ~41% and ~45% of
 * runtime — are charged per operation through the cost model.
 * Enumeration itself is exact (same plan interpreter), so counts
 * can be cross-checked against every other engine.
 */

#ifndef KHUZDUL_ENGINES_GTHINKER_HH
#define KHUZDUL_ENGINES_GTHINKER_HH

#include "core/plan_runner.hh"
#include "graph/graph.hh"
#include "graph/partition.hh"
#include "pattern/planner.hh"
#include "sim/cluster.hh"
#include "sim/stats.hh"

namespace khuzdul
{
namespace engines
{

/** Result of one G-thinker run. */
struct GThinkerResult
{
    Count count = 0;
    double makespanNs = 0;
    sim::RunStats stats;
};

/** The engine. */
class GThinkerEngine
{
  public:
    GThinkerEngine(const Graph &g, const sim::ClusterConfig &cluster);

    /** Count embeddings of @p p on the partitioned graph. */
    GThinkerResult count(const Pattern &p,
                         const PlanOptions &options = {});

  private:
    const Graph *graph_;
    sim::ClusterConfig cluster_;

    /** One sub-partition per node: G-thinker has no NUMA support. */
    Partition partition_;
};

} // namespace engines
} // namespace khuzdul

#endif // KHUZDUL_ENGINES_GTHINKER_HH
