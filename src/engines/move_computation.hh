/**
 * @file
 * "Moving computation to data" baseline (aDFS-like, §2.3 / Fig 10).
 * Instead of pulling remote edge lists, partially-constructed
 * embeddings travel to the machine owning the data they need next,
 * carrying the active edge lists required for the coming
 * intersection.  The paper identifies two penalties — extra edge
 * lists on the wire and no opportunity for data reuse — and this
 * engine charges both: every owner change ships the embedding plus
 * its active lists, with no cache to absorb repeats.
 */

#ifndef KHUZDUL_ENGINES_MOVE_COMPUTATION_HH
#define KHUZDUL_ENGINES_MOVE_COMPUTATION_HH

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

/** Result of one run. */
struct MoveComputationResult
{
    Count count = 0;
    double makespanNs = 0;
    sim::RunStats stats;
};

/** The engine. */
class MoveComputationEngine
{
  public:
    MoveComputationEngine(const Graph &g,
                          const sim::ClusterConfig &cluster);

    /** Count embeddings of @p p, shipping embeddings to their data. */
    MoveComputationResult count(const Pattern &p,
                                const PlanOptions &options = {});

  private:
    const Graph *graph_;
    sim::ClusterConfig cluster_;

    /** One sub-partition per node (single-socket deployment). */
    Partition partition_;
};

} // namespace engines
} // namespace khuzdul

#endif // KHUZDUL_ENGINES_MOVE_COMPUTATION_HH
