/**
 * @file
 * Single-machine baseline systems (Table 3): AutomineIH (the
 * authors' in-house Automine), a Peregrine-like pattern-aware
 * runtime, and a Pangolin-like engine whose distinguishing feature
 * is the orientation (DAG) optimization for triangles and cliques.
 * All run the DFS plan interpreter on the whole (replicated) graph;
 * modeled time = measured work / cores + per-system overheads.
 */

#ifndef KHUZDUL_ENGINES_SINGLE_MACHINE_HH
#define KHUZDUL_ENGINES_SINGLE_MACHINE_HH

#include "core/plan_runner.hh"
#include "graph/graph.hh"
#include "pattern/planner.hh"

namespace khuzdul
{
namespace engines
{

/** Which single-machine system is being modeled. */
enum class SingleMachineStyle
{
    AutomineIH,    ///< compiled nested loops, Automine scheduling
    PeregrineLike, ///< pattern-aware runtime (interpretation tax)
    PangolinLike,  ///< orientation-optimized clique/TC engine
};

/** Configuration of a single machine run. */
struct SingleMachineConfig
{
    /** Compute cores of the machine (16 in the paper's nodes). */
    unsigned cores = 16;

    /** Memory capacity; counting fails when the graph exceeds it. */
    std::uint64_t memoryBytes = 64ull << 30;
};

/** Result of one single-machine counting run. */
struct SingleMachineResult
{
    Count count = 0;
    double runtimeNs = 0;
    core::RunnerResult work;
};

/**
 * One single-machine GPM system.  Owns an oriented copy of the
 * graph when the style uses orientation.
 */
class SingleMachineEngine
{
  public:
    SingleMachineEngine(const Graph &g, SingleMachineStyle style,
                        const SingleMachineConfig &config);

    /** Count embeddings of @p p (non-induced by default). */
    SingleMachineResult count(const Pattern &p,
                              const PlanOptions &options = {});

    SingleMachineStyle style() const { return style_; }

    /** Whether this run would use the orientation fast path. */
    bool usesOrientation(const Pattern &p) const;

  private:
    const Graph *graph_;
    SingleMachineStyle style_;
    SingleMachineConfig config_;

    /** The degree-oriented DAG count() matches cliques on; built
     *  only for the Pangolin-like style (empty otherwise). */
    Graph oriented_;
};

} // namespace engines
} // namespace khuzdul

#endif // KHUZDUL_ENGINES_SINGLE_MACHINE_HH
