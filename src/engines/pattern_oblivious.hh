/**
 * @file
 * Pattern-oblivious baseline (Fractal/Arabesque style, Table 4):
 * enumerate *every* connected edge-induced subgraph up to an edge
 * budget, canonicalize each instance with an isomorphism
 * computation, and aggregate per-pattern MNI supports.  This is the
 * first-generation GPM approach the paper contrasts with
 * pattern-aware enumeration — correct, general and slow, because
 * the expensive canonicalization runs once per *instance*.
 */

#ifndef KHUZDUL_ENGINES_PATTERN_OBLIVIOUS_HH
#define KHUZDUL_ENGINES_PATTERN_OBLIVIOUS_HH

#include <utility>
#include <vector>

#include "graph/graph.hh"
#include "pattern/pattern.hh"
#include "sim/cluster.hh"
#include "sim/stats.hh"

namespace khuzdul
{
namespace engines
{

/** Support of one discovered labeled pattern. */
struct PatternSupport
{
    Pattern pattern;
    Count support = 0;      ///< MNI (minimum image) support
    Count instances = 0;    ///< enumerated subgraph instances
};

/** Result of a frequent-subgraph-mining run. */
struct PatternObliviousResult
{
    std::vector<PatternSupport> patterns;
    Count totalInstances = 0;
    double makespanNs = 0;
    sim::RunStats stats;
};

/** The engine. */
class PatternObliviousEngine
{
  public:
    PatternObliviousEngine(const Graph &g,
                           const sim::ClusterConfig &cluster);

    /**
     * Enumerate all connected subgraphs with <= @p max_edges edges
     * and aggregate MNI supports per canonical labeled pattern;
     * patterns below @p min_support are filtered from the result
     * (but still paid for — the pattern-oblivious tax).
     */
    PatternObliviousResult mineFrequent(int max_edges,
                                        Count min_support);

  private:
    const Graph *graph_;
    sim::ClusterConfig cluster_;
};

} // namespace engines
} // namespace khuzdul

#endif // KHUZDUL_ENGINES_PATTERN_OBLIVIOUS_HH
