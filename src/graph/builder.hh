/**
 * @file
 * Edge-list accumulator that applies the paper's preprocessing
 * (Section 7.1): drop self loops, deduplicate edges, symmetrize
 * (treat directed input as undirected), then emit a CSR Graph.
 */

#ifndef KHUZDUL_GRAPH_BUILDER_HH
#define KHUZDUL_GRAPH_BUILDER_HH

#include <utility>
#include <vector>

#include "graph/graph.hh"
#include "support/types.hh"

namespace khuzdul
{

/**
 * Accumulates edges and builds a clean undirected CSR graph.
 *
 * Usage: addEdge() any number of times (duplicates, self loops and
 * both orientations are fine), then build().
 */
class GraphBuilder
{
  public:
    /** @param num_vertices number of vertices; ids must be < this. */
    explicit GraphBuilder(VertexId num_vertices);

    /** Record an undirected edge {u, v}; self loops are dropped. */
    void addEdge(VertexId u, VertexId v);

    /**
     * Produce the graph.  The builder is consumed (edge storage is
     * released).  @param labels optional per-vertex labels.
     */
    Graph build(std::vector<Label> labels = {});

  private:
    VertexId numVertices_;
    std::vector<std::pair<VertexId, VertexId>> edges_;
};

} // namespace khuzdul

#endif // KHUZDUL_GRAPH_BUILDER_HH
