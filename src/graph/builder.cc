#include "graph/builder.hh"

#include <algorithm>

#include "support/check.hh"

namespace khuzdul
{

namespace
{

using Edge = std::pair<VertexId, VertexId>;

/** Stable counting sort of @p edges into @p out by @p key (< @p n). */
template <typename Key>
void
countingPass(const std::vector<Edge> &edges, std::vector<Edge> &out,
             VertexId n, Key key)
{
    std::vector<EdgeId> next(static_cast<std::size_t>(n) + 1, 0);
    for (const Edge &e : edges)
        ++next[key(e) + 1];
    for (VertexId v = 0; v < n; ++v)
        next[v + 1] += next[v];
    for (const Edge &e : edges)
        out[next[key(e)]++] = e;
}

} // namespace

GraphBuilder::GraphBuilder(VertexId num_vertices)
    : numVertices_(num_vertices)
{}

void
GraphBuilder::addEdge(VertexId u, VertexId v)
{
    KHUZDUL_REQUIRE(u < numVertices_ && v < numVertices_,
                    "edge endpoint out of range: " << u << "," << v);
    if (u == v)
        return; // self loops are removed during preprocessing
    if (u > v)
        std::swap(u, v);
    edges_.emplace_back(u, v);
}

Graph
GraphBuilder::build(std::vector<Label> labels)
{
    // Sort by (u, v): a stable counting pass by v, then one by u.
    std::vector<Edge> by_v(edges_.size());
    countingPass(edges_, by_v, numVertices_,
                 [](const Edge &e) { return e.second; });
    countingPass(by_v, edges_, numVertices_,
                 [](const Edge &e) { return e.first; });
    by_v = {};
    edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

    std::vector<EdgeId> degrees(numVertices_ + 1, 0);
    for (const auto &[u, v] : edges_) {
        ++degrees[u + 1];
        ++degrees[v + 1];
    }
    std::vector<EdgeId> offsets(numVertices_ + 1, 0);
    for (VertexId v = 0; v < numVertices_; ++v)
        offsets[v + 1] = offsets[v] + degrees[v + 1];

    // Every list comes out ascending: edges run in (u, v) order with
    // u < v, so x's lower neighbors (edges (u, x)) arrive by rising u
    // before its higher ones (edges (x, v)) arrive by rising v.
    std::vector<VertexId> adjacency(offsets.back());
    std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
    for (const auto &[u, v] : edges_) {
        adjacency[cursor[u]++] = v;
        adjacency[cursor[v]++] = u;
    }
    edges_.clear();
    edges_.shrink_to_fit();

    return Graph(std::move(offsets), std::move(adjacency),
                 std::move(labels));
}

} // namespace khuzdul
