/**
 * @file
 * Immutable CSR graph.  This is the substrate every engine in the
 * reproduction operates on: undirected simple graphs stored as
 * sorted adjacency (both directions materialized), with optional
 * vertex labels for labeled mining (FSM).
 */

#ifndef KHUZDUL_GRAPH_GRAPH_HH
#define KHUZDUL_GRAPH_GRAPH_HH

#include <bit>
#include <span>
#include <vector>

#include "support/check.hh"
#include "support/types.hh"

namespace khuzdul
{

/**
 * Compressed-sparse-row graph.
 *
 * Invariants: neighbor lists are sorted ascending, contain no
 * duplicates and no self loops.  For an undirected graph both arc
 * directions are present; orientation (graph::orient) produces a DAG
 * where only one direction remains.
 */
class Graph
{
  public:
    Graph() = default;

    /**
     * Construct from raw CSR arrays.
     *
     * @param offsets size numVertices()+1, offsets[v]..offsets[v+1]
     *                delimit v's neighbors in @p adjacency.
     * @param adjacency concatenated sorted neighbor lists.
     * @param labels optional per-vertex labels (empty = unlabeled).
     */
    Graph(std::vector<EdgeId> offsets, std::vector<VertexId> adjacency,
          std::vector<Label> labels = {});

    /** Number of vertices. */
    VertexId
    numVertices() const
    {
        return offsets_.empty()
            ? 0 : static_cast<VertexId>(offsets_.size() - 1);
    }

    /** Number of stored arcs (2x undirected edge count). */
    EdgeId numArcs() const { return adjacency_.size(); }

    /** Number of undirected edges (arcs / 2); for DAGs equals arcs. */
    EdgeId numEdges() const { return numArcs() / (directed_ ? 1 : 2); }

    /** Degree (neighbor count) of @p v. */
    EdgeId
    degree(VertexId v) const
    {
        return offsets_[v + 1] - offsets_[v];
    }

    /** Sorted neighbor list of @p v. */
    std::span<const VertexId>
    neighbors(VertexId v) const
    {
        return {adjacency_.data() + offsets_[v],
                adjacency_.data() + offsets_[v + 1]};
    }

    /** Binary-search membership test for the arc (u, v). */
    bool hasEdge(VertexId u, VertexId v) const;

    /** Largest degree over all vertices. */
    EdgeId maxDegree() const { return maxDegree_; }

    /** Whether labels are attached. */
    bool labeled() const { return !labels_.empty(); }

    /** Label of @p v; graphs without labels report label 0. */
    Label
    label(VertexId v) const
    {
        return labels_.empty() ? 0 : labels_[v];
    }

    /** Number of distinct labels (0 when unlabeled). */
    Label numLabels() const { return numLabels_; }

    /** Attach per-vertex labels (size must equal numVertices()). */
    void setLabels(std::vector<Label> labels);

    /**
     * Whether the adjacency is directed (true after orientation);
     * affects how numEdges() interprets the arc count.
     */
    bool directed() const { return directed_; }

    /** Mark this graph as directed (used by graph::orient). */
    void setDirected(bool directed) { directed_ = directed; }

    /**
     * Bytes needed to store the adjacency structure; this is the
     * figure "graph size" ratios (cache sizing) are computed from.
     */
    std::uint64_t
    sizeBytes() const
    {
        return adjacency_.size() * sizeof(VertexId)
            + offsets_.size() * sizeof(EdgeId);
    }

    /** Bytes of the edge list payload of one vertex. */
    std::uint64_t
    edgeListBytes(VertexId v) const
    {
        return degree(v) * sizeof(VertexId);
    }

    /** @name Hub-vertex bitmap index
     *
     * Dense neighbor bitsets for hot (high-degree) vertices, the
     * backing store of the bitmap intersection kernel
     * (core/kernels).  Admission is hottest-first (degree
     * descending, vertex id ascending on ties) among vertices with
     * degree >= the threshold, until @p max_bytes of rows are
     * allocated — deterministic, so kernel dispatch is too.  Each
     * row comes with a rank directory (one 32-bit count per row
     * word, outside the byte cap) from which hubRank() prices a
     * kernel's canonical charge.  The index is a lazily built,
     * observation-only acceleration structure: it never affects
     * counts, modeled time or traffic, which is why building
     * through a const Graph is sound.
     */
    /// @{

    /** Build (or rebuild, when parameters change) the index. */
    void buildHubBitmaps(EdgeId degree_threshold,
                         std::uint64_t max_bytes) const;

    /** Admission degree threshold of the last build. */
    EdgeId hubBitmapDegreeThreshold() const { return hubThreshold_; }

    /** Bytes held by bitmap rows (the memory-overhead figure). */
    std::uint64_t
    hubBitmapBytes() const
    {
        return hubWords_.size() * sizeof(std::uint64_t);
    }

    /** Number of vertices with a bitmap row. */
    std::size_t hubBitmapCount() const { return hubCount_; }

    /** Bitmap words of N(v), or nullptr when v has no row. */
    const std::uint64_t *
    hubBitmapRow(VertexId v) const
    {
        if (hubSlots_.empty() || hubSlots_[v] == kNoHubSlot)
            return nullptr;
        return hubWords_.data()
            + static_cast<std::size_t>(hubSlots_[v]) * hubWordsPerRow_;
    }

    /** Rank directory of v's row, or nullptr when v has no row:
     *  entry w counts the neighbors of v below 64 w. */
    const std::uint32_t *
    hubRankDirectory(VertexId v) const
    {
        if (hubSlots_.empty() || hubSlots_[v] == kNoHubSlot)
            return nullptr;
        return hubRanks_.data()
            + static_cast<std::size_t>(hubSlots_[v]) * hubWordsPerRow_;
    }

    /** Bytes held by the rank directories (half the row bytes). */
    std::uint64_t
    hubRankDirectoryBytes() const
    {
        return hubRanks_.size() * sizeof(std::uint32_t);
    }
    /// @}

  private:
    static constexpr std::uint32_t kNoHubSlot = 0xffffffffu;

    std::vector<EdgeId> offsets_;
    std::vector<VertexId> adjacency_;
    std::vector<Label> labels_;
    EdgeId maxDegree_ = 0;
    Label numLabels_ = 0;
    bool directed_ = false;

    /** Hub bitmap index (lazily built; see buildHubBitmaps). */
    mutable std::vector<std::uint64_t> hubWords_;
    mutable std::vector<std::uint32_t> hubRanks_;
    mutable std::vector<std::uint32_t> hubSlots_;
    mutable std::size_t hubWordsPerRow_ = 0;
    mutable std::size_t hubCount_ = 0;
    mutable EdgeId hubThreshold_ = 0;
    mutable std::uint64_t hubMaxBytes_ = 0;
    mutable bool hubBitmapsBuilt_ = false;
};

/**
 * |{u in N(h) : u <= x}| for a hub h with bitmap row @p row and rank
 * directory @p ranks (Graph::hubBitmapRow / hubRankDirectory): one
 * directory load plus one popcount of x's word up to bit x.
 */
inline std::size_t
hubRank(const std::uint64_t *row, const std::uint32_t *ranks, VertexId x)
{
    const std::uint64_t upto = (std::uint64_t{2} << (x & 63)) - 1;
    return ranks[x >> 6]
        + static_cast<std::size_t>(std::popcount(row[x >> 6] & upto));
}

} // namespace khuzdul

#endif // KHUZDUL_GRAPH_GRAPH_HH
