/**
 * @file
 * Pattern graphs: the small connected graphs (<= 8 vertices) whose
 * embeddings GPM applications enumerate.  Stored as per-vertex
 * adjacency bitmasks for O(1) edge tests and cheap permutation.
 */

#ifndef KHUZDUL_PATTERN_PATTERN_HH
#define KHUZDUL_PATTERN_PATTERN_HH

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "support/types.hh"

namespace khuzdul
{

/**
 * A small undirected pattern graph with optional vertex labels.
 *
 * Vertices are 0..size()-1; adjacency is a bitmask per vertex.
 */
class Pattern
{
  public:
    /** An empty pattern with @p size isolated vertices. */
    explicit Pattern(int size = 0);

    /** Build from an edge list, e.g. Pattern(3, {{0,1},{1,2},{0,2}}). */
    Pattern(int size,
            std::initializer_list<std::pair<int, int>> edges);

    /** Build from an edge vector. */
    Pattern(int size, const std::vector<std::pair<int, int>> &edges);

    /** Number of vertices. */
    int size() const { return size_; }

    /** Number of undirected edges. */
    int numEdges() const;

    /** Add the undirected edge {u, v}. */
    void addEdge(int u, int v);

    /** Whether {u, v} is an edge. */
    bool
    hasEdge(int u, int v) const
    {
        return (adj_[u] >> v) & 1u;
    }

    /** Adjacency bitmask of @p v (bit i set iff {v, i} is an edge). */
    std::uint32_t adjacency(int v) const { return adj_[v]; }

    /** Degree of @p v within the pattern. */
    int degree(int v) const;

    /** Whether the pattern is connected (empty patterns are not). */
    bool connected() const;

    /** Whether vertex labels are attached. */
    bool labeled() const { return labeled_; }

    /** Label of @p v (0 when unlabeled). */
    Label label(int v) const { return labels_[v]; }

    /** Attach a label to @p v. */
    void setLabel(int v, Label label);

    /** Relabel vertices: result vertex perm[v] has v's edges/label. */
    Pattern permuted(const std::array<int, kMaxPatternSize> &perm) const;

    /** Human-readable form, e.g. "P4[0-1,1-2,2-3]". */
    std::string toString() const;

    bool operator==(const Pattern &other) const;

    /** @name Named constructors for common patterns. */
    /// @{
    static Pattern triangle() { return clique(3); }
    static Pattern clique(int k);
    static Pattern pathOf(int k);
    static Pattern cycleOf(int k);
    static Pattern starOf(int k);
    /** Triangle with a pendant edge (4 vertices). */
    static Pattern tailedTriangle();
    /** 4-cycle with one chord (the "diamond"). */
    static Pattern diamond();
    /** 4-cycle with a triangle on one edge (the "house", 5 vertices). */
    static Pattern house();
    /// @}

  private:
    int size_ = 0;
    bool labeled_ = false;
    std::array<std::uint32_t, kMaxPatternSize> adj_{};
    std::array<Label, kMaxPatternSize> labels_{};
};

} // namespace khuzdul

#endif // KHUZDUL_PATTERN_PATTERN_HH
