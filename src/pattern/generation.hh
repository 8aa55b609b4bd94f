/**
 * @file
 * Pattern-set generation: all connected size-k patterns (the k-motif
 * census of k-MC) and labeled FSM candidate patterns bounded by edge
 * count, deduplicated by canonical code.
 */

#ifndef KHUZDUL_PATTERN_GENERATION_HH
#define KHUZDUL_PATTERN_GENERATION_HH

#include <vector>

#include "pattern/pattern.hh"
#include "support/types.hh"

namespace khuzdul
{
namespace gen
{

/**
 * All non-isomorphic connected unlabeled patterns with exactly
 * @p num_vertices vertices (e.g. 2 for k=3: wedge + triangle;
 * 6 for k=4).
 */
std::vector<Pattern> connectedPatterns(int num_vertices);

/** The largest edge count connectedPatternsUpToEdges accepts: six
 *  edges need 7-vertex patterns, which connectedPatterns does not
 *  enumerate. */
inline constexpr int kMaxUpToEdges = 5;

/**
 * All non-isomorphic connected unlabeled patterns with at most
 * @p max_edges edges (1..kMaxUpToEdges, else a FatalError) and any
 * vertex count that a connected graph with that many edges allows:
 * connectedPatterns(2..max_edges + 1) filtered by edge count.
 */
std::vector<Pattern> connectedPatternsUpToEdges(int max_edges);

/**
 * All non-isomorphic labelings of @p base with labels drawn from
 * [0, num_labels).
 */
std::vector<Pattern> labelings(const Pattern &base, Label num_labels);

} // namespace gen
} // namespace khuzdul

#endif // KHUZDUL_PATTERN_GENERATION_HH
