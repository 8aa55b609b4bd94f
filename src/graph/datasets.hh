/**
 * @file
 * Registry of named stand-in datasets.  The paper evaluates on
 * SNAP/WebGraph graphs (Table 1) that are not available offline, so
 * each is replaced by a deterministic synthetic graph whose
 * degree-distribution *shape* (skewed power law vs. light-tailed)
 * matches — scaled down ~1000x so a single-core run completes.  The
 * per-dataset substitution is part of DESIGN.md §2.
 */

#ifndef KHUZDUL_GRAPH_DATASETS_HH
#define KHUZDUL_GRAPH_DATASETS_HH

#include <string>

#include "graph/graph.hh"

namespace khuzdul
{
namespace datasets
{

/** A generated stand-in plus the paper's reference statistics. */
struct Dataset
{
    /** Paper abbreviation, e.g. "lj". */
    std::string abbr;
    /** Full paper name, e.g. "LiveJournal". */
    std::string name;
    /** How the stand-in is generated. */
    std::string recipe;
    /** |V| of the paper's original dataset. */
    std::uint64_t paperVertices;
    /** |E| of the paper's original dataset. */
    std::uint64_t paperEdges;
    /** The generated stand-in graph. */
    Graph graph;
};

/**
 * Fetch (generating and memoizing on first use) the stand-in for the
 * paper abbreviation @p abbr.  Known: mc, pt, lj, uk, tw, fr, cl,
 * uk14, wdc, skitter, orkut.  Throws FatalError for unknown names.
 */
const Dataset &byName(const std::string &abbr);

} // namespace datasets
} // namespace khuzdul

#endif // KHUZDUL_GRAPH_DATASETS_HH
