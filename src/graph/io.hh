/**
 * @file
 * Graph serialization: SNAP-style whitespace edge-list text and a
 * compact binary CSR format for fast reload.
 */

#ifndef KHUZDUL_GRAPH_IO_HH
#define KHUZDUL_GRAPH_IO_HH

#include <iosfwd>

#include "graph/graph.hh"

namespace khuzdul
{
namespace io
{

/**
 * Parse a whitespace-separated edge list ("u v" per line, '#' or '%'
 * comment lines ignored).  Vertex ids are as written; the vertex
 * count is 1 + max id.  Preprocessing (dedup, self-loop removal,
 * symmetrization) is applied.
 */
Graph readEdgeList(std::istream &in);

/** Write "u v" lines, one per undirected edge (u < v). */
void writeEdgeList(const Graph &g, std::ostream &out);

/** Write the binary CSR format. */
void writeBinary(const Graph &g, std::ostream &out);

/**
 * Read the binary CSR format written by writeBinary().  The stream
 * must be seekable.  Throws FatalError on a bad magic, a truncated
 * stream, a stored length past the end of the stream (checked before
 * allocating), or a CSR that breaks Graph's invariants.
 */
Graph readBinary(std::istream &in);

} // namespace io
} // namespace khuzdul

#endif // KHUZDUL_GRAPH_IO_HH
