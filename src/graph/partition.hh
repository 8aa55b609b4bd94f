/**
 * @file
 * 1-D hash graph partitioning (paper §2.2).  The vertex set is
 * hash-partitioned over N machines; machine i stores every edge with
 * at least one endpoint it owns, i.e. it can serve the full edge
 * list N(v) of each owned vertex v.  For NUMA-aware execution
 * (§5.4) each node's partition is further split into one
 * sub-partition per socket; an (node, socket) pair is an
 * "execution unit".
 */

#ifndef KHUZDUL_GRAPH_PARTITION_HH
#define KHUZDUL_GRAPH_PARTITION_HH

#include <cstdint>
#include <vector>

#include "graph/graph.hh"
#include "support/types.hh"

namespace khuzdul
{

/**
 * Hash partition of a graph over numNodes() machines with
 * socketsPerNode() sub-partitions each.
 */
class Partition
{
  public:
    /**
     * @param g graph to partition (must outlive the partition).
     * @param num_nodes cluster size.
     * @param sockets_per_node NUMA sub-partitions per node (1 = NUMA
     *        support off).
     */
    Partition(const Graph &g, NodeId num_nodes,
              unsigned sockets_per_node = 1);

    const Graph &graph() const { return *graph_; }

    NodeId numNodes() const { return numNodes_; }
    unsigned socketsPerNode() const { return socketsPerNode_; }

    /** Total execution units = nodes x sockets. */
    unsigned numUnits() const { return numNodes_ * socketsPerNode_; }

    /** Execution unit owning vertex @p v: mix64(v) mod numUnits(),
     *  read from a table the constructor fills. */
    unsigned
    ownerUnit(VertexId v) const
    {
        return owner_[v];
    }

    /** Machine owning vertex @p v. */
    NodeId
    ownerNode(VertexId v) const
    {
        return ownerUnit(v) / socketsPerNode_;
    }

    /** Socket (within its node) owning vertex @p v. */
    unsigned
    ownerSocket(VertexId v) const
    {
        return ownerUnit(v) % socketsPerNode_;
    }

    /** Vertices owned by execution unit @p unit, ascending. */
    const std::vector<VertexId> &
    ownedVertices(unsigned unit) const
    {
        return owned_[unit];
    }

    /**
     * Bytes of graph data node @p node keeps resident: the edge
     * lists of owned vertices plus offset metadata.  Used for
     * memory-capacity checks and cache sizing.
     */
    std::uint64_t nodeResidentBytes(NodeId node) const;

    /** Number of vertices owned by node @p node. */
    VertexId nodeVertexCount(NodeId node) const;

  private:
    const Graph *graph_;
    NodeId numNodes_;
    unsigned socketsPerNode_;
    std::vector<unsigned> owner_; ///< per vertex
    std::vector<std::vector<VertexId>> owned_;
};

} // namespace khuzdul

#endif // KHUZDUL_GRAPH_PARTITION_HH
