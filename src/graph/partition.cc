#include "graph/partition.hh"

#include "support/check.hh"
#include "support/rng.hh"

namespace khuzdul
{

Partition::Partition(const Graph &g, NodeId num_nodes,
                     unsigned sockets_per_node)
    : graph_(&g), numNodes_(num_nodes), socketsPerNode_(sockets_per_node)
{
    KHUZDUL_REQUIRE(num_nodes >= 1, "partition needs >= 1 node");
    KHUZDUL_REQUIRE(sockets_per_node >= 1,
                    "partition needs >= 1 socket per node");
    owner_.resize(g.numVertices());
    owned_.resize(numUnits());
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        owner_[v] = static_cast<unsigned>(mix64(v) % numUnits());
        owned_[owner_[v]].push_back(v);
    }
}

std::uint64_t
Partition::nodeResidentBytes(NodeId node) const
{
    std::uint64_t bytes = 0;
    for (unsigned s = 0; s < socketsPerNode_; ++s) {
        for (const VertexId v : owned_[node * socketsPerNode_ + s]) {
            bytes += graph_->edgeListBytes(v) + sizeof(EdgeId);
            // A machine also stores the remote endpoints of owned
            // edges (every edge with >= 1 owned endpoint); that is
            // already covered because each owned vertex's full edge
            // list is resident.
        }
    }
    return bytes;
}

VertexId
Partition::nodeVertexCount(NodeId node) const
{
    VertexId count = 0;
    for (unsigned s = 0; s < socketsPerNode_; ++s)
        count += static_cast<VertexId>(
            owned_[node * socketsPerNode_ + s].size());
    return count;
}

} // namespace khuzdul
