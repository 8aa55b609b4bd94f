#include "sim/fabric.hh"

#include "sim/cost_model.hh"
#include "support/check.hh"

namespace khuzdul
{
namespace sim
{

Fabric::Fabric(const Partition &partition) : partition_(&partition)
{
    const std::size_t links = static_cast<std::size_t>(
        partition.numNodes()) * partition.numNodes();
    bytes_.assign(links, 0);
    messages_.assign(links, 0);
}

void
Fabric::addTraffic(NodeId src, NodeId dst, std::uint64_t bytes,
                   std::uint64_t messages)
{
    bytes_[linkIndex(src, dst)] += bytes;
    messages_[linkIndex(src, dst)] += messages;
    if (src == dst)
        return;
    crossNodeBytes_ += bytes;
    if (byteCap_ != 0 && crossNodeBytes_ > byteCap_)
        throw ByteCapExceededFault(
            "fabric byte cap exceeded: "
            + std::to_string(crossNodeBytes_) + " > "
            + std::to_string(byteCap_));
}

double
Fabric::recordTransfer(NodeId src, NodeId dst, std::uint64_t bytes,
                       std::uint64_t lists)
{
    addTraffic(src, dst, bytes, 1);
    return modeledTransferNs(src, dst, bytes, lists);
}

double
Fabric::modeledTransferNs(NodeId src, NodeId dst, std::uint64_t bytes,
                          std::uint64_t lists) const
{
    return src == dst ? cost::numaTransferNs(bytes, lists)
                      : cost::transferNs(bytes, lists);
}

void
Fabric::mergeTally(unsigned unit, const TrafficTally &tally,
                   std::span<NodeStats> units)
{
    KHUZDUL_CHECK(tally.owners.size() == partition_->numUnits()
                      && units.size() == partition_->numUnits(),
                  "traffic tally sized for a different partition");
    const unsigned per_node = partition_->socketsPerNode();
    const NodeId src = unit / per_node;
    for (unsigned owner = 0; owner < tally.owners.size(); ++owner) {
        const TrafficTally::Owner &sent = tally.owners[owner];
        if (sent.batches == 0)
            continue;
        const NodeId dst = owner / per_node;
        if (src != dst)
            units[owner].bytesSent += sent.bytes;
        addTraffic(src, dst, sent.bytes, sent.batches);
    }
}

std::uint64_t
Fabric::linkBytes(NodeId src, NodeId dst) const
{
    return bytes_[linkIndex(src, dst)];
}

std::uint64_t
Fabric::linkMessages(NodeId src, NodeId dst) const
{
    return messages_[linkIndex(src, dst)];
}

std::uint64_t
Fabric::totalBytes() const
{
    return crossNodeBytes_;
}

void
Fabric::reset()
{
    bytes_.assign(bytes_.size(), 0);
    messages_.assign(messages_.size(), 0);
    crossNodeBytes_ = 0;
}

} // namespace sim
} // namespace khuzdul
