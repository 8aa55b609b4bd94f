#include "sim/fabric.hh"

#include "support/check.hh"

namespace khuzdul
{
namespace sim
{

Fabric::Fabric(const Partition &partition, const CostModel &cost)
    : partition_(&partition), cost_(&cost)
{
    const std::size_t links = static_cast<std::size_t>(
        partition.numNodes()) * partition.numNodes();
    bytes_.assign(links, 0);
    messages_.assign(links, 0);
}

double
Fabric::recordTransfer(NodeId src, NodeId dst, std::uint64_t bytes,
                       std::uint64_t lists)
{
    bytes_[linkIndex(src, dst)] += bytes;
    messages_[linkIndex(src, dst)] += 1;
    if (src == dst)
        return cost_->numaTransferNs(bytes, lists);
    crossNodeBytes_ += bytes;
    if (byteCap_ != 0 && crossNodeBytes_ > byteCap_)
        throw ByteCapExceededFault(
            "fabric byte cap exceeded: "
            + std::to_string(crossNodeBytes_) + " > "
            + std::to_string(byteCap_));
    return cost_->transferNs(bytes, lists);
}

double
Fabric::modeledTransferNs(NodeId src, NodeId dst, std::uint64_t bytes,
                          std::uint64_t lists) const
{
    return src == dst ? cost_->numaTransferNs(bytes, lists)
                      : cost_->transferNs(bytes, lists);
}

void
Fabric::apply(FabricDelta &delta)
{
    KHUZDUL_CHECK(delta.base_ == this,
                  "delta journalled against a different fabric");
    for (const FabricDelta::Entry &e : delta.entries_)
        recordTransfer(e.src, e.dst, e.bytes, e.lists);
    delta.clear();
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
