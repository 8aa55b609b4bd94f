/**
 * @file
 * The simulated interconnect.  In the paper, remote edge lists move
 * over MPI/InfiniBand; here the graph is immutable and shared, so a
 * "fetch" is a zero-copy read of the owner's partition plus an
 * accounting entry: the fabric tracks every (src, dst, bytes,
 * lists) transfer and converts batches to modeled transfer times
 * via the CostModel.  This keeps engine logic identical to a real
 * deployment while making runs deterministic on one host core.
 */

#ifndef KHUZDUL_SIM_FABRIC_HH
#define KHUZDUL_SIM_FABRIC_HH

#include <cstdint>
#include <span>
#include <vector>

#include "graph/partition.hh"
#include "sim/cost_model.hh"
#include "sim/faults.hh"
#include "support/types.hh"

namespace khuzdul
{
namespace sim
{

class FabricDelta;

/**
 * Anything that can account for one batched fetch and price it.
 * Two implementations ship: the Fabric itself (direct ledger
 * update, the sequential path) and FabricDelta (a private per-unit
 * journal merged into the Fabric after a parallel run's barrier).
 * The modeled duration is a pure function of the endpoints and
 * payload — never of ledger state — so both return bit-identical
 * times for the same transfer.
 */
class TransferRecorder
{
  public:
    virtual ~TransferRecorder() = default;

    /** Account a batched fetch of @p lists edge lists totalling
     *  @p bytes from node @p dst to node @p src; return its modeled
     *  duration. */
    virtual double recordTransfer(NodeId src, NodeId dst,
                                  std::uint64_t bytes,
                                  std::uint64_t lists) = 0;
};

/** Per-link transfer ledger plus timing oracle. */
class Fabric : public TransferRecorder
{
  public:
    Fabric(const Partition &partition, const CostModel &cost);

    const Partition &partition() const { return *partition_; }
    const CostModel &cost() const { return *cost_; }

    /** Zero-copy read of N(v) (the owner's resident copy). */
    std::span<const VertexId>
    edgeList(VertexId v) const
    {
        return partition_->graph().neighbors(v);
    }

    /** Payload bytes of N(v) on the wire. */
    std::uint64_t
    edgeListBytes(VertexId v) const
    {
        return partition_->graph().edgeListBytes(v);
    }

    /**
     * Record one batched fetch of @p lists edge lists totalling
     * @p bytes from node @p dst to node @p src and return its
     * modeled duration.  Same-node transfers (cross-socket) use the
     * NUMA model.
     */
    double recordTransfer(NodeId src, NodeId dst, std::uint64_t bytes,
                          std::uint64_t lists) override;

    /**
     * Pure timing oracle: the modeled duration recordTransfer()
     * would return for this transfer, without touching the ledger.
     * Depends only on the endpoints, the payload and the cost model,
     * which is what makes per-unit delta journals exact.
     */
    double modeledTransferNs(NodeId src, NodeId dst,
                             std::uint64_t bytes,
                             std::uint64_t lists) const;

    /**
     * Replay a per-unit journal into the ledger and clear it.
     * Entries apply in their recorded order, so merging every
     * unit's delta in unit order reproduces the sequential ledger
     * byte for byte — including where the byte-cap fault fires.
     */
    void apply(FabricDelta &delta);

    /** Bytes moved from @p dst to @p src so far. */
    std::uint64_t linkBytes(NodeId src, NodeId dst) const;

    /** Messages (batches) from @p dst to @p src so far. */
    std::uint64_t linkMessages(NodeId src, NodeId dst) const;

    /** Total bytes over all links (excluding same-node traffic). */
    std::uint64_t totalBytes() const;

    /**
     * Failure injection for tests: throw ByteCapExceededFault once
     * more than @p cap bytes have crossed the network (0 disables).
     */
    void setByteCap(std::uint64_t cap) { byteCap_ = cap; }

    /** Reset the ledger (e.g. between patterns of a census). */
    void reset();

  private:
    std::size_t
    linkIndex(NodeId src, NodeId dst) const
    {
        return static_cast<std::size_t>(src) * partition_->numNodes()
            + dst;
    }

    const Partition *partition_;
    const CostModel *cost_;
    std::vector<std::uint64_t> bytes_;
    std::vector<std::uint64_t> messages_;
    std::uint64_t byteCap_ = 0;
    std::uint64_t crossNodeBytes_ = 0;
};

/**
 * A private transfer journal for one execution unit: records the
 * same (src, dst, bytes, lists) entries a Fabric would, and prices
 * them through the base fabric's pure timing oracle, but defers
 * every ledger mutation until Fabric::apply() replays the journal.
 * This is what lets units run on concurrent host threads without
 * sharing a single mutable ledger, while keeping the merged state
 * bit-identical to a sequential run.
 */
class FabricDelta final : public TransferRecorder
{
  public:
    explicit FabricDelta(const Fabric &base) : base_(&base) {}

    double
    recordTransfer(NodeId src, NodeId dst, std::uint64_t bytes,
                   std::uint64_t lists) override
    {
        entries_.push_back({src, dst, bytes, lists});
        return base_->modeledTransferNs(src, dst, bytes, lists);
    }

    /** Journalled transfers not yet merged. */
    std::size_t size() const { return entries_.size(); }

    bool empty() const { return entries_.empty(); }

    void clear() { entries_.clear(); }

  private:
    friend class Fabric;

    struct Entry
    {
        NodeId src;
        NodeId dst;
        std::uint64_t bytes;
        std::uint64_t lists;
    };

    const Fabric *base_;
    std::vector<Entry> entries_;
};

} // namespace sim
} // namespace khuzdul

#endif // KHUZDUL_SIM_FABRIC_HH
