/**
 * @file
 * The simulated interconnect.  In the paper, remote edge lists move
 * over MPI/InfiniBand; here the graph is immutable and shared, so a
 * "fetch" is a zero-copy read of the owner's partition plus an
 * accounting entry: the fabric tracks every (src, dst, bytes,
 * lists) transfer and converts batches to modeled transfer times
 * with the constants of sim/cost_model.hh.  This keeps engine logic
 * identical to a real deployment while making runs deterministic on
 * one host core.
 */

#ifndef KHUZDUL_SIM_FABRIC_HH
#define KHUZDUL_SIM_FABRIC_HH

#include <cstdint>
#include <span>
#include <vector>

#include "graph/partition.hh"
#include "sim/faults.hh"
#include "sim/stats.hh"
#include "support/types.hh"

namespace khuzdul
{
namespace sim
{

/**
 * One execution unit's fabric traffic of one run: the bytes and the
 * batch count (messages) of every fetch attempt, summed per owner
 * unit.  It is sized once from the partition, written only by its
 * unit while the units run, and folded into the ledger after the
 * barrier by Fabric::mergeTally.  Every quantity is an integer sum,
 * so neither the attempt order nor the merge order can change the
 * merged ledger.
 */
struct TrafficTally
{
    struct Owner
    {
        std::uint64_t bytes = 0;
        std::uint64_t batches = 0;
    };

    explicit TrafficTally(unsigned num_units) : owners(num_units) {}

    /** Account one batch of @p bytes fetched from unit @p owner. */
    void
    add(unsigned owner, std::uint64_t bytes)
    {
        owners[owner].bytes += bytes;
        ++owners[owner].batches;
    }

    std::vector<Owner> owners;
};

/** Per-link transfer ledger plus timing oracle. */
class Fabric
{
  public:
    explicit Fabric(const Partition &partition);

    const Partition &partition() const { return *partition_; }

    /**
     * Record one batched fetch of @p lists edge lists totalling
     * @p bytes from node @p dst to node @p src and return its
     * modeled duration.  Same-node transfers (cross-socket) use the
     * NUMA model.  The sequential post-barrier passes (migration
     * commits) write through here.
     */
    double recordTransfer(NodeId src, NodeId dst, std::uint64_t bytes,
                          std::uint64_t lists);

    /**
     * Pure timing oracle: the modeled duration recordTransfer()
     * would return for this transfer, without touching the ledger.
     * Depends only on the endpoints, the payload and the cost model,
     * so execution units price their attempts through it while they
     * run and leave the ledger to mergeTally().
     */
    double modeledTransferNs(NodeId src, NodeId dst,
                             std::uint64_t bytes,
                             std::uint64_t lists) const;

    /**
     * Fold unit @p unit's tally into the ledger: each owner's bytes
     * and batches go on link (unit's node, owner's node), same-node
     * owners on the diagonal, and cross-node bytes also onto the
     * owner's bytesSent in @p units.  The byte cap is checked after
     * every owner, so whether it fires depends on the run's total
     * alone, never on the merge order.
     */
    void mergeTally(unsigned unit, const TrafficTally &tally,
                    std::span<NodeStats> units);

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
    /** Add @p messages batches of @p bytes in total to link
     *  (@p src, @p dst) and check the byte cap. */
    void addTraffic(NodeId src, NodeId dst, std::uint64_t bytes,
                    std::uint64_t messages);

    std::size_t
    linkIndex(NodeId src, NodeId dst) const
    {
        return static_cast<std::size_t>(src) * partition_->numNodes()
            + dst;
    }

    const Partition *partition_;
    std::vector<std::uint64_t> bytes_;
    std::vector<std::uint64_t> messages_;
    std::uint64_t byteCap_ = 0;
    std::uint64_t crossNodeBytes_ = 0;
};

} // namespace sim
} // namespace khuzdul

#endif // KHUZDUL_SIM_FABRIC_HH
