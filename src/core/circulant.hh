/**
 * @file
 * Circulant batch scheduling (§4.3).  Remote resolutions of one
 * chunk are grouped into per-owner batches ordered by circulant
 * position — owner (unit + i) mod N is batch i — so that across the
 * cluster every unit fetches from a different peer at every step.
 * The scheduler owns the slot assignment, the per-batch comm/work
 * ledgers, the pricing and tallying of batch attempts, and the
 * pipelined timeline fold
 *
 *     makespan = comm(b0) + Σ max(compute(b_i), comm(b_{i+1}))
 *
 * in which batch i's computation overlaps batch i+1's transfer.
 * One instance serves one (execution unit, chunk level) pair.
 */

#ifndef KHUZDUL_CORE_CIRCULANT_HH
#define KHUZDUL_CORE_CIRCULANT_HH

#include <cstdint>
#include <vector>

#include "sim/cost_model.hh"
#include "sim/fabric.hh"
#include "sim/faults.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "support/types.hh"

namespace khuzdul
{
namespace core
{

/** Per-owner batch grouping and pipeline timeline of one chunk. */
class CirculantScheduler
{
  public:
    /** Aggregate modeled time of one chunk's pipeline fold. */
    struct Timeline
    {
        double computeNs = 0;  ///< per-core extension work
        double commNs = 0;     ///< all transfer time (incl. hidden)
        double exposedNs = 0;  ///< transfer time not overlapped
    };

    CirculantScheduler(unsigned unit, unsigned num_units,
                       unsigned units_per_node);

    /** Circulant position of @p owner relative to this unit. */
    unsigned
    slotOf(unsigned owner) const
    {
        return (owner + numUnits_ - unit_) % numUnits_;
    }

    /** Owner unit fetched at circulant position @p slot. */
    unsigned
    ownerOf(unsigned slot) const
    {
        return (unit_ + slot) % numUnits_;
    }

    /** Start a chunk of @p num_embeddings (clears all ledgers). */
    void begin(std::uint32_t num_embeddings);

    /** Modeled dispatch cost of splitting @p num_embeddings into
     *  dynamically scheduled mini-batches over @p cores (§6). */
    static double
    dispatchOverheadNs(std::uint32_t num_embeddings,
                       unsigned mini_batch_size, unsigned cores)
    {
        const auto mini_batches =
            (num_embeddings + mini_batch_size - 1) / mini_batch_size;
        return static_cast<double>(mini_batches)
            * sim::cost::miniBatchDispatchNs / cores;
    }

    /** Embedding @p idx rides owner @p owner's batch without adding
     *  payload (horizontally shared fetch, §5.2). */
    void
    noteShared(std::uint32_t idx, unsigned owner)
    {
        slotOfEmbedding_[idx] =
            static_cast<std::uint16_t>(slotOf(owner));
    }

    /** Embedding @p idx adds a @p bytes list to @p owner's batch. */
    void noteRemote(std::uint32_t idx, unsigned owner,
                    std::uint64_t bytes);

    /**
     * Issue every non-empty batch in circulant order: price each
     * attempt through the fabric's pure timing oracle, count it on
     * the owner's slot of @p tally, attribute it to the receiving
     * unit's @p stats, and emit fetch-batch trace events.  Nothing
     * else is written, so issue() runs from one execution unit
     * without touching another unit's state or the shared ledger
     * (the host-parallel contract, §6); Fabric::mergeTally folds
     * the tally in after the barrier.
     *
     * When @p faults is non-null (engine runs with a fault plan),
     * every cross-node batch is a retry loop: a faulted attempt is
     * charged (drop = the wasted transfer, timeout/node-down =
     * sim::cost::timeoutNs), backed off exponentially
     * (modeled, charged into the batch), and re-attempted up to
     * FaultPlan::maxRetries times.  Every attempt moves bytes, so
     * every attempt is tallied.
     *
     * @return false when a batch exhausted its retry budget — the
     *         caller must replay the chunk (§9); already-charged
     *         attempt time stays in the batch ledgers for the
     *         caller to fold as wasted communication.
     */
    bool issue(const sim::Fabric &fabric, sim::NodeStats &stats,
               sim::TrafficTally &tally, sim::TraceSink &trace,
               int level, sim::FaultSession *faults = nullptr);

    /** Attribute @p work_ns of extension work to @p idx's batch. */
    void
    chargeWork(std::uint32_t idx, double work_ns)
    {
        batches_[slotOfEmbedding_[idx]].workNs += work_ns;
    }

    /**
     * Fold the batch ledgers through the pipeline: fetches are
     * issued eagerly in slot order and batch i's computation
     * (divided over @p cores, scaled by the NUMA @p penalty along
     * with the transfer path) overlaps batch i+1's transfer.
     */
    Timeline pipeline(unsigned cores, double penalty) const;

    /**
     * Same fold over the fault-free transfer prices: what this
     * chunk would have cost had no attempt faulted or been
     * degraded.  This is the donate/accept ledger the steal planner
     * (DESIGN.md §11) prices a migrated chunk with — a healthy
     * thief re-fetches the lists at clean prices, it does not
     * inherit the victim's fault history.
     */
    Timeline basePipeline(unsigned cores, double penalty) const;

  private:
    /** Transient per-owner batch ledger. */
    struct Batch
    {
        double commNs = 0;  ///< modeled transfer time of this batch
        /** Fault-free price of the batch: the clean transfer cost of
         *  the successful attempt only (no retries, no backoff, no
         *  degradation surcharge). */
        double baseCommNs = 0;
        double workNs = 0;  ///< raw single-core extension work
        std::uint64_t bytes = 0;
        std::uint64_t lists = 0;
    };

    Timeline foldPipeline(unsigned cores, double penalty,
                          double Batch::*comm_field) const;

    unsigned unit_;
    unsigned numUnits_;
    unsigned unitsPerNode_;
    NodeId node_;

    std::vector<Batch> batches_;
    std::vector<std::uint16_t> slotOfEmbedding_;
};

} // namespace core
} // namespace khuzdul

#endif // KHUZDUL_CORE_CIRCULANT_HH
