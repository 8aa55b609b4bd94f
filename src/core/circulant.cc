#include "core/circulant.hh"

#include <algorithm>

namespace khuzdul
{
namespace core
{

CirculantScheduler::CirculantScheduler(unsigned unit,
                                       unsigned num_units,
                                       unsigned units_per_node)
    : unit_(unit), numUnits_(num_units), unitsPerNode_(units_per_node),
      node_(unit / units_per_node)
{}

void
CirculantScheduler::begin(std::uint32_t num_embeddings)
{
    slotOfEmbedding_.assign(num_embeddings, 0);
    batches_.assign(numUnits_, Batch{});
}

void
CirculantScheduler::noteRemote(std::uint32_t idx, unsigned owner,
                               std::uint64_t bytes)
{
    const unsigned slot = slotOf(owner);
    slotOfEmbedding_[idx] = static_cast<std::uint16_t>(slot);
    batches_[slot].bytes += bytes;
    batches_[slot].lists += 1;
}

bool
CirculantScheduler::issue(const sim::Fabric &fabric,
                          sim::NodeStats &stats,
                          sim::TrafficTally &tally,
                          sim::TraceSink &trace, int level,
                          sim::FaultSession *faults)
{
    for (unsigned slot = 1; slot < numUnits_; ++slot) {
        Batch &batch = batches_[slot];
        if (batch.lists == 0)
            continue;
        const unsigned owner = ownerOf(slot);
        const NodeId dst = owner / unitsPerNode_;
        const bool cross = dst != node_;
        unsigned attempt = 0;
        bool faulted_once = false;
        for (;;) {
            trace.emit({sim::PhaseEvent::FetchBatchIssued, unit_,
                        level, batch.bytes, batch.lists});
            const double base = fabric.modeledTransferNs(
                node_, dst, batch.bytes, batch.lists);
            // Every attempt moves bytes on the wire, so every
            // attempt is attributed — the tally (hence the merged
            // ledger and the owner's bytesSent) and the receiver's
            // volume counters agree whether the batch survived or
            // not.
            tally.add(owner, batch.bytes);
            if (cross) {
                stats.bytesReceived += batch.bytes;
                ++stats.messagesSent;
            }
            sim::FaultOutcome outcome;
            outcome.chargeNs = base;
            if (faults && cross)
                outcome = faults->onTransfer(node_, dst, base,
                                             sim::cost::timeoutNs);
            if (!outcome.faulted) {
                batch.commNs += outcome.chargeNs;
                batch.baseCommNs += base;
                if (outcome.degraded)
                    stats.recoveryNs += outcome.chargeNs - base;
                if (cross)
                    stats.listsFetchedRemote += batch.lists;
                trace.emit({sim::PhaseEvent::FetchBatchCompleted,
                            unit_, level, batch.bytes, batch.lists});
                if (faulted_once) {
                    ++stats.faultsRecovered;
                    trace.emit({sim::PhaseEvent::FetchRecovered,
                                unit_, level, batch.bytes, attempt});
                }
                break;
            }
            // The attempt failed: charge its cost, then either give
            // the chunk back to the caller for a replay or back off
            // (modeled, exponential) and retry.
            faulted_once = true;
            ++stats.faultsInjected;
            batch.commNs += outcome.chargeNs;
            stats.recoveryNs += outcome.chargeNs;
            trace.emit({sim::PhaseEvent::FaultInjected, unit_, level,
                        batch.bytes,
                        static_cast<std::uint64_t>(outcome.kind)});
            if (attempt >= faults->maxRetries())
                return false;
            ++attempt;
            ++stats.faultsRetried;
            const double backoff = sim::cost::retryBackoffNs
                * static_cast<double>(1ull << (attempt - 1));
            batch.commNs += backoff;
            stats.recoveryNs += backoff;
            faults->advance(backoff);
            trace.emit({sim::PhaseEvent::FetchRetry, unit_, level,
                        attempt,
                        static_cast<std::uint64_t>(outcome.kind)});
        }
    }
    return true;
}

CirculantScheduler::Timeline
CirculantScheduler::foldPipeline(unsigned cores, double penalty,
                                 double Batch::*comm_field) const
{
    // Computation of batch i overlaps the fetch of batch i+1;
    // fetches are issued eagerly in order.
    double comm_done = 0;
    double finish = 0;
    Timeline t;
    for (const Batch &batch : batches_) {
        // Without NUMA awareness, communication buffers and the
        // graph partition live in interleaved memory, slowing the
        // transfer path along with computation.
        const double comm = batch.*comm_field * penalty;
        comm_done += comm;
        t.commNs += comm;
        const double work = batch.workNs / cores * penalty;
        t.computeNs += work;
        finish = std::max(finish, comm_done) + work;
    }
    t.exposedNs = finish - t.computeNs;
    return t;
}

CirculantScheduler::Timeline
CirculantScheduler::pipeline(unsigned cores, double penalty) const
{
    return foldPipeline(cores, penalty, &Batch::commNs);
}

CirculantScheduler::Timeline
CirculantScheduler::basePipeline(unsigned cores, double penalty) const
{
    return foldPipeline(cores, penalty, &Batch::baseCommNs);
}

} // namespace core
} // namespace khuzdul
