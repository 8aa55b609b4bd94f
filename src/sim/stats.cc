#include "sim/stats.hh"

#include <algorithm>
#include <sstream>

#include "sim/cost_model.hh"
#include "support/format.hh"

namespace khuzdul
{
namespace sim
{

double
RunStats::makespanNs() const
{
    double slowest = 0;
    for (const NodeStats &node : nodes)
        slowest = std::max(slowest, node.totalNs());
    return slowest + startupNs;
}

std::uint64_t
RunStats::totalBytesSent() const
{
    std::uint64_t total = 0;
    for (const NodeStats &node : nodes)
        total += node.bytesSent;
    return total;
}

std::uint64_t
RunStats::totalMessages() const
{
    std::uint64_t total = 0;
    for (const NodeStats &node : nodes)
        total += node.messagesSent;
    return total;
}

double
RunStats::totalComputeNs() const
{
    double total = 0;
    for (const NodeStats &node : nodes)
        total += node.computeNs;
    return total;
}

double
RunStats::totalCommExposedNs() const
{
    double total = 0;
    for (const NodeStats &node : nodes)
        total += node.commExposedNs;
    return total;
}

double
RunStats::totalCommTotalNs() const
{
    double total = 0;
    for (const NodeStats &node : nodes)
        total += node.commTotalNs;
    return total;
}

double
RunStats::totalSchedulerNs() const
{
    double total = 0;
    for (const NodeStats &node : nodes)
        total += node.schedulerNs;
    return total;
}

double
RunStats::totalCacheNs() const
{
    double total = 0;
    for (const NodeStats &node : nodes)
        total += node.cacheNs;
    return total;
}

std::uint64_t
RunStats::totalEmbeddings() const
{
    std::uint64_t total = 0;
    for (const NodeStats &node : nodes)
        total += node.embeddingsCreated;
    return total;
}

std::uint64_t
RunStats::totalFaultsInjected() const
{
    std::uint64_t total = 0;
    for (const NodeStats &node : nodes)
        total += node.faultsInjected;
    return total;
}

std::uint64_t
RunStats::totalFaultsRecovered() const
{
    std::uint64_t total = 0;
    for (const NodeStats &node : nodes)
        total += node.faultsRecovered;
    return total;
}

std::uint64_t
RunStats::totalChunksReplayed() const
{
    std::uint64_t total = 0;
    for (const NodeStats &node : nodes)
        total += node.chunksReplayed;
    return total;
}

double
RunStats::totalRecoveryNs() const
{
    double total = 0;
    for (const NodeStats &node : nodes)
        total += node.recoveryNs;
    return total;
}

std::uint64_t
RunStats::totalChunksStolen() const
{
    std::uint64_t total = 0;
    for (const NodeStats &node : nodes)
        total += node.chunksStolen;
    return total;
}

std::uint64_t
RunStats::totalStealBytes() const
{
    std::uint64_t total = 0;
    for (const NodeStats &node : nodes)
        total += node.stealBytesIn;
    return total;
}

double
RunStats::totalStealOverheadNs() const
{
    double total = 0;
    for (const NodeStats &node : nodes)
        total += node.stealOverheadNs;
    return total;
}

std::uint64_t
RunStats::totalCheckpoints() const
{
    std::uint64_t total = 0;
    for (const NodeStats &node : nodes)
        total += node.checkpointsTaken;
    return total;
}

std::uint64_t
RunStats::totalUnitCrashes() const
{
    std::uint64_t total = 0;
    for (const NodeStats &node : nodes)
        total += node.unitCrashes;
    return total;
}

std::uint64_t
RunStats::totalChunksAdopted() const
{
    std::uint64_t total = 0;
    for (const NodeStats &node : nodes)
        total += node.chunksAdopted;
    return total;
}

double
RunStats::totalCheckpointOverheadNs() const
{
    double total = 0;
    for (const NodeStats &node : nodes)
        total += node.checkpointOverheadNs;
    return total;
}

double
RunStats::totalAdoptionNs() const
{
    double total = 0;
    for (const NodeStats &node : nodes)
        total += node.adoptionNs;
    return total;
}

double
RunStats::staticCacheHitRate() const
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    for (const NodeStats &node : nodes) {
        hits += node.staticCacheHits;
        misses += node.staticCacheMisses;
    }
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits)
                          / static_cast<double>(total);
}

double
RunStats::networkUtilization() const
{
    const double makespan = makespanNs();
    if (makespan <= 0 || nodes.empty())
        return 0.0;
    // Each node has a full-duplex link; utilization is measured on
    // the send side like the paper's per-node NIC counters.
    double busiest = 0;
    for (const NodeStats &node : nodes) {
        const double util = static_cast<double>(node.bytesSent)
            / (cost::netBytesPerNs * makespan);
        busiest = std::max(busiest, util);
    }
    return std::min(1.0, busiest);
}

void
RunStats::accumulate(const RunStats &other)
{
    if (nodes.size() < other.nodes.size())
        nodes.resize(other.nodes.size());
    for (std::size_t i = 0; i < other.nodes.size(); ++i) {
        NodeStats &dst = nodes[i];
        const NodeStats &src = other.nodes[i];
        dst.computeNs += src.computeNs;
        dst.commExposedNs += src.commExposedNs;
        dst.commTotalNs += src.commTotalNs;
        dst.schedulerNs += src.schedulerNs;
        dst.cacheNs += src.cacheNs;
        dst.bytesSent += src.bytesSent;
        dst.bytesReceived += src.bytesReceived;
        dst.messagesSent += src.messagesSent;
        dst.listsFetchedRemote += src.listsFetchedRemote;
        dst.listsServedLocal += src.listsServedLocal;
        dst.faultsInjected += src.faultsInjected;
        dst.faultsRetried += src.faultsRetried;
        dst.faultsRecovered += src.faultsRecovered;
        dst.chunksReplayed += src.chunksReplayed;
        dst.reroutedFetches += src.reroutedFetches;
        dst.reconstructedLists += src.reconstructedLists;
        dst.recoveryNs += src.recoveryNs;
        dst.chunksStolen += src.chunksStolen;
        dst.chunksDonated += src.chunksDonated;
        dst.stealBytesIn += src.stealBytesIn;
        dst.stealBytesOut += src.stealBytesOut;
        dst.stealOverheadNs += src.stealOverheadNs;
        dst.checkpointsTaken += src.checkpointsTaken;
        dst.unitCrashes += src.unitCrashes;
        dst.chunksAdopted += src.chunksAdopted;
        dst.chunksOrphaned += src.chunksOrphaned;
        dst.adoptionBytesIn += src.adoptionBytesIn;
        dst.adoptionBytesOut += src.adoptionBytesOut;
        dst.checkpointOverheadNs += src.checkpointOverheadNs;
        dst.adoptionNs += src.adoptionNs;
        dst.staticCacheHits += src.staticCacheHits;
        dst.staticCacheMisses += src.staticCacheMisses;
        dst.staticCacheInsertions += src.staticCacheInsertions;
        dst.horizontalHits += src.horizontalHits;
        dst.horizontalDrops += src.horizontalDrops;
        dst.verticalReuses += src.verticalReuses;
        dst.embeddingsCreated += src.embeddingsCreated;
        dst.intersectionItems += src.intersectionItems;
        dst.chunksProcessed += src.chunksProcessed;
        dst.peakChunkBytes = std::max(dst.peakChunkBytes,
                                      src.peakChunkBytes);
        for (std::size_t k = 0; k < dst.kernelCalls.size(); ++k)
            dst.kernelCalls[k] += src.kernelCalls[k];
    }
    startupNs += other.startupNs;
    queryRetries += other.queryRetries;
    hostThreads = std::max(hostThreads, other.hostThreads);
    hostWallNs += other.hostWallNs;
    sharedCacheProbes += other.sharedCacheProbes;
    sharedCacheHits += other.sharedCacheHits;
    candidateMemoLookups += other.candidateMemoLookups;
    candidateMemoHits += other.candidateMemoHits;
    traceBufferPeak = std::max(traceBufferPeak, other.traceBufferPeak);
}

std::string
RunStats::toJson(bool include_host) const
{
    // Index order follows core::KernelKind.
    static const char *const kKernelNames[] = {
        "merge", "blocked", "gallop",
        "bitmap", "simd_merge", "simd_gallop"};
    std::array<std::uint64_t, 6> kernel_totals{};
    for (const NodeStats &node : nodes)
        for (std::size_t k = 0; k < kernel_totals.size(); ++k)
            kernel_totals[k] += node.kernelCalls[k];

    std::ostringstream os;
    os.precision(15);
    os << "{\n"
       << "  \"makespan_ns\": " << makespanNs() << ",\n"
       << "  \"startup_ns\": " << startupNs << ",\n"
       << "  \"compute_ns\": " << totalComputeNs() << ",\n"
       << "  \"comm_exposed_ns\": " << totalCommExposedNs() << ",\n"
       << "  \"comm_total_ns\": " << totalCommTotalNs() << ",\n"
       << "  \"scheduler_ns\": " << totalSchedulerNs() << ",\n"
       << "  \"cache_ns\": " << totalCacheNs() << ",\n"
       << "  \"bytes_sent\": " << totalBytesSent() << ",\n"
       << "  \"messages\": " << totalMessages() << ",\n"
       << "  \"embeddings\": " << totalEmbeddings() << ",\n"
       << "  \"static_cache_hit_rate\": " << staticCacheHitRate()
       << ",\n";
    if (include_host) {
        // Which kernel executed each set operation depends on the
        // host (SIMD availability, CPU features), so the per-kind
        // split lives with the host-only facts: the modeled dump
        // stays bit-identical across --kernel modes and builds.
        os << "  \"kernel_calls\": {";
        for (std::size_t k = 0; k < kernel_totals.size(); ++k)
            os << (k == 0 ? "" : ", ") << "\"" << kKernelNames[k]
               << "\": " << kernel_totals[k];
        os << "},\n";
    }
    std::uint64_t faults_retried = 0;
    std::uint64_t faults_rerouted = 0;
    std::uint64_t faults_reconstructed = 0;
    for (const NodeStats &node : nodes) {
        faults_retried += node.faultsRetried;
        faults_rerouted += node.reroutedFetches;
        faults_reconstructed += node.reconstructedLists;
    }
    os << "  \"faults\": {\"injected\": " << totalFaultsInjected()
       << ", \"retried\": " << faults_retried
       << ", \"recovered\": " << totalFaultsRecovered()
       << ", \"chunks_replayed\": " << totalChunksReplayed()
       << ", \"rerouted\": " << faults_rerouted
       << ", \"reconstructed\": " << faults_reconstructed
       << ", \"recovery_ns\": " << totalRecoveryNs() << "},\n";
    std::uint64_t chunks_donated = 0;
    for (const NodeStats &node : nodes)
        chunks_donated += node.chunksDonated;
    os << "  \"steals\": {\"stolen\": " << totalChunksStolen()
       << ", \"donated\": " << chunks_donated
       << ", \"bytes\": " << totalStealBytes()
       << ", \"overhead_ns\": " << totalStealOverheadNs() << "},\n";
    std::uint64_t chunks_orphaned = 0;
    std::uint64_t adoption_bytes = 0;
    for (const NodeStats &node : nodes) {
        chunks_orphaned += node.chunksOrphaned;
        adoption_bytes += node.adoptionBytesIn;
    }
    os << "  \"recovery\": {\"checkpoints\": " << totalCheckpoints()
       << ", \"crashes\": " << totalUnitCrashes()
       << ", \"adopted\": " << totalChunksAdopted()
       << ", \"orphaned\": " << chunks_orphaned
       << ", \"adoption_bytes\": " << adoption_bytes
       << ", \"checkpoint_ns\": " << totalCheckpointOverheadNs()
       << ", \"adoption_ns\": " << totalAdoptionNs()
       << ", \"query_retries\": " << queryRetries << "},\n";
    if (include_host && hostThreads > 0) {
        os << "  \"host\": {\"threads\": " << hostThreads
           << ", \"wall_ns\": " << hostWallNs
           << ", \"trace_buffer_peak\": " << traceBufferPeak;
        if (sharedCacheProbes > 0)
            os << ", \"shared_cache_probes\": " << sharedCacheProbes
               << ", \"shared_cache_hits\": " << sharedCacheHits;
        if (candidateMemoLookups > 0)
            os << ", \"candidate_memo_lookups\": " << candidateMemoLookups
               << ", \"candidate_memo_hits\": " << candidateMemoHits;
        os << "},\n";
    }
    os << "  \"nodes\": [";
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const NodeStats &n = nodes[i];
        os << (i == 0 ? "\n" : ",\n")
           << "    {\"compute_ns\": " << n.computeNs
           << ", \"comm_exposed_ns\": " << n.commExposedNs
           << ", \"comm_total_ns\": " << n.commTotalNs
           << ", \"scheduler_ns\": " << n.schedulerNs
           << ", \"cache_ns\": " << n.cacheNs
           << ", \"bytes_sent\": " << n.bytesSent
           << ", \"bytes_received\": " << n.bytesReceived
           << ", \"messages_sent\": " << n.messagesSent
           << ", \"lists_fetched_remote\": " << n.listsFetchedRemote
           << ", \"lists_served_local\": " << n.listsServedLocal
           << ", \"static_cache_hits\": " << n.staticCacheHits
           << ", \"static_cache_misses\": " << n.staticCacheMisses
           << ", \"static_cache_insertions\": "
           << n.staticCacheInsertions
           << ", \"horizontal_hits\": " << n.horizontalHits
           << ", \"horizontal_drops\": " << n.horizontalDrops
           << ", \"vertical_reuses\": " << n.verticalReuses
           << ", \"embeddings_created\": " << n.embeddingsCreated
           << ", \"intersection_items\": " << n.intersectionItems
           << ", \"chunks_processed\": " << n.chunksProcessed
           << ", \"peak_chunk_bytes\": " << n.peakChunkBytes
           << ", \"faults_injected\": " << n.faultsInjected
           << ", \"faults_retried\": " << n.faultsRetried
           << ", \"faults_recovered\": " << n.faultsRecovered
           << ", \"chunks_replayed\": " << n.chunksReplayed
           << ", \"rerouted\": " << n.reroutedFetches
           << ", \"reconstructed\": " << n.reconstructedLists
           << ", \"recovery_ns\": " << n.recoveryNs
           << ", \"chunks_stolen\": " << n.chunksStolen
           << ", \"chunks_donated\": " << n.chunksDonated
           << ", \"steal_bytes_in\": " << n.stealBytesIn
           << ", \"steal_bytes_out\": " << n.stealBytesOut
           << ", \"steal_overhead_ns\": " << n.stealOverheadNs
           << ", \"checkpoints\": " << n.checkpointsTaken
           << ", \"unit_crashes\": " << n.unitCrashes
           << ", \"chunks_adopted\": " << n.chunksAdopted
           << ", \"chunks_orphaned\": " << n.chunksOrphaned
           << ", \"adoption_bytes_in\": " << n.adoptionBytesIn
           << ", \"adoption_bytes_out\": " << n.adoptionBytesOut
           << ", \"checkpoint_ns\": " << n.checkpointOverheadNs
           << ", \"adoption_ns\": " << n.adoptionNs;
        if (include_host) {
            os << ", \"kernel_calls\": [";
            for (std::size_t k = 0; k < n.kernelCalls.size(); ++k)
                os << (k == 0 ? "" : ", ") << n.kernelCalls[k];
            os << "]";
        }
        os << "}";
    }
    os << "\n  ]\n}\n";
    return os.str();
}

std::string
RunStats::summary() const
{
    std::ostringstream os;
    os << "makespan " << formatTime(static_cast<std::uint64_t>(makespanNs()))
       << ", traffic " << formatBytes(totalBytesSent())
       << " in " << formatCount(totalMessages()) << " messages\n";
    os << "compute " << formatTime(static_cast<std::uint64_t>(
            totalComputeNs()))
       << ", exposed comm " << formatTime(static_cast<std::uint64_t>(
            totalCommExposedNs()))
       << ", scheduler " << formatTime(static_cast<std::uint64_t>(
            totalSchedulerNs()))
       << ", cache " << formatTime(static_cast<std::uint64_t>(
            totalCacheNs())) << "\n";
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    for (const NodeStats &node : nodes) {
        hits += node.staticCacheHits;
        misses += node.staticCacheMisses;
    }
    if (hits + misses > 0)
        os << "static cache hit rate "
           << formatPercent(staticCacheHitRate()) << "\n";
    if (totalChunksStolen() > 0)
        os << "steals " << formatCount(totalChunksStolen())
           << " chunks, " << formatBytes(totalStealBytes())
           << " moved, overhead "
           << formatTime(static_cast<std::uint64_t>(
                totalStealOverheadNs())) << "\n";
    if (totalUnitCrashes() > 0)
        os << "crashes " << formatCount(totalUnitCrashes())
           << " units, " << formatCount(totalChunksAdopted())
           << " chunks adopted, overhead "
           << formatTime(static_cast<std::uint64_t>(
                totalAdoptionNs())) << "\n";
    return os.str();
}

} // namespace sim
} // namespace khuzdul
