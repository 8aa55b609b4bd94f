/**
 * @file
 * Execution statistics for simulated runs: per-node modeled time
 * split into the categories of the paper's Figure 15 (compute,
 * network, scheduler, cache), a per-link traffic matrix, and cache
 * counters.  Every bench table/figure is printed from these.
 */

#ifndef KHUZDUL_SIM_STATS_HH
#define KHUZDUL_SIM_STATS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "support/types.hh"

namespace khuzdul
{
namespace sim
{

/** Counters and modeled time for one simulated node. */
struct NodeStats
{
    /** @name Modeled time (ns) */
    /// @{
    double computeNs = 0;       ///< embedding extension work
    double commExposedNs = 0;   ///< communication on the critical path
    double commTotalNs = 0;     ///< all communication (incl. hidden)
    double schedulerNs = 0;     ///< chunk/mini-batch/task scheduling
    double cacheNs = 0;         ///< software-cache maintenance
    /// @}

    /** @name Communication volume */
    /// @{
    std::uint64_t bytesSent = 0;
    std::uint64_t bytesReceived = 0;
    std::uint64_t messagesSent = 0;
    std::uint64_t listsFetchedRemote = 0;
    std::uint64_t listsServedLocal = 0;
    /// @}

    /** @name Data-reuse counters */
    /// @{
    std::uint64_t staticCacheHits = 0;
    std::uint64_t staticCacheMisses = 0;
    std::uint64_t staticCacheInsertions = 0;
    std::uint64_t horizontalHits = 0;
    std::uint64_t horizontalDrops = 0;
    std::uint64_t verticalReuses = 0;
    /// @}

    /** @name Fault-injection and recovery (DESIGN.md §9)
     *
     * recoveryNs is an attribution overlay: the modeled time spent
     * on failed attempts, backoffs, degraded surcharges, reroute and
     * reconstruction work.  It is already included in the comm/cache
     * categories above, so it never contributes to totalNs() again.
     */
    /// @{
    std::uint64_t faultsInjected = 0;   ///< attempts that faulted
    std::uint64_t faultsRetried = 0;    ///< re-attempts after backoff
    std::uint64_t faultsRecovered = 0;  ///< batches served after >=1 fault
    std::uint64_t chunksReplayed = 0;   ///< chunks re-enqueued whole
    std::uint64_t reroutedFetches = 0;  ///< lists routed to a replica owner
    std::uint64_t reconstructedLists = 0; ///< lists rebuilt from local CSR
    double recoveryNs = 0;              ///< modeled recovery overhead
    /// @}

    /** @name Work stealing (DESIGN.md §11)
     *
     * stealOverheadNs is an attribution overlay like recoveryNs: the
     * modeled handshake and column-transfer time a steal cost this
     * unit.  It is already folded into the scheduler/comm categories
     * above, so it never contributes to totalNs() again.
     */
    /// @{
    std::uint64_t chunksStolen = 0;  ///< peer chunks executed here
    std::uint64_t chunksDonated = 0; ///< chunks handed to an idle peer
    std::uint64_t stealBytesIn = 0;  ///< embedding-column bytes received
    std::uint64_t stealBytesOut = 0; ///< embedding-column bytes shipped
    double stealOverheadNs = 0;      ///< modeled steal overhead
    /// @}

    /** @name Crash recovery (DESIGN.md §9)
     *
     * checkpointOverheadNs and adoptionNs are attribution overlays
     * like recoveryNs/stealOverheadNs: the modeled snapshot and
     * adoption time is already folded into the scheduler/comm
     * categories above, so it never contributes to totalNs() again.
     */
    /// @{
    std::uint64_t checkpointsTaken = 0; ///< level-barrier snapshots
    std::uint64_t unitCrashes = 0;      ///< injected crashes on this node
    std::uint64_t chunksAdopted = 0;    ///< dead peers' chunks run here
    std::uint64_t chunksOrphaned = 0;   ///< own chunks lost to a crash
    std::uint64_t adoptionBytesIn = 0;  ///< column bytes received
    std::uint64_t adoptionBytesOut = 0; ///< column bytes shipped
    double checkpointOverheadNs = 0;    ///< modeled snapshot time
    double adoptionNs = 0;              ///< modeled adoption overhead
    /// @}

    /** @name Work counters */
    /// @{
    std::uint64_t embeddingsCreated = 0;
    std::uint64_t intersectionItems = 0;
    std::uint64_t chunksProcessed = 0;
    std::uint64_t peakChunkBytes = 0;

    /**
     * Set-operation executions per kernel, indexed by
     * core::KernelKind (merge, blocked, gallop, bitmap, simd_merge,
     * simd_gallop).  A plain array keeps sim/ below core/ in the
     * layering (engine.cc static_asserts the size against
     * core::kNumKernelKinds); charges are canonical, so these
     * tallies never affect modeled time.  Which kernel ran is
     * host-dependent (SIMD availability), so the split is emitted
     * only in the host section of the JSON dump — the modeled dump
     * (toJson(false)) stays bit-identical across modes and builds.
     */
    std::array<std::uint64_t, 6> kernelCalls{};
    /// @}

    /** Total modeled wall time of this node. */
    double
    totalNs() const
    {
        return computeNs + commExposedNs + schedulerNs + cacheNs;
    }
};

/** Whole-run statistics: one NodeStats per node plus globals. */
struct RunStats
{
    std::vector<NodeStats> nodes;

    /** Modeled startup charged once (engine/plan installation). */
    double startupNs = 0;

    /** Whole-query retries the service charged to this run's
     *  session (modeled backoff lands in startupNs). */
    std::uint64_t queryRetries = 0;

    /** @name Host-side execution observability (not modeled)
     *
     * How the simulation itself ran on the host: worker threads
     * used by the parallel unit runtime and accumulated wall-clock
     * of run() calls.  Never part of the modeled machine — the
     * determinism invariant is that everything *else* in this
     * struct is bit-identical for every thread count.
     */
    /// @{
    /** Host worker threads of the latest run (0 = never ran). */
    unsigned hostThreads = 0;

    /** Accumulated host wall-clock across run() calls (ns). */
    double hostWallNs = 0;

    /**
     * Cross-query shared-cache counters (core/service): probes of
     * the GraphContext's residency directory and how many found a
     * list already fetched by *some* query.  Contents of that
     * directory depend on co-runners and admission order, so these
     * live in the host block — the modeled cache counters above are
     * the per-query deterministic ledger.
     */
    std::uint64_t sharedCacheProbes = 0;
    std::uint64_t sharedCacheHits = 0;

    /**
     * Host-side candidate-set memo of the extenders (core/extender):
     * lookups, and how many replayed a stored set instead of
     * intersecting.  A hit replays every modeled charge, so these
     * say how the host computed, not what the model charged.
     */
    std::uint64_t candidateMemoLookups = 0;
    std::uint64_t candidateMemoHits = 0;

    /** Most trace records any one unit buffered during one run.
     *  Units buffer only while a user trace sink is installed, so
     *  this is 0 without one and O(chunks + fetch batches) with. */
    std::uint64_t traceBufferPeak = 0;
    /// @}

    /** Makespan: slowest node plus startup. */
    double makespanNs() const;

    /** Sum of a NodeStats field across nodes. */
    std::uint64_t totalBytesSent() const;
    std::uint64_t totalMessages() const;
    double totalComputeNs() const;
    double totalCommExposedNs() const;
    double totalCommTotalNs() const;
    double totalSchedulerNs() const;
    double totalCacheNs() const;
    std::uint64_t totalEmbeddings() const;
    std::uint64_t totalFaultsInjected() const;
    std::uint64_t totalFaultsRecovered() const;
    std::uint64_t totalChunksReplayed() const;
    double totalRecoveryNs() const;
    std::uint64_t totalChunksStolen() const;
    std::uint64_t totalStealBytes() const;
    double totalStealOverheadNs() const;
    std::uint64_t totalCheckpoints() const;
    std::uint64_t totalUnitCrashes() const;
    std::uint64_t totalChunksAdopted() const;
    double totalCheckpointOverheadNs() const;
    double totalAdoptionNs() const;

    /** Static-cache hit rate over all nodes (0 when unused). */
    double staticCacheHitRate() const;

    /**
     * Link utilization of the busiest sender: the bytes it sent vs.
     * what its link moves at cost::netBytesPerNs within the makespan
     * (paper Fig 19).
     */
    double networkUtilization() const;

    /** Merge two runs (e.g. per-pattern runs of a motif census). */
    void accumulate(const RunStats &other);

    /** Multi-line human-readable dump (for examples/debugging). */
    std::string summary() const;

    /**
     * Machine-readable dump: one JSON object with the run-level
     * breakdown (compute/comm/scheduler/cache, traffic, cache hit
     * rate) plus a per-node array — what `khuzdul --stats-json`
     * writes so bench trajectories need no stdout parsing.
     *
     * @param include_host also emit the "host" object (threads,
     *        wall-clock) when the stats come from a real run.  Pass
     *        false to get the purely modeled dump, which must be
     *        byte-identical for every host thread count.
     */
    std::string toJson(bool include_host = true) const;
};

} // namespace sim
} // namespace khuzdul

#endif // KHUZDUL_SIM_STATS_HH
