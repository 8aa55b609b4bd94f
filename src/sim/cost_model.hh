/**
 * @file
 * Calibrated cost model for the simulated cluster.  The paper runs
 * on real hardware (8x dual-socket Xeon E5-2630 v3, 56 Gbps
 * InfiniBand); this reproduction executes the same algorithms on one
 * host core and *models* time from measured operation counts.  The
 * constants below approximate a 2.4 GHz 2015 Xeon core on
 * intersection-bound code and the paper's fabric; every engine
 * charges work through this one model so relative comparisons are
 * apples-to-apples.  They are chosen once for that testbed, so they
 * are compile-time constants, not options.
 */

#ifndef KHUZDUL_SIM_COST_MODEL_HH
#define KHUZDUL_SIM_COST_MODEL_HH

#include <cstdint>

namespace khuzdul
{
namespace sim
{

/** All time constants (nanoseconds unless noted). */
namespace cost
{

/** @name Computation */
/// @{
/** Per element consumed by a sorted-list intersection. */
inline constexpr double intersectPerItemNs = 1.2;
/** Per candidate vertex examined (restriction/label checks). */
inline constexpr double candidateCheckNs = 1.0;
/** Per extendable embedding created (arena append). */
inline constexpr double embeddingCreateNs = 4.0;
/** Per UDF/count invocation at the terminal level. */
inline constexpr double terminalNs = 0.8;
/** Per horizontal-hash-table probe (simplified table, §5.2). */
inline constexpr double hashProbeNs = 2.5;
/** Per static-cache lookup (no bookkeeping, §5.3). */
inline constexpr double staticCacheProbeNs = 2.0;
/** Per lookup/update of a *replacement* cache (Fig 16): list
 *  maintenance, refcounts and allocator pressure. */
inline constexpr double replacementCacheProbeNs = 130.0;
/** General-purpose allocation per cached list (replacement
 *  policies cannot use a fixed-size pool, §7.6). */
inline constexpr double replacementAllocNs = 550.0;
/// @}

/** @name Scheduling */
/// @{
/** Mini-batch dispatch cost (lock-free queue pop, §6). */
inline constexpr double miniBatchDispatchNs = 150.0;
/** Per chunk: shuffle + pipeline setup (§4.3). */
inline constexpr double chunkSetupNs = 4000.0;
/** Per-pattern engine startup (chunk arenas, plan install);
 *  the FSM experiment (§7.2) shows this matters. */
inline constexpr double engineStartupNs = 3.0e4;
/// @}

/** @name Network */
/// @{
/** One-way message latency. */
inline constexpr double netLatencyNs = 1800.0;
/** Link bandwidth in bytes per nanosecond (56 Gbps = 7 GB/s). */
inline constexpr double netBytesPerNs = 7.0;
/** Responder-side gather/copy into the send buffer per byte
 *  (poor locality for many small lists, §7.8). */
inline constexpr double netCopyPerByteNs = 0.35;
/** Fixed responder cost per requested edge list. */
inline constexpr double netPerListNs = 60.0;
/** Extra latency for cross-socket (NUMA) accesses. */
inline constexpr double numaRemoteLatencyNs = 150.0;
/** Cross-socket bandwidth (bytes/ns); QPI-ish. */
inline constexpr double numaBytesPerNs = 12.0;
/// @}

/** @name Fault recovery (DESIGN.md §9) */
/// @{
/** Charge for a transfer attempt that never got an answer
 *  (timeout and node-down outcomes). */
inline constexpr double timeoutNs = 1.0e6;
/** Base retry backoff; attempt k waits 2^(k-1) times this. */
inline constexpr double retryBackoffNs = 1.0e5;
/// @}

/** @name Crash recovery (DESIGN.md §9) */
/// @{
/** Per-unit snapshot charge at each level-0 barrier when
 *  checkpointing is armed: serializing the partial counts and
 *  the pending-chunk ledger into node-local stable storage. */
inline constexpr double checkpointNs = 8000.0;
/** Fixed handshake per adopted chunk: the survivor claims the
 *  orphan from the dead unit's last checkpoint, on top of the
 *  fabric transfer of the embedding columns. */
inline constexpr double adoptionHandshakeNs = 4000.0;
/** Base whole-query retry backoff charged by the service;
 *  attempt k waits 2^(k-1) times this. */
inline constexpr double queryRetryBackoffNs = 2.0e5;
/// @}

/** @name Work stealing (DESIGN.md §11) */
/// @{
/** Fixed handshake per stolen chunk: steal request, grant and
 *  donation-ledger bookkeeping on both ends.  Charged to thief
 *  and victim alike, on top of the fabric transfer of the
 *  embedding columns. */
inline constexpr double stealHandshakeNs = 2500.0;
/// @}

/** @name G-thinker specific overheads (§2.3, Fig 15) */
/// @{
/** Cache map update per requested vertex (task<->data map). */
inline constexpr double gthinkerMapUpdateNs = 640.0;
/** Scheduler readiness scan per task per round. */
inline constexpr double gthinkerSchedulerScanNs = 360.0;
/** Garbage-collection check per cached list per round. */
inline constexpr double gthinkerGcCheckNs = 120.0;
/// @}

/**
 * Compute time of a plain DFS run (no chunks, no fetches): the
 * elements its set kernels consumed, the candidates it checked
 * and the partial embeddings it visited.
 */
constexpr double
dfsWorkNs(std::uint64_t items, std::uint64_t checks,
          std::uint64_t visits)
{
    return static_cast<double>(items) * intersectPerItemNs
        + static_cast<double>(checks) * candidateCheckNs
        + static_cast<double>(visits) * embeddingCreateNs;
}

/** Transfer time of one batched request of @p bytes. */
constexpr double
transferNs(std::uint64_t bytes, std::uint64_t lists)
{
    return netLatencyNs
        + static_cast<double>(bytes) / netBytesPerNs
        + static_cast<double>(bytes) * netCopyPerByteNs
        + static_cast<double>(lists) * netPerListNs;
}

/** Cross-socket transfer time (NUMA sub-partition fetch). */
constexpr double
numaTransferNs(std::uint64_t bytes, std::uint64_t lists)
{
    return numaRemoteLatencyNs
        + static_cast<double>(bytes) / numaBytesPerNs
        + static_cast<double>(lists) * 2.0;
}

} // namespace cost
} // namespace sim
} // namespace khuzdul

#endif // KHUZDUL_SIM_COST_MODEL_HH
