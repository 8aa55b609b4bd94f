/**
 * @file
 * Edge-list resolution chain (§4.3, §5).  An extension needs the
 * active edge list of its frontier vertex; *how* that list is
 * acquired is a policy chain the paper layers explicitly:
 *
 *   local partition → static/replacement cache → horizontal
 *   (chunk-scoped) share → remote per-owner batch.
 *
 * EdgeListProvider walks that chain for one vertex and returns a
 * typed Resolution saying where the list will come from, charging
 * probe time and reuse counters to the requesting unit's NodeStats
 * along the way.  The distributed engine, the G-thinker baseline
 * and the moving-computation baseline all classify through this one
 * type, so the resolution semantics live in exactly one place;
 * batching and timing of the Remote outcomes belong to the
 * CirculantScheduler, not here.
 */

#ifndef KHUZDUL_CORE_PROVIDER_HH
#define KHUZDUL_CORE_PROVIDER_HH

#include <cstdint>

#include "core/cache.hh"
#include "core/horizontal.hh"
#include "core/residency.hh"
#include "graph/graph.hh"
#include "graph/partition.hh"
#include "sim/faults.hh"
#include "sim/stats.hh"
#include "support/types.hh"

namespace khuzdul
{
namespace core
{

/** Where a needed edge list resolves to. */
enum class ResolutionKind : std::uint8_t
{
    Local,    ///< requester owns the vertex: zero-cost read
    CacheHit, ///< resident in the unit's data cache
    Shared,   ///< another embedding of the chunk fetches it (§5.2)
    Remote,   ///< must join a per-owner fetch batch
    /** Owner node is down; the list was rebuilt from the local CSR
     *  (every edge is stored at both endpoints, so N(v) is fully
     *  local when all of v's neighbors are; DESIGN.md §9). */
    Reconstructed,
};

/** Outcome of one resolution-chain walk. */
struct Resolution
{
    ResolutionKind kind = ResolutionKind::Local;

    /** Execution unit owning the vertex (valid for Shared/Remote). */
    unsigned owner = 0;

    /** Wire payload of the list (Remote only, else 0). */
    std::uint64_t bytes = 0;

    /** Whether the fetched list was admitted to the cache. */
    bool admitted = false;
};

/**
 * The resolution chain of one execution unit.  Stateless apart from
 * the cache it manages; chunk-scoped horizontal tables are passed
 * per call because their lifetime belongs to the chunk.
 */
class EdgeListProvider
{
  public:
    /** Probe-time constants charged to NodeStats::cacheNs. */
    struct Costs
    {
        double cacheProbeNs = 0; ///< per cache lookup (any outcome)
        double cacheAdmitNs = 0; ///< extra charge when admission allocates
        double hashProbeNs = 0;  ///< per horizontal-table probe
        /** Per neighbor examined while testing/doing a local CSR
         *  reconstruction of a down owner's list (§9). */
        double reconstructScanNs = 0;
    };

    /**
     * @param cache unit-local data cache, or nullptr for engines
     *        that fetch uncached (probe steps are skipped).
     * @param horizontal_sharing enables the chunk-table step when a
     *        table is supplied to resolve().
     */
    EdgeListProvider(const Graph &g, const Partition &partition,
                     DataCache *cache, bool horizontal_sharing,
                     Costs costs);

    /** The engine's probe-cost schedule for @p cache's policy
     *  (replacement policies pay their bookkeeping, §7.6). */
    static Costs engineCosts(const DataCache &cache);

    /**
     * Resolve the edge list of @p v for @p requester, charging
     * probe time and reuse counters to @p stats.  @p table is the
     * requester's chunk-scoped dedup table (may be null).  Cache
     * probes are counted in @p stats, not traced: the caller reports
     * one tally per fetch phase.
     *
     * When @p faults is non-null and the owner's node is permanently
     * down, the chain degrades to the recovery ladder (§9): cache →
     * local CSR reconstruction → re-fetch from the replica owner
     * (the owner's slot on the next node of the partition's hash
     * chain).  Throws FabricFault if every replica node is down.
     */
    Resolution resolve(unsigned requester, VertexId v,
                       HorizontalTable *table, sim::NodeStats &stats,
                       sim::FaultSession *faults = nullptr);

    const Partition &partition() const { return *partition_; }
    DataCache *cache() { return cache_; }

    /**
     * Attach the GraphContext's cross-query residency directory
     * (nullptr detaches).  Every Remote outcome is then also noted
     * in the directory — host-side observability only: the
     * resolution chain's outcomes, charges and counters above are
     * computed before and independently of this hook, so modeled
     * results never depend on co-running queries.
     */
    void setResidency(SharedResidency *residency)
    {
        residency_ = residency;
    }

    /** @name Cross-query counters (host observability)
     *  Remote fetches noted in the shared directory, and how many
     *  found the list already fetched by some query.  Touched only
     *  by the owning unit's thread; folded into RunStats' host
     *  block after each run. */
    /// @{
    std::uint64_t sharedProbes() const { return sharedProbes_; }
    std::uint64_t sharedHits() const { return sharedHits_; }
    void
    resetSharedCounters()
    {
        sharedProbes_ = sharedHits_ = 0;
    }
    /// @}

  private:
    /** Note a Remote outcome in the shared directory (if attached). */
    void
    noteRemoteFetch(unsigned requester, VertexId v)
    {
        if (!residency_)
            return;
        ++sharedProbes_;
        if (residency_->noteFetch(requester, v))
            ++sharedHits_;
    }

    /** Recovery ladder below the cache rung for a permanently-down
     *  owner: local CSR reconstruction, then replica re-fetch. */
    Resolution resolveDownOwner(unsigned requester, VertexId v,
                                sim::NodeStats &stats,
                                sim::FaultSession *faults,
                                Resolution r);

    const Graph *graph_;
    const Partition *partition_;
    DataCache *cache_;
    bool horizontalSharing_;
    Costs costs_;
    SharedResidency *residency_ = nullptr;
    std::uint64_t sharedProbes_ = 0;
    std::uint64_t sharedHits_ = 0;
};

} // namespace core
} // namespace khuzdul

#endif // KHUZDUL_CORE_PROVIDER_HH
