#include "core/provider.hh"

#include "sim/cost_model.hh"

namespace khuzdul
{
namespace core
{

EdgeListProvider::EdgeListProvider(const Graph &g,
                                   const Partition &partition,
                                   DataCache *cache,
                                   bool horizontal_sharing, Costs costs)
    : graph_(&g), partition_(&partition), cache_(cache),
      horizontalSharing_(horizontal_sharing), costs_(costs)
{}

EdgeListProvider::Costs
EdgeListProvider::engineCosts(const DataCache &cache)
{
    const bool replacement = cache.policy() != CachePolicy::Static
        && cache.policy() != CachePolicy::None;
    Costs costs;
    costs.cacheProbeNs = replacement ? sim::cost::replacementCacheProbeNs
                                     : sim::cost::staticCacheProbeNs;
    costs.cacheAdmitNs = replacement ? sim::cost::replacementAllocNs : 0;
    costs.hashProbeNs = sim::cost::hashProbeNs;
    costs.reconstructScanNs = sim::cost::candidateCheckNs;
    return costs;
}

Resolution
EdgeListProvider::resolve(unsigned requester, VertexId v,
                          HorizontalTable *table,
                          sim::NodeStats &stats,
                          sim::FaultSession *faults)
{
    Resolution r;
    r.owner = partition_->ownerUnit(v);
    if (r.owner == requester) {
        ++stats.listsServedLocal;
        r.kind = ResolutionKind::Local;
        return r;
    }
    if (cache_) {
        stats.cacheNs += costs_.cacheProbeNs;
        if (cache_->lookup(v)) {
            ++stats.staticCacheHits;
            r.kind = ResolutionKind::CacheHit;
            return r;
        }
        ++stats.staticCacheMisses;
    }
    if (faults
        && faults->nodePermanentlyDown(partition_->ownerNode(v)))
        return resolveDownOwner(requester, v, stats, faults, r);
    if (horizontalSharing_ && table) {
        stats.cacheNs += costs_.hashProbeNs;
        const auto probe = table->offer(v);
        if (probe == HorizontalTable::Probe::Hit) {
            ++stats.horizontalHits;
            r.kind = ResolutionKind::Shared;
            return r;
        }
        if (probe == HorizontalTable::Probe::Dropped)
            ++stats.horizontalDrops;
    }
    r.kind = ResolutionKind::Remote;
    r.bytes = graph_->edgeListBytes(v);
    noteRemoteFetch(requester, v);
    // Admission attempt after the fetch.
    if (cache_ && cache_->insert(v)) {
        ++stats.staticCacheInsertions;
        stats.cacheNs += costs_.cacheAdmitNs;
        r.admitted = true;
    }
    return r;
}

Resolution
EdgeListProvider::resolveDownOwner(unsigned requester, VertexId v,
                                   sim::NodeStats &stats,
                                   sim::FaultSession *faults,
                                   Resolution r)
{
    // The cache already missed above; next rung is local CSR
    // reconstruction.  Every edge is stored at both endpoints
    // (partition §2.2), so N(v) is fully available locally exactly
    // when every neighbor of v lives on the requester's node.  The
    // feasibility scan is charged per examined neighbor whether it
    // succeeds or not.
    const NodeId req_node =
        static_cast<NodeId>(requester / partition_->socketsPerNode());
    std::uint64_t scanned = 0;
    bool reconstructable = true;
    for (const VertexId u : graph_->neighbors(v)) {
        ++scanned;
        if (partition_->ownerNode(u) != req_node) {
            reconstructable = false;
            break;
        }
    }
    const double scan_ns =
        costs_.reconstructScanNs * static_cast<double>(scanned);
    stats.cacheNs += scan_ns;
    stats.recoveryNs += scan_ns;
    if (reconstructable) {
        ++stats.reconstructedLists;
        r.kind = ResolutionKind::Reconstructed;
        return r;
    }
    // Last rung: re-fetch from the replica owner — the down owner's
    // socket slot on successive nodes of the hash chain, skipping
    // nodes that are down themselves.
    const unsigned step = partition_->socketsPerNode();
    const unsigned units = partition_->numUnits();
    unsigned replica = r.owner;
    do {
        replica = (replica + step) % units;
    } while (replica != r.owner
             && faults->nodePermanentlyDown(replica / step));
    if (replica == r.owner)
        throw sim::FabricFault(
            "no live replica for vertex owned by a down node");
    r.owner = replica;
    ++stats.reroutedFetches;
    r.kind = ResolutionKind::Remote;
    r.bytes = graph_->edgeListBytes(v);
    noteRemoteFetch(requester, v);
    if (cache_ && cache_->insert(v)) {
        ++stats.staticCacheInsertions;
        stats.cacheNs += costs_.cacheAdmitNs;
        r.admitted = true;
    }
    return r;
}

} // namespace core
} // namespace khuzdul
