#include "core/context.hh"

#include "support/check.hh"

namespace khuzdul
{
namespace core
{

namespace
{

/** Hub-bitmap admission degree, the default static-cache threshold
 *  (§5.3): the hot vertices whose lists are cached everywhere get
 *  dense bitsets. */
constexpr EdgeId kHubBitmapDegreeThreshold = 32;

/** Byte cap on hub bitmap rows (hottest-first admission). */
constexpr std::uint64_t kHubBitmapMaxBytes = 32ull << 20;

/** @p setup, once it is known to describe a possible deployment. */
const GraphSetup &
validated(const GraphSetup &setup)
{
    // perUnitCacheBytes casts the scaled fraction to an integer; a
    // per-node cache never needs to hold more than the whole graph.
    // The comparisons also reject NaN.
    KHUZDUL_REQUIRE(setup.cacheFraction >= 0
                        && setup.cacheFraction <= 1,
                    "cache fraction must be in [0, 1], got "
                        << setup.cacheFraction);
    return setup;
}

std::uint64_t
perUnitCacheBytes(const Graph &g, const GraphSetup &setup,
                  const Partition &partition)
{
    const double per_node =
        setup.cacheFraction * static_cast<double>(g.sizeBytes());
    return static_cast<std::uint64_t>(per_node
                                      / partition.socketsPerNode());
}

} // namespace

GraphContext::GraphContext(const Graph &g, const GraphSetup &setup)
    : graph_(&g),
      setup_(validated(setup)),
      partition_(g, setup.cluster.numNodes,
                 setup.numaAware ? setup.cluster.socketsPerNode : 1),
      residency_(g, partition_.numUnits(),
                 setup.cachePolicy == CachePolicy::None
                     ? 0
                     : perUnitCacheBytes(g, setup, partition_),
                 setup.cacheDegreeThreshold)
{
}

unsigned
GraphContext::computeCoresPerUnit() const
{
    const unsigned per_node = setup_.cluster.computeCoresPerNode();
    if (!setup_.numaAware)
        return per_node;
    return std::max(1u, per_node / setup_.cluster.socketsPerNode);
}

std::uint64_t
GraphContext::cacheBytesPerUnit() const
{
    return perUnitCacheBytes(*graph_, setup_, partition_);
}

void
GraphContext::ensureHubBitmaps()
{
    // Graph::buildHubBitmaps mutates lazily-built mutable state and
    // needs external synchronization when sessions spin up
    // concurrently; the context is that synchronization point.
    // khuzdul-lint: allow(thread-primitive) build-once guard for the shared hub bitmaps; host-side only
    std::lock_guard<std::mutex> lock(mutex_);
    if (hubBitmapsBuilt_)
        return;
    graph_->buildHubBitmaps(kHubBitmapDegreeThreshold,
                            kHubBitmapMaxBytes);
    hubBitmapsBuilt_ = true;
}

const GraphProfile &
GraphContext::profile()
{
    // khuzdul-lint: allow(thread-primitive) build-once guard for the shared planner profile; host-side only
    std::lock_guard<std::mutex> lock(mutex_);
    if (!profile_)
        profile_ = std::make_unique<GraphProfile>(
            GraphProfile::fromGraph(*graph_));
    return *profile_;
}

void
GraphContext::absorbTraffic(const sim::Fabric &query_ledger)
{
    // khuzdul-lint: allow(thread-primitive) cumulative ledger fold; a uint64 sum is admission-order independent
    std::lock_guard<std::mutex> lock(mutex_);
    sharedBytes_ += query_ledger.totalBytes();
}

std::uint64_t
GraphContext::sharedTotalBytes() const
{
    // khuzdul-lint: allow(thread-primitive) observability read of the cumulative ledger
    std::lock_guard<std::mutex> lock(mutex_);
    return sharedBytes_;
}

void
GraphContext::clearCaches()
{
    residency_.clear();
    // khuzdul-lint: allow(thread-primitive) cumulative ledger wipe alongside the residency directory
    std::lock_guard<std::mutex> lock(mutex_);
    sharedBytes_ = 0;
}

} // namespace core
} // namespace khuzdul
