/**
 * @file
 * Unit tests for the edge-list resolution chain: each link of
 * local -> cache -> horizontal share -> remote in isolation, the
 * probe-cost charging, the per-policy cost schedule, and the cache
 * trace events the engine reports from the probe counters.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/engine.hh"
#include "core/provider.hh"
#include "graph/generators.hh"
#include "graph/partition.hh"
#include "pattern/planner.hh"
#include "sim/cost_model.hh"
#include "sim/trace.hh"

namespace khuzdul
{
namespace
{

/** First vertex owned by @p unit. */
VertexId
vertexOwnedBy(const Partition &partition, unsigned unit)
{
    return partition.ownedVertices(unit).front();
}

/** Keeps every event in arrival order. */
struct RecordingSink final : sim::TraceSink
{
    void emit(const sim::TraceRecord &record) override
    {
        records.push_back(record);
    }

    std::vector<sim::TraceRecord> records;
};

TEST(Provider, LocalResolutionIsFree)
{
    const Graph g = gen::cycle(64);
    const Partition partition(g, 4, 1);
    core::DataCache cache(g, core::CachePolicy::Static, 1 << 20, 1);
    core::EdgeListProvider provider(
        g, partition, &cache, true,
        {.cacheProbeNs = 10, .cacheAdmitNs = 5, .hashProbeNs = 3});

    sim::NodeStats stats;
    const core::Resolution r =
        provider.resolve(2, vertexOwnedBy(partition, 2), nullptr,
                         stats);
    EXPECT_EQ(r.kind, core::ResolutionKind::Local);
    EXPECT_EQ(r.bytes, 0u);
    EXPECT_EQ(stats.listsServedLocal, 1u);
    // Local short-circuits the chain: no probe costs, no counters.
    EXPECT_DOUBLE_EQ(stats.cacheNs, 0.0);
    EXPECT_EQ(stats.staticCacheMisses, 0u);
}

TEST(Provider, RemoteCarriesOwnerAndWireBytes)
{
    const Graph g = gen::cycle(64);
    const Partition partition(g, 4, 1);
    core::EdgeListProvider provider(g, partition, nullptr, false, {});

    const VertexId v = vertexOwnedBy(partition, 3);
    sim::NodeStats stats;
    const core::Resolution r = provider.resolve(0, v, nullptr, stats);
    EXPECT_EQ(r.kind, core::ResolutionKind::Remote);
    EXPECT_EQ(r.owner, 3u);
    EXPECT_EQ(r.bytes, g.edgeListBytes(v));
    EXPECT_FALSE(r.admitted);
    // Without a cache there is nothing to probe or charge.
    EXPECT_DOUBLE_EQ(stats.cacheNs, 0.0);
}

TEST(Provider, CacheAdmitsOnMissThenHits)
{
    const Graph g = gen::cycle(64);
    const Partition partition(g, 4, 1);
    core::DataCache cache(g, core::CachePolicy::Static, 1 << 20, 1);
    core::EdgeListProvider provider(
        g, partition, &cache, false,
        {.cacheProbeNs = 10, .cacheAdmitNs = 5, .hashProbeNs = 0});

    const VertexId v = vertexOwnedBy(partition, 1);
    sim::NodeStats stats;
    const core::Resolution miss = provider.resolve(0, v, nullptr, stats);
    EXPECT_EQ(miss.kind, core::ResolutionKind::Remote);
    EXPECT_TRUE(miss.admitted);
    EXPECT_EQ(stats.staticCacheMisses, 1u);
    EXPECT_EQ(stats.staticCacheInsertions, 1u);
    EXPECT_DOUBLE_EQ(stats.cacheNs, 15.0); // probe + admit

    const core::Resolution hit = provider.resolve(0, v, nullptr, stats);
    EXPECT_EQ(hit.kind, core::ResolutionKind::CacheHit);
    EXPECT_EQ(hit.bytes, 0u);
    EXPECT_EQ(stats.staticCacheHits, 1u);
    EXPECT_DOUBLE_EQ(stats.cacheNs, 25.0); // + second probe
}

TEST(Provider, HorizontalTableSharesAndDrops)
{
    const Graph g = gen::cycle(64);
    const Partition partition(g, 4, 1);
    core::EdgeListProvider provider(
        g, partition, nullptr, true,
        {.cacheProbeNs = 0, .cacheAdmitNs = 0, .hashProbeNs = 3});

    // A one-slot table forces every vertex onto the same slot:
    // second offer of v1 shares, any other vertex collides.
    core::HorizontalTable table(1);
    const VertexId v1 = partition.ownedVertices(1)[0];
    const VertexId v2 = partition.ownedVertices(1)[1];
    sim::NodeStats stats;

    EXPECT_EQ(provider.resolve(0, v1, &table, stats).kind,
              core::ResolutionKind::Remote);
    const core::Resolution shared =
        provider.resolve(0, v1, &table, stats);
    EXPECT_EQ(shared.kind, core::ResolutionKind::Shared);
    EXPECT_EQ(shared.owner, 1u);
    EXPECT_EQ(stats.horizontalHits, 1u);

    EXPECT_EQ(provider.resolve(0, v2, &table, stats).kind,
              core::ResolutionKind::Remote);
    EXPECT_EQ(stats.horizontalDrops, 1u);
    EXPECT_DOUBLE_EQ(stats.cacheNs, 9.0); // three hash probes

    // A null table skips the horizontal step entirely.
    EXPECT_EQ(provider.resolve(0, v1, nullptr, stats).kind,
              core::ResolutionKind::Remote);
    EXPECT_DOUBLE_EQ(stats.cacheNs, 9.0);
}

TEST(Provider, EngineCostsFollowCachePolicy)
{
    const Graph g = gen::cycle(64);

    core::DataCache static_cache(g, core::CachePolicy::Static, 1 << 20,
                                 1);
    const auto s = core::EdgeListProvider::engineCosts(static_cache);
    EXPECT_DOUBLE_EQ(s.cacheProbeNs, sim::cost::staticCacheProbeNs);
    EXPECT_DOUBLE_EQ(s.cacheAdmitNs, 0.0);
    EXPECT_DOUBLE_EQ(s.hashProbeNs, sim::cost::hashProbeNs);

    core::DataCache lru_cache(g, core::CachePolicy::Lru, 1 << 20, 1);
    const auto r = core::EdgeListProvider::engineCosts(lru_cache);
    EXPECT_DOUBLE_EQ(r.cacheProbeNs, sim::cost::replacementCacheProbeNs);
    EXPECT_DOUBLE_EQ(r.cacheAdmitNs, sim::cost::replacementAllocNs);
}

TEST(Provider, EmitsCacheTraceEvents)
{
    // The provider only counts probes; the engine's fetch phase
    // reports them as at most one CacheHit and one CacheMiss tally,
    // right after the chunk opens and before any batch is issued.
    const Graph g = gen::rmat(300, 2000, 0.55, 0.2, 0.2, 2024);
    core::EngineConfig config;
    config.graph.cluster = sim::ClusterConfig::paperDefault(4);
    config.graph.cluster.socketsPerNode = 1;
    config.graph.cacheDegreeThreshold = 8;
    core::Engine engine(g, config);
    RecordingSink sink;
    engine.setTraceSink(&sink);
    engine.run(compileAutomine(Pattern::clique(4), {}));

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t cache_events = 0;
    const auto &records = sink.records;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const sim::TraceRecord &r = records[i];
        const bool hit = r.event == sim::PhaseEvent::CacheHit;
        if (!hit && r.event != sim::PhaseEvent::CacheMiss)
            continue;
        ++cache_events;
        (hit ? hits : misses) += r.value;
        EXPECT_GT(r.value, 0u);
        EXPECT_EQ(r.aux, 0u);
        // Walk back over this phase's other tally to its chunk.
        std::size_t j = i;
        while (j > 0 && (records[j - 1].event == sim::PhaseEvent::CacheHit
                         || records[j - 1].event
                             == sim::PhaseEvent::CacheMiss))
            --j;
        ASSERT_GT(j, 0u);
        EXPECT_EQ(records[j - 1].event, sim::PhaseEvent::ChunkOpen);
        EXPECT_EQ(records[j - 1].unit, r.unit);
        EXPECT_EQ(records[j - 1].level, r.level);
        EXPECT_LE(i - j, 1u);
    }
    std::uint64_t stat_hits = 0;
    std::uint64_t stat_misses = 0;
    for (const auto &node : engine.stats().nodes) {
        stat_hits += node.staticCacheHits;
        stat_misses += node.staticCacheMisses;
    }
    EXPECT_GT(cache_events, 0u);
    EXPECT_EQ(hits, stat_hits);
    EXPECT_EQ(misses, stat_misses);
}

} // namespace
} // namespace khuzdul
