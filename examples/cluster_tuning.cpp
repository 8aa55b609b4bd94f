/**
 * @file
 * Capacity-planning study: how does one workload respond to cluster
 * size, chunk budget and cache size?  This is the workflow a
 * Khuzdul operator runs before committing hardware — all knobs are
 * fields of EngineConfig's graph and session halves, and every run
 * reports modeled time, traffic and reuse counters.
 */

#include <cstdio>

#include "engines/khuzdul_system.hh"
#include "graph/generators.hh"
#include "support/format.hh"

namespace
{

using namespace khuzdul;

void
report(const char *label, engines::KhuzdulSystem &system)
{
    const auto &stats = system.stats();
    std::printf("  %-24s time %-9s traffic %-9s cache-hit %s\n",
                label,
                formatTime(static_cast<std::uint64_t>(
                    stats.makespanNs())).c_str(),
                formatBytes(stats.totalBytesSent()).c_str(),
                formatPercent(stats.staticCacheHitRate()).c_str());
}

} // namespace

int
main()
{
    using namespace khuzdul;

    const Graph graph = gen::rmat(16'000, 120'000, 0.58, 0.18, 0.18,
                                  /*seed=*/23);
    const Pattern workload = Pattern::clique(4);

    std::printf("workload: 4-clique counting on a %u-vertex skewed "
                "graph\n\n", graph.numVertices());

    std::printf("1) cluster size sweep (defaults otherwise):\n");
    for (const NodeId nodes : {1u, 2u, 4u, 8u, 16u}) {
        core::EngineConfig config;
        config.graph.cluster = sim::ClusterConfig::paperDefault(nodes);
        auto system = engines::KhuzdulSystem::kGraphPi(graph, config);
        system->count(workload);
        char label[32];
        std::snprintf(label, sizeof(label), "%u node(s)", nodes);
        report(label, *system);
    }

    std::printf("\n2) chunk budget sweep (8 nodes):\n");
    for (const std::uint64_t chunk :
         {16ull << 10, 256ull << 10, 4ull << 20}) {
        core::EngineConfig config;
        config.graph.cluster = sim::ClusterConfig::paperDefault(8);
        config.session.chunkBytes = chunk;
        auto system = engines::KhuzdulSystem::kGraphPi(graph, config);
        system->count(workload);
        report(formatBytes(chunk).c_str(), *system);
    }

    std::printf("\n3) cache fraction sweep (8 nodes):\n");
    for (const double fraction : {0.0, 0.05, 0.15, 0.40}) {
        core::EngineConfig config;
        config.graph.cluster = sim::ClusterConfig::paperDefault(8);
        config.graph.cacheFraction = fraction;
        if (fraction == 0.0)
            config.graph.cachePolicy = core::CachePolicy::None;
        auto system = engines::KhuzdulSystem::kGraphPi(graph, config);
        system->count(workload);
        report(formatPercent(fraction).c_str(), *system);
    }

    std::printf("\nReading the output: pick the knee of each sweep — "
                "beyond it you pay memory (chunks/cache) or machines "
                "for little time.\n");
    return 0;
}
