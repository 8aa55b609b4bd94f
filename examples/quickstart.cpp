/**
 * @file
 * Quickstart: build a graph, stand up a Khuzdul-based distributed
 * GPM system, and count some patterns.
 *
 * The public API in three steps:
 *   1. get a Graph (generators, edge-list files, or binary format);
 *   2. configure the engine (cluster shape + knobs) and pick a
 *      client system (k-Automine or k-GraphPi);
 *   3. count patterns / run apps and read the run statistics.
 */

#include <cstdio>

#include "apps/gpm_apps.hh"
#include "engines/khuzdul_system.hh"
#include "graph/generators.hh"
#include "support/format.hh"

int
main()
{
    using namespace khuzdul;

    // 1. A synthetic power-law graph: 20k vertices, ~150k edges.
    const Graph graph = gen::rmat(20'000, 150'000, 0.55, 0.2, 0.2,
                                  /*seed=*/42);
    std::printf("graph: %u vertices, %llu edges, max degree %llu\n",
                graph.numVertices(),
                static_cast<unsigned long long>(graph.numEdges()),
                static_cast<unsigned long long>(graph.maxDegree()));

    // 2. An 8-node simulated cluster with the paper's defaults.
    core::EngineConfig config;
    config.graph.cluster = sim::ClusterConfig::paperDefault(8);
    auto system = engines::KhuzdulSystem::kGraphPi(graph, config);

    // 3. Applications.
    const Count triangles = apps::triangleCount(*system);
    std::printf("triangles: %s\n", formatCount(triangles).c_str());

    const Count cliques4 = apps::cliqueCount(*system, 4);
    std::printf("4-cliques: %s\n", formatCount(cliques4).c_str());

    // Any custom pattern works; counting is exact.
    const Pattern diamond = Pattern::diamond();
    std::printf("diamonds:  %s\n",
                formatCount(system->count(diamond)).c_str());

    // Run statistics: modeled cluster time, traffic, reuse counters.
    std::printf("\n--- run statistics (all three apps) ---\n%s",
                system->stats().summary().c_str());
    return 0;
}
