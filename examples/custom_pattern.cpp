/**
 * @file
 * Authoring custom patterns and inspecting compiled plans — the
 * "GPM system developer" view.  Shows how a pattern becomes an
 * EXTEND plan: the matching order, per-level dependency masks,
 * symmetry-breaking restrictions, vertical-sharing annotations and
 * (for the GraphPi compiler) the IEP terminal block.
 */

#include <cstdio>

#include "engines/khuzdul_system.hh"
#include "graph/generators.hh"
#include "pattern/planner.hh"
#include "support/format.hh"

int
main()
{
    using namespace khuzdul;

    // A custom 5-vertex pattern: a "house" (4-cycle with a roof).
    Pattern house(5);
    house.addEdge(0, 1); // floor
    house.addEdge(1, 2);
    house.addEdge(2, 3);
    house.addEdge(3, 0);
    house.addEdge(0, 4); // roof
    house.addEdge(1, 4);
    std::printf("pattern: %s, |Aut| matters for counting -- the\n"
                "compiler derives restrictions automatically.\n\n",
                house.toString().c_str());

    // Compare what the two client compilers emit.
    const ExtendPlan automine_plan = compileAutomine(house, {});
    std::printf("--- Automine-style plan ---\n%s\n",
                automine_plan.toString().c_str());

    const GraphProfile profile{100'000.0, 16.0};
    const ExtendPlan graphpi_plan =
        compileGraphPi(house, profile, {});
    std::printf("--- GraphPi-style plan (cost-searched order%s) ---\n"
                "%s\n",
                graphpi_plan.hasIep ? ", IEP" : "",
                graphpi_plan.toString().c_str());
    std::printf("estimated costs: automine %.3g, graphpi %.3g\n\n",
                estimatePlanCost(automine_plan, profile),
                estimatePlanCost(graphpi_plan, profile));

    // Both count identically; the engine checks the divisor math.
    const Graph graph = gen::rmat(10'000, 80'000, 0.55, 0.2, 0.2, 5);
    core::EngineConfig config;
    config.graph.cluster = sim::ClusterConfig::paperDefault(4);
    auto a = engines::KhuzdulSystem::kAutomine(graph, config);
    auto g = engines::KhuzdulSystem::kGraphPi(graph, config);
    const Count count_a = a->count(house);
    const Count count_g = g->count(house);
    std::printf("house embeddings: %s (k-Automine) == %s (k-GraphPi)\n",
                formatCount(count_a).c_str(),
                formatCount(count_g).c_str());
    return count_a == count_g ? 0 : 1;
}
