/**
 * @file
 * Application-level tests: TC / k-CC / k-MC closed forms and oracle
 * agreement, and FSM (MNI supports, anti-monotone level-wise
 * mining, agreement with the pattern-oblivious baseline).
 */

#include <gtest/gtest.h>

#include "apps/fsm.hh"
#include "apps/gpm_apps.hh"
#include "engines/pattern_oblivious.hh"
#include "graph/generators.hh"
#include "pattern/bruteforce.hh"
#include "pattern/isomorphism.hh"
#include "support/check.hh"

namespace khuzdul
{
namespace
{

core::EngineConfig
engineConfig(NodeId nodes = 2)
{
    core::EngineConfig config;
    config.graph.cluster = sim::ClusterConfig::paperDefault(nodes);
    config.session.chunkBytes = 64 << 10;
    return config;
}

TEST(Apps, TriangleCountClosedForm)
{
    const Graph g = gen::complete(10);
    auto system = engines::KhuzdulSystem::kAutomine(g, engineConfig());
    EXPECT_EQ(apps::triangleCount(*system), 120u); // C(10,3)
}

TEST(Apps, CliqueCountsOnRandomGraph)
{
    const Graph g = gen::rmat(250, 1800, 0.55, 0.2, 0.2, 99);
    auto system = engines::KhuzdulSystem::kGraphPi(g, engineConfig());
    for (int k = 3; k <= 5; ++k)
        EXPECT_EQ(apps::cliqueCount(*system, k),
                  brute::countEmbeddings(g, Pattern::clique(k), false))
            << k << "-clique";
}

TEST(Apps, MotifCensusSize3)
{
    const Graph g = gen::rmat(150, 900, 0.5, 0.2, 0.2, 11);
    auto system = engines::KhuzdulSystem::kAutomine(g, engineConfig());
    const auto census = apps::motifCount(*system, 3);
    ASSERT_EQ(census.size(), 2u);
    for (const auto &motif : census)
        EXPECT_EQ(motif.count,
                  brute::countEmbeddings(g, motif.pattern, true))
            << motif.pattern.toString();
}

TEST(Apps, MotifCensusSize4CoversAllSixMotifs)
{
    const Graph g = gen::rmat(100, 500, 0.5, 0.2, 0.2, 12);
    auto system = engines::KhuzdulSystem::kGraphPi(g, engineConfig());
    const auto census = apps::motifCount(*system, 4);
    ASSERT_EQ(census.size(), 6u);
    Count total = 0;
    for (const auto &motif : census) {
        EXPECT_EQ(motif.count,
                  brute::countEmbeddings(g, motif.pattern, true))
            << motif.pattern.toString();
        total += motif.count;
    }
    EXPECT_GT(total, 0u);
}

TEST(Apps, MotifRejectsUnsupportedSizes)
{
    const Graph g = gen::cycle(5);
    auto system = engines::KhuzdulSystem::kAutomine(g, engineConfig());
    EXPECT_THROW(apps::motifCount(*system, 2), FatalError);
    EXPECT_THROW(apps::motifCount(*system, 6), FatalError);
    EXPECT_THROW(apps::cliqueCount(*system, 1), FatalError);
}

TEST(Fsm, MniSupportOnLabeledCycle)
{
    Graph g = gen::cycle(4);
    g.setLabels({0, 1, 0, 1});
    auto system = engines::KhuzdulSystem::kAutomine(g, engineConfig(1));
    apps::KhuzdulFsmBackend backend(*system);
    Pattern edge(2, {{0, 1}});
    edge.setLabel(0, 0);
    edge.setLabel(1, 1);
    EXPECT_EQ(apps::mniSupport(backend, edge), 2u);
    Pattern same(2, {{0, 1}});
    same.setLabel(0, 0);
    same.setLabel(1, 0);
    EXPECT_EQ(apps::mniSupport(backend, same), 0u);
}

TEST(Fsm, MniSupportMergesOrbits)
{
    // Star with one hub (label 0) and 4 leaves (label 1): the A-B
    // edge has hub domain {hub} and leaf domain of size 4; MNI = 1.
    Graph g = gen::star(5);
    g.setLabels({0, 1, 1, 1, 1});
    auto system = engines::KhuzdulSystem::kAutomine(g, engineConfig(1));
    apps::KhuzdulFsmBackend backend(*system);
    Pattern edge(2, {{0, 1}});
    edge.setLabel(0, 0);
    edge.setLabel(1, 1);
    EXPECT_EQ(apps::mniSupport(backend, edge), 1u);
    // Symmetric wedge leaf-hub-leaf: leaves form one orbit whose
    // merged domain is all 4 leaves; hub domain is 1; MNI = 1.
    Pattern wedge(3, {{0, 1}, {0, 2}});
    wedge.setLabel(0, 0);
    wedge.setLabel(1, 1);
    wedge.setLabel(2, 1);
    EXPECT_EQ(apps::mniSupport(backend, wedge), 1u);
}

TEST(Fsm, RequiresLabeledGraph)
{
    const Graph g = gen::cycle(5);
    auto system = engines::KhuzdulSystem::kAutomine(g, engineConfig(1));
    apps::KhuzdulFsmBackend backend(*system);
    EXPECT_THROW(
        apps::mineFrequentSubgraphs(backend, g, {1, 3}),
        FatalError);
}

TEST(Fsm, AgreesWithPatternObliviousBaseline)
{
    Graph g = gen::rmat(120, 500, 0.5, 0.2, 0.2, 321);
    gen::randomizeLabels(g, 2, 5);

    auto system = engines::KhuzdulSystem::kAutomine(g, engineConfig(2));
    apps::KhuzdulFsmBackend backend(*system);
    apps::FsmConfig config;
    config.minSupport = 5;
    config.maxEdges = 2;
    const auto aware = apps::mineFrequentSubgraphs(backend, g, config);

    engines::PatternObliviousEngine oblivious(
        g, sim::ClusterConfig::paperDefault(2));
    const auto baseline = oblivious.mineFrequent(2, config.minSupport);

    // Same frequent pattern sets with the same supports.
    ASSERT_EQ(aware.frequent.size(), baseline.patterns.size());
    for (const auto &fp : aware.frequent) {
        bool found = false;
        for (const auto &bp : baseline.patterns) {
            if (iso::isomorphic(fp.pattern, bp.pattern)) {
                EXPECT_EQ(fp.support, bp.support)
                    << fp.pattern.toString();
                found = true;
            }
        }
        EXPECT_TRUE(found) << fp.pattern.toString();
    }
}

TEST(Fsm, SingleMachineBackendMatchesKhuzdulBackend)
{
    Graph g = gen::rmat(100, 420, 0.5, 0.2, 0.2, 77);
    gen::randomizeLabels(g, 3, 9);
    auto system = engines::KhuzdulSystem::kAutomine(g, engineConfig(3));
    apps::KhuzdulFsmBackend distributed(*system);
    apps::SingleMachineFsmBackend local(g);
    apps::FsmConfig config;
    config.minSupport = 3;
    config.maxEdges = 3;
    const auto a = apps::mineFrequentSubgraphs(distributed, g, config);
    const auto b = apps::mineFrequentSubgraphs(local, g, config);
    ASSERT_EQ(a.frequent.size(), b.frequent.size());
    EXPECT_EQ(a.patternsEvaluated, b.patternsEvaluated);
    EXPECT_GT(local.workItems(), 0u);
}

TEST(Fsm, HigherThresholdYieldsSubset)
{
    Graph g = gen::rmat(150, 700, 0.55, 0.2, 0.2, 55);
    gen::randomizeLabels(g, 2, 3);
    auto system = engines::KhuzdulSystem::kAutomine(g, engineConfig(2));
    apps::KhuzdulFsmBackend backend(*system);
    const auto low = apps::mineFrequentSubgraphs(backend, g, {2, 3});
    const auto high = apps::mineFrequentSubgraphs(backend, g, {40, 3});
    EXPECT_LE(high.frequent.size(), low.frequent.size());
    for (const auto &fp : high.frequent)
        EXPECT_GE(fp.support, 40u);
}

} // namespace
} // namespace khuzdul
