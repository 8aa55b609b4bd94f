/**
 * @file
 * Baseline-engine tests: every engine (k-Automine, k-GraphPi,
 * AutomineIH, Peregrine/Pangolin-like, replicated GraphPi,
 * G-thinker, aDFS-like) must produce identical exact counts, and
 * each engine's characteristic cost structure must show up in its
 * modeled statistics.
 */

#include <gtest/gtest.h>

#include "engines/graphpi_rep.hh"
#include "engines/gthinker.hh"
#include "engines/khuzdul_system.hh"
#include "engines/move_computation.hh"
#include "engines/pattern_oblivious.hh"
#include "engines/single_machine.hh"
#include "graph/generators.hh"
#include "pattern/bruteforce.hh"
#include "support/check.hh"

namespace khuzdul
{
namespace
{

Graph
testGraph()
{
    return gen::rmat(300, 2200, 0.55, 0.2, 0.2, 888);
}

core::EngineConfig
engineConfig(NodeId nodes = 4)
{
    core::EngineConfig config;
    config.graph.cluster = sim::ClusterConfig::paperDefault(nodes);
    config.session.chunkBytes = 64 << 10;
    return config;
}

TEST(KhuzdulSystem, BothStylesAgreeWithBruteForce)
{
    const Graph g = testGraph();
    for (const auto &p : {Pattern::triangle(), Pattern::clique(4),
                          Pattern::pathOf(4), Pattern::diamond()}) {
        const Count expected = brute::countEmbeddings(g, p, false);
        auto automine =
            engines::KhuzdulSystem::kAutomine(g, engineConfig());
        auto graphpi =
            engines::KhuzdulSystem::kGraphPi(g, engineConfig());
        EXPECT_EQ(automine->count(p), expected) << p.toString();
        EXPECT_EQ(graphpi->count(p), expected) << p.toString();
    }
}

TEST(KhuzdulSystem, GraphPiStyleUsesIepPlans)
{
    const Graph g = testGraph();
    auto system = engines::KhuzdulSystem::kGraphPi(g, engineConfig());
    const auto plan = system->compile(Pattern::clique(4));
    EXPECT_TRUE(plan.hasIep);
    const auto automine_plan = engines::KhuzdulSystem::kAutomine(
        g, engineConfig())->compile(Pattern::clique(4));
    EXPECT_FALSE(automine_plan.hasIep);
}

TEST(KhuzdulSystem, EnumerateDeliversAllEmbeddings)
{
    const Graph g = gen::complete(6);
    auto system = engines::KhuzdulSystem::kGraphPi(g, engineConfig(2));
    class CountVisitor : public core::MatchVisitor
    {
      public:
        Count seen = 0;
        void match(std::span<const VertexId>) override { ++seen; }
    } visitor;
    // Even the GraphPi-style system must fall back to a
    // visitor-compatible plan here.
    EXPECT_EQ(system->enumerate(Pattern::triangle(), &visitor), 20u);
    EXPECT_EQ(visitor.seen, 20u);
}

TEST(SingleMachine, AllStylesAgreeWithBruteForce)
{
    const Graph g = testGraph();
    engines::SingleMachineConfig config;
    for (const auto style : {engines::SingleMachineStyle::AutomineIH,
                             engines::SingleMachineStyle::PeregrineLike,
                             engines::SingleMachineStyle::PangolinLike}) {
        engines::SingleMachineEngine engine(g, style, config);
        for (const auto &p : {Pattern::triangle(), Pattern::clique(4),
                              Pattern::tailedTriangle()}) {
            EXPECT_EQ(engine.count(p).count,
                      brute::countEmbeddings(g, p, false))
                << p.toString();
        }
    }
}

TEST(SingleMachine, OrientationAppliesOnlyToCliques)
{
    const Graph g = testGraph();
    engines::SingleMachineConfig config;
    engines::SingleMachineEngine pangolin(
        g, engines::SingleMachineStyle::PangolinLike, config);
    EXPECT_TRUE(pangolin.usesOrientation(Pattern::triangle()));
    EXPECT_TRUE(pangolin.usesOrientation(Pattern::clique(5)));
    EXPECT_FALSE(pangolin.usesOrientation(Pattern::pathOf(4)));
    engines::SingleMachineEngine automine(
        g, engines::SingleMachineStyle::AutomineIH, config);
    EXPECT_FALSE(automine.usesOrientation(Pattern::triangle()));
}

TEST(SingleMachine, OrientationCutsTriangleWork)
{
    const Graph g = gen::rmat(600, 9000, 0.62, 0.16, 0.16, 7);
    engines::SingleMachineConfig config;
    engines::SingleMachineEngine pangolin(
        g, engines::SingleMachineStyle::PangolinLike, config);
    engines::SingleMachineEngine automine(
        g, engines::SingleMachineStyle::AutomineIH, config);
    const auto fast = pangolin.count(Pattern::triangle());
    const auto slow = automine.count(Pattern::triangle());
    EXPECT_EQ(fast.count, slow.count);
    EXPECT_LT(fast.work.workItems, slow.work.workItems);
}

TEST(SingleMachine, MemoryLimitEnforced)
{
    const Graph g = testGraph();
    engines::SingleMachineConfig config;
    config.memoryBytes = 64; // absurdly small
    engines::SingleMachineEngine engine(
        g, engines::SingleMachineStyle::AutomineIH, config);
    EXPECT_THROW(engine.count(Pattern::triangle()), FatalError);
}

TEST(GraphPiRep, CountsMatchAndMemoryIsChecked)
{
    const Graph g = testGraph();
    engines::GraphPiRepConfig config;
    config.cluster = sim::ClusterConfig::paperDefault(4);
    engines::GraphPiRepEngine engine(g, config);
    const auto result = engine.count(Pattern::clique(4));
    EXPECT_EQ(result.count,
              brute::countEmbeddings(g, Pattern::clique(4), false));
    EXPECT_GT(result.makespanNs, 0.0);

    engines::GraphPiRepConfig tiny = config;
    tiny.cluster.memoryBytesPerNode = 128;
    engines::GraphPiRepEngine oom(g, tiny);
    EXPECT_THROW(oom.count(Pattern::triangle()), FatalError);
}

TEST(GraphPiRep, NoNetworkTraffic)
{
    const Graph g = testGraph();
    engines::GraphPiRepConfig config;
    config.cluster = sim::ClusterConfig::paperDefault(4);
    engines::GraphPiRepEngine engine(g, config);
    const auto result = engine.count(Pattern::triangle());
    EXPECT_EQ(result.stats.totalBytesSent(), 0u);
}

TEST(GThinker, CountsMatchBruteForce)
{
    const Graph g = testGraph();
    engines::GThinkerConfig config;
    config.cluster = sim::ClusterConfig::singleSocket(4);
    engines::GThinkerEngine engine(g, config);
    for (const auto &p : {Pattern::triangle(), Pattern::clique(4)}) {
        EXPECT_EQ(engine.count(p).count,
                  brute::countEmbeddings(g, p, false))
            << p.toString();
    }
}

TEST(GThinker, OverheadDominatesRuntime)
{
    // The paper's Fig 15: cache + scheduler take ~86% of G-thinker
    // runtime; compute and network are small.
    const Graph g = testGraph();
    engines::GThinkerConfig config;
    config.cluster = sim::ClusterConfig::singleSocket(4);
    engines::GThinkerEngine engine(g, config);
    const auto result = engine.count(Pattern::triangle());
    const double total = result.stats.totalComputeNs()
        + result.stats.totalCommExposedNs()
        + result.stats.totalSchedulerNs()
        + result.stats.totalCacheNs();
    const double overhead = result.stats.totalSchedulerNs()
        + result.stats.totalCacheNs();
    EXPECT_GT(overhead / total, 0.5);
}

TEST(GThinker, DualSocketIsSlower)
{
    const Graph g = testGraph();
    engines::GThinkerConfig single;
    single.cluster = sim::ClusterConfig::singleSocket(4);
    engines::GThinkerConfig dual;
    dual.cluster = sim::ClusterConfig::paperDefault(4);
    engines::GThinkerEngine a(g, single);
    engines::GThinkerEngine b(g, dual);
    EXPECT_LT(a.count(Pattern::triangle()).makespanNs,
              b.count(Pattern::triangle()).makespanNs);
}

TEST(MoveComputation, CountsMatchAndTrafficIsHeavy)
{
    const Graph g = testGraph();
    engines::MoveComputationConfig config;
    config.cluster = sim::ClusterConfig::paperDefault(4);
    engines::MoveComputationEngine engine(g, config);
    const auto result = engine.count(Pattern::triangle());
    EXPECT_EQ(result.count,
              brute::countEmbeddings(g, Pattern::triangle(), false));
    // Shipping embeddings + edge lists moves more data than the
    // equivalent Khuzdul run fetches.
    auto khuzdul = engines::KhuzdulSystem::kAutomine(g, engineConfig(4));
    khuzdul->count(Pattern::triangle());
    EXPECT_GT(result.stats.totalBytesSent(),
              khuzdul->stats().totalBytesSent());
}

TEST(PatternOblivious, SubgraphCensusOnSmallGraphs)
{
    // K4 has 6 edges; connected edge subsets: 6 single edges, 12
    // two-edge paths (wedges: 4 vertices choose center...) -- check
    // against an independent brute count.
    const Graph g = gen::complete(4);
    engines::PatternObliviousConfig config;
    config.cluster = sim::ClusterConfig::paperDefault(2);
    engines::PatternObliviousEngine engine(g, config);
    const auto result = engine.mineFrequent(2, 0);
    // 1-edge subsets: 6.  2-edge subsets: pairs of adjacent edges =
    // per vertex C(3,2)=3 wedges x 4 vertices = 12.
    EXPECT_EQ(result.totalInstances, 6u + 12u);
}

TEST(PatternOblivious, MatchesIndependentSubsetEnumeration)
{
    // Exhaustive cross-check of the edge-ESU enumerator: count
    // connected edge subsets of random small graphs by brute force
    // over all subsets.
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        const Graph g = gen::erdosRenyi(10, 16, seed);
        std::vector<std::pair<VertexId, VertexId>> edges;
        for (VertexId u = 0; u < g.numVertices(); ++u)
            for (const VertexId v : g.neighbors(u))
                if (u < v)
                    edges.emplace_back(u, v);
        const int m = static_cast<int>(edges.size());
        Count expected = 0;
        for (std::uint32_t mask = 1; mask < (1u << m); ++mask) {
            if (std::popcount(mask) > 3)
                continue;
            // Connectivity check over the chosen edges.
            std::vector<int> picked;
            for (int e = 0; e < m; ++e)
                if ((mask >> e) & 1u)
                    picked.push_back(e);
            std::vector<int> comp(picked.size());
            for (std::size_t i = 0; i < picked.size(); ++i)
                comp[i] = static_cast<int>(i);
            bool changed = true;
            while (changed) {
                changed = false;
                for (std::size_t i = 0; i < picked.size(); ++i) {
                    for (std::size_t j = i + 1; j < picked.size(); ++j) {
                        const auto &a = edges[picked[i]];
                        const auto &b = edges[picked[j]];
                        const bool touch = a.first == b.first
                            || a.first == b.second
                            || a.second == b.first
                            || a.second == b.second;
                        if (touch && comp[i] != comp[j]) {
                            const int from = std::max(comp[i], comp[j]);
                            const int to = std::min(comp[i], comp[j]);
                            for (auto &c : comp)
                                if (c == from)
                                    c = to;
                            changed = true;
                        }
                    }
                }
            }
            bool connected = true;
            for (const int c : comp)
                if (c != 0)
                    connected = false;
            if (connected)
                ++expected;
        }
        engines::PatternObliviousConfig config;
        config.cluster = sim::ClusterConfig::paperDefault(2);
        engines::PatternObliviousEngine engine(g, config);
        EXPECT_EQ(engine.mineFrequent(3, 0).totalInstances, expected)
            << "seed " << seed;
    }
}

TEST(PatternOblivious, SupportsMatchLabeledExpectations)
{
    // A 4-cycle labeled alternately: the A-B edge pattern has MNI
    // support 2 (two A vertices, two B vertices).
    Graph g = gen::cycle(4);
    g.setLabels({0, 1, 0, 1});
    engines::PatternObliviousConfig config;
    config.cluster = sim::ClusterConfig::paperDefault(1);
    engines::PatternObliviousEngine engine(g, config);
    const auto result = engine.mineFrequent(1, 1);
    ASSERT_EQ(result.patterns.size(), 1u);
    EXPECT_EQ(result.patterns[0].support, 2u);
    EXPECT_EQ(result.patterns[0].instances, 4u);
}

} // namespace
} // namespace khuzdul
