/**
 * @file
 * Baseline-engine tests: every engine (k-Automine, k-GraphPi,
 * AutomineIH, Peregrine/Pangolin-like, replicated GraphPi,
 * G-thinker, aDFS-like) must produce identical exact counts, and
 * each engine's characteristic cost structure must show up in its
 * modeled statistics.
 */

#include <gtest/gtest.h>

#include <array>

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
    const sim::ClusterConfig cluster = sim::ClusterConfig::paperDefault(4);
    engines::GraphPiRepEngine engine(g, cluster);
    const auto result = engine.count(Pattern::clique(4));
    EXPECT_EQ(result.count,
              brute::countEmbeddings(g, Pattern::clique(4), false));
    EXPECT_GT(result.makespanNs, 0.0);

    sim::ClusterConfig tiny = cluster;
    tiny.memoryBytesPerNode = 128;
    engines::GraphPiRepEngine oom(g, tiny);
    EXPECT_THROW(oom.count(Pattern::triangle()), FatalError);
}

TEST(GraphPiRep, NoNetworkTraffic)
{
    const Graph g = testGraph();
    engines::GraphPiRepEngine engine(g,
                                     sim::ClusterConfig::paperDefault(4));
    const auto result = engine.count(Pattern::triangle());
    EXPECT_EQ(result.stats.totalBytesSent(), 0u);
}

TEST(GThinker, CountsMatchBruteForce)
{
    const Graph g = testGraph();
    engines::GThinkerEngine engine(g, sim::ClusterConfig::singleSocket(4));
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
    engines::GThinkerEngine engine(g, sim::ClusterConfig::singleSocket(4));
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
    engines::GThinkerEngine a(g, sim::ClusterConfig::singleSocket(4));
    engines::GThinkerEngine b(g, sim::ClusterConfig::paperDefault(4));
    EXPECT_LT(a.count(Pattern::triangle()).makespanNs,
              b.count(Pattern::triangle()).makespanNs);
}

TEST(MoveComputation, CountsMatchAndTrafficIsHeavy)
{
    const Graph g = testGraph();
    engines::MoveComputationEngine engine(
        g, sim::ClusterConfig::paperDefault(4));
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
    engines::PatternObliviousEngine engine(
        g, sim::ClusterConfig::paperDefault(2));
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
        engines::PatternObliviousEngine engine(
            g, sim::ClusterConfig::paperDefault(2));
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
    engines::PatternObliviousEngine engine(
        g, sim::ClusterConfig::paperDefault(1));
    const auto result = engine.mineFrequent(1, 1);
    ASSERT_EQ(result.patterns.size(), 1u);
    EXPECT_EQ(result.patterns[0].support, 2u);
    EXPECT_EQ(result.patterns[0].instances, 4u);
}

/** One baseline run's modeled output, as pinned below. */
struct Pinned
{
    Count count;
    /** Makespan, the compute, exposed-comm, scheduler and cache
     *  totals, and the startup charge (ns). */
    std::array<double, 6> times;
    /** Summed over nodes: bytes sent, bytes received, messages,
     *  remote lists, local lists, cache hits, cache misses, cache
     *  insertions, embeddings created, intersection items. */
    std::array<std::uint64_t, 10> totals;
};

void
expectPinned(Count count, const sim::RunStats &stats,
             const Pinned &pinned)
{
    EXPECT_EQ(count, pinned.count);
    const std::array<double, 6> times = {
        stats.makespanNs(),       stats.totalComputeNs(),
        stats.totalCommExposedNs(), stats.totalSchedulerNs(),
        stats.totalCacheNs(),     stats.startupNs};
    for (std::size_t i = 0; i < times.size(); ++i)
        EXPECT_DOUBLE_EQ(times[i], pinned.times[i]) << "time " << i;
    std::array<std::uint64_t, 10> totals{};
    for (const sim::NodeStats &n : stats.nodes) {
        totals[0] += n.bytesSent;
        totals[1] += n.bytesReceived;
        totals[2] += n.messagesSent;
        totals[3] += n.listsFetchedRemote;
        totals[4] += n.listsServedLocal;
        totals[5] += n.staticCacheHits;
        totals[6] += n.staticCacheMisses;
        totals[7] += n.staticCacheInsertions;
        totals[8] += n.embeddingsCreated;
        totals[9] += n.intersectionItems;
    }
    EXPECT_EQ(totals, pinned.totals);
}

TEST(Baselines, ModeledOutputIsPinned)
{
    // Every baseline deployment constant and cost-model charge feeds
    // these numbers, so a change that moves any of them shows here.
    const Graph g = gen::rmat(300, 2400, 0.55, 0.2, 0.2, 4);
    const sim::ClusterConfig dual_socket =
        sim::ClusterConfig::paperDefault(4);

    {
        SCOPED_TRACE("G-thinker");
        const auto r = engines::GThinkerEngine(g, dual_socket)
                           .count(Pattern::diamond());
        EXPECT_DOUBLE_EQ(r.makespanNs, 2399645.3833333333);
        expectPinned(r.count, r.stats,
                     {88949,
                      {2399645.3833333333, 33714.133333333331,
                       160215.71999999997, 4320000, 4477280, 30000},
                      {34776, 34776, 102, 469, 746, 886, 469, 469,
                       14824, 115273}});
    }
    {
        SCOPED_TRACE("aDFS-like mover");
        const auto r = engines::MoveComputationEngine(g, dual_socket)
                           .count(Pattern::diamond());
        EXPECT_DOUBLE_EQ(r.makespanNs, 143709.7761904762);
        expectPinned(r.count, r.stats,
                     {88949,
                      {143709.7761904762, 33714.133333333331,
                       285551.13214285718, 0, 0, 30000},
                      {463212, 463212, 87, 0, 1192, 0, 0, 0, 14824,
                       115273}});
    }
    {
        SCOPED_TRACE("replicated GraphPi");
        const auto r = engines::GraphPiRepEngine(g, dual_socket)
                           .count(Pattern::house());
        EXPECT_DOUBLE_EQ(r.makespanNs, 8222272.3833333328);
        expectPinned(r.count, r.stats,
                     {4822373,
                      {8222272.3833333328, 12677114.349999998, 0, 0, 0,
                       2030000},
                      {0, 0, 0, 0, 0, 0, 0, 0, 551149, 40823261}});
    }
    {
        SCOPED_TRACE("single machine");
        struct SingleRun
        {
            engines::SingleMachineStyle style;
            Pattern pattern;
            Count count;
            double runtimeNs;
            std::array<std::uint64_t, 3> work; ///< items, checks, visits
        };
        using engines::SingleMachineStyle;
        const SingleRun runs[] = {
            {SingleMachineStyle::AutomineIH, Pattern::triangle(), 4241,
             40191.037499999999, {115273, 16325, 2101}},
            {SingleMachineStyle::AutomineIH, Pattern::diamond(), 88949,
             55285.599999999999, {115273, 206946, 14824}},
            {SingleMachineStyle::PeregrineLike, Pattern::triangle(), 4241,
             42229.245000000003, {115273, 16325, 2101}},
            {SingleMachineStyle::PeregrineLike, Pattern::diamond(), 88949,
             60342.720000000001, {115273, 206946, 14824}},
            {SingleMachineStyle::PangolinLike, Pattern::triangle(), 4241,
             35572.824999999997, {26246, 6042, 2101}},
            {SingleMachineStyle::PangolinLike, Pattern::diamond(), 88949,
             55285.599999999999, {115273, 206946, 14824}},
        };
        for (const SingleRun &run : runs) {
            const auto r =
                engines::SingleMachineEngine(g, run.style, {})
                    .count(run.pattern);
            SCOPED_TRACE(run.pattern.toString());
            EXPECT_EQ(r.count, run.count);
            EXPECT_DOUBLE_EQ(r.runtimeNs, run.runtimeNs);
            EXPECT_EQ((std::array<std::uint64_t, 3>{
                          r.work.workItems, r.work.candidatesChecked,
                          r.work.embeddingsVisited}),
                      run.work);
        }
    }
    {
        SCOPED_TRACE("pattern-oblivious census");
        const auto r = engines::PatternObliviousEngine(g, dual_socket)
                           .mineFrequent(2, 0);
        ASSERT_EQ(r.patterns.size(), 2u);
        EXPECT_EQ(r.patterns[0].support, 275u);
        EXPECT_EQ(r.patterns[0].instances, 1801u);
        EXPECT_EQ(r.patterns[1].support, 239u);
        EXPECT_EQ(r.patterns[1].instances, 61185u);
        EXPECT_DOUBLE_EQ(r.makespanNs, 745941.66666666663);
        expectPinned(r.totalInstances, r.stats,
                     {62986,
                      {745941.66666666663, 2781881.6666666665, 0, 0, 0,
                       30000},
                      {0, 0, 0, 0, 0, 0, 0, 0, 62986, 0}});
    }
}

} // namespace
} // namespace khuzdul
