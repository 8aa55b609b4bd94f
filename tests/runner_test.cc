/**
 * @file
 * Tests for the DFS plan runner and the brute-force oracle itself:
 * closed-form counts on structured graphs, visitor semantics, exact
 * work accounting, and agreement with the chunked engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <set>
#include <tuple>

#include "core/chunk.hh"
#include "core/engine.hh"
#include "core/extender.hh"
#include "core/plan_runner.hh"
#include "graph/builder.hh"
#include "graph/generators.hh"
#include "pattern/bruteforce.hh"
#include "pattern/planner.hh"
#include "sim/cost_model.hh"
#include "support/check.hh"
#include "support/rng.hh"

namespace khuzdul
{
namespace
{

Count
binomial(Count n, Count k)
{
    if (k > n)
        return 0;
    Count result = 1;
    for (Count i = 0; i < k; ++i)
        result = result * (n - i) / (i + 1);
    return result;
}

TEST(BruteForce, TrianglesInCompleteGraph)
{
    const Graph g = gen::complete(7);
    EXPECT_EQ(brute::countEmbeddings(g, Pattern::triangle(), false),
              binomial(7, 3));
}

TEST(BruteForce, CliquesInCompleteGraph)
{
    const Graph g = gen::complete(8);
    EXPECT_EQ(brute::countEmbeddings(g, Pattern::clique(4), false),
              binomial(8, 4));
    EXPECT_EQ(brute::countEmbeddings(g, Pattern::clique(5), false),
              binomial(8, 5));
}

TEST(BruteForce, NoTrianglesInCycle)
{
    const Graph g = gen::cycle(10);
    EXPECT_EQ(brute::countEmbeddings(g, Pattern::triangle(), false), 0u);
    // A C10 contains exactly one embedding of C10.
    EXPECT_EQ(brute::countEmbeddings(g, Pattern::cycleOf(5), false), 0u);
}

TEST(BruteForce, WedgesInStar)
{
    const Graph g = gen::star(6); // hub + 5 leaves
    EXPECT_EQ(brute::countEmbeddings(g, Pattern::pathOf(3), false),
              binomial(5, 2));
}

TEST(BruteForce, PathsInPath)
{
    const Graph g = gen::path(10);
    EXPECT_EQ(brute::countEmbeddings(g, Pattern::pathOf(4), false), 7u);
}

TEST(BruteForce, InducedVersusNonInduced)
{
    const Graph g = gen::complete(5);
    // K5 has C(5,3) triangles but no induced wedge.
    EXPECT_EQ(brute::countEmbeddings(g, Pattern::pathOf(3), true), 0u);
    EXPECT_GT(brute::countEmbeddings(g, Pattern::pathOf(3), false), 0u);
}

TEST(BruteForce, LabeledMatchRespectsLabels)
{
    Graph g = gen::cycle(4);
    g.setLabels({0, 1, 0, 1});
    Pattern edge01(2, {{0, 1}});
    edge01.setLabel(0, 0);
    edge01.setLabel(1, 1);
    EXPECT_EQ(brute::countEmbeddings(g, edge01, false), 4u);
    Pattern edge00(2, {{0, 1}});
    edge00.setLabel(0, 0);
    edge00.setLabel(1, 0);
    EXPECT_EQ(brute::countEmbeddings(g, edge00, false), 0u);
}

TEST(Runner, MatchesClosedFormsOnStructuredGraphs)
{
    const Graph k8 = gen::complete(8);
    for (int k = 3; k <= 5; ++k) {
        const auto plan = compileAutomine(Pattern::clique(k), {});
        EXPECT_EQ(core::countWithPlan(k8, plan), binomial(8, k));
    }
    const Graph c12 = gen::cycle(12);
    const auto cycle_plan = compileAutomine(Pattern::cycleOf(4), {});
    EXPECT_EQ(core::countWithPlan(c12, cycle_plan), 0u);
    const Graph grid = gen::grid(4, 5);
    // Each unit square of the grid is a 4-cycle: 3x4 squares.
    EXPECT_EQ(core::countWithPlan(grid, cycle_plan), 12u);
}

TEST(Runner, SingleVertexAndEdgePatterns)
{
    const Graph g = gen::rmat(100, 300, 0.5, 0.2, 0.2, 9);
    const auto v_plan = compileAutomine(Pattern(1), {});
    EXPECT_EQ(core::countWithPlan(g, v_plan), g.numVertices());
    const auto e_plan = compileAutomine(Pattern::pathOf(2), {});
    EXPECT_EQ(core::countWithPlan(g, e_plan), g.numEdges());
}

TEST(Runner, VisitorSeesEveryEmbeddingOnce)
{
    const Graph g = gen::complete(6);
    const auto plan = compileAutomine(Pattern::triangle(), {});
    std::set<std::set<VertexId>> seen;
    class Collect : public core::MatchVisitor
    {
      public:
        explicit Collect(std::set<std::set<VertexId>> &out) : out_(out) {}
        void
        match(std::span<const VertexId> positions) override
        {
            std::set<VertexId> key(positions.begin(), positions.end());
            EXPECT_EQ(key.size(), positions.size()) << "repeated vertex";
            EXPECT_TRUE(out_.insert(key).second) << "duplicate embedding";
        }

      private:
        std::set<std::set<VertexId>> &out_;
    } collector(seen);
    std::vector<VertexId> roots(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        roots[v] = v;
    core::runPlanDfs(g, plan, roots, &collector);
    EXPECT_EQ(seen.size(), 20u); // C(6,3)
}

TEST(Runner, VisitorRejectsIepPlans)
{
    const Graph g = gen::complete(5);
    GraphProfile profile{5.0, 4.0};
    const auto plan = compileGraphPi(Pattern::triangle(), profile, {});
    ASSERT_TRUE(plan.hasIep);
    class Nop : public core::MatchVisitor
    {
        void match(std::span<const VertexId>) override {}
    } visitor;
    std::vector<VertexId> roots{0};
    EXPECT_THROW(core::runPlanDfs(g, plan, roots, &visitor), FatalError);
}

std::vector<VertexId>
allRoots(const Graph &g)
{
    std::vector<VertexId> roots(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        roots[v] = v;
    return roots;
}

/** One plan per step shape the baselines price, with the runner's
 *  exact output on pricedGraph().  G-thinker, the aDFS-like mover
 *  and the single-machine engines derive modeled time from these
 *  counters, so any drift changes their modeled results. */
struct PricedPlan
{
    ExtendPlan plan;
    std::int64_t rawCount;
    core::WorkItems workItems;
    Count candidatesChecked;
    Count embeddingsVisited;
    /** Length and FNV-1a hash of the onEdgeListAccess sequence. */
    std::uint64_t accesses;
    std::uint64_t accessHash;
};

Graph
pricedGraph()
{
    return gen::rmat(300, 2400, 0.55, 0.2, 0.2, 4);
}

std::vector<PricedPlan>
pricedPlans(const Graph &g)
{
    PlanOptions induced;
    induced.induced = true;
    const GraphProfile profile = GraphProfile::fromGraph(g);
    // clique4 shares vertically, induced cycle4 subtracts anti-masks,
    // GraphPi's clique5 ends in an IEP block that reuses the last
    // prefix level's stored candidates, and house's terminal level is
    // served from the candidate memo (both compilers pick the same
    // matching order, hence the same numbers).
    return {
        {compileAutomine(Pattern::clique(4), {}), 5993, 352592, 40297,
         6342, 8143, 15306117130340373648ull},
        {compileAutomine(Pattern::cycleOf(4), induced), 20009, 2721454,
         129285, 30408, 88823, 2747547030078824189ull},
        {compileGraphPi(Pattern::clique(5), profile, {}), 27675, 693385,
         40297, 12335, 14136, 1629163333465086772ull},
        {compileAutomine(Pattern::house(), {}), 4822373, 40823261,
         6102977, 551149, 1089275, 3047983397963589736ull},
        {compileGraphPi(Pattern::house(), profile, {}), 4822373,
         40823261, 6102977, 551149, 1089275, 3047983397963589736ull},
    };
}

TEST(Runner, WorkCountersArePopulated)
{
    const Graph g = pricedGraph();
    const auto plans = pricedPlans(g);
    const ExtendPlan &graphpi = plans[2].plan;
    ASSERT_TRUE(graphpi.hasIep);
    ASSERT_TRUE(std::find(graphpi.iep.maskReuse.begin(),
                          graphpi.iep.maskReuse.end(), true)
                != graphpi.iep.maskReuse.end());
    for (const std::size_t house : {3u, 4u})
        ASSERT_NE(core::candidateMemoKey(plans[house].plan, 4), 0u);
    for (const PricedPlan &p : plans) {
        const auto result = core::runPlanDfs(g, p.plan, allRoots(g));
        EXPECT_EQ(result.rawCount, p.rawCount) << p.plan.toString();
        EXPECT_EQ(result.workItems, p.workItems) << p.plan.toString();
        EXPECT_EQ(result.candidatesChecked, p.candidatesChecked)
            << p.plan.toString();
        EXPECT_EQ(result.embeddingsVisited, p.embeddingsVisited)
            << p.plan.toString();
    }
}

TEST(Runner, HooksObserveEdgeListAccesses)
{
    // The aDFS-like mover decides migrations read by read, so the
    // order of the reads matters, not just their number.
    class HashAccess : public core::RunnerHooks
    {
      public:
        std::uint64_t accesses = 0;
        std::uint64_t hash = 14695981039346656037ull;
        void
        onEdgeListAccess(VertexId v) override
        {
            ++accesses;
            hash = (hash ^ v) * 1099511628211ull;
        }
    };
    const Graph g = pricedGraph();
    for (const PricedPlan &p : pricedPlans(g)) {
        HashAccess hooks;
        core::runPlanDfs(g, p.plan, allRoots(g), nullptr, &hooks);
        EXPECT_EQ(hooks.accesses, p.accesses) << p.plan.toString();
        EXPECT_EQ(hooks.hash, p.accessHash) << p.plan.toString();
    }
}

/** runPlanDfs and the chunked engine step through the same
 *  PlanExtender: raw counts and charged set-kernel work agree at
 *  every node count. */
TEST(Runner, AgreesWithEngineOnCountsAndWork)
{
    const Graph g = gen::rmat(400, 3200, 0.55, 0.2, 0.2, 13);
    const GraphProfile profile = GraphProfile::fromGraph(g);
    PlanOptions induced;
    induced.induced = true;
    std::vector<ExtendPlan> plans;
    for (const Pattern &p :
         {Pattern::clique(4), Pattern::cycleOf(4), Pattern::diamond(),
          Pattern::tailedTriangle(), Pattern::starOf(4),
          Pattern::house()}) {
        plans.push_back(compileAutomine(p, {}));
        plans.push_back(compileAutomine(p, induced));
        plans.push_back(compileGraphPi(p, profile, {}));
    }
    for (const ExtendPlan &plan : plans) {
        const auto dfs = core::runPlanDfs(g, plan, allRoots(g));
        for (const NodeId nodes : {1u, 4u}) {
            core::EngineConfig config;
            config.graph.cluster = sim::ClusterConfig::paperDefault(nodes);
            config.session.chunkBytes = 64 << 10;
            core::Engine engine(g, config);
            const Count count = engine.run(plan);
            EXPECT_EQ(static_cast<std::int64_t>(count) * plan.countDivisor,
                      dfs.rawCount)
                << nodes << " nodes\n" << plan.toString();
            core::WorkItems items = 0;
            for (const sim::NodeStats &node : engine.stats().nodes)
                items += node.intersectionItems;
            EXPECT_EQ(items, dfs.workItems)
                << nodes << " nodes\n" << plan.toString();
        }
    }
}

/** The engine's terminal filter is rebuilt only when the prefix it
 *  reads changes: house and cycle4 reuse it across a sibling run,
 *  star4, tailed and path4 rebuild it per embedding.  256-byte
 *  chunks make sibling runs straddle chunk refills.  Counts match
 *  runPlanDfs and the modeled dump is pinned. */
TEST(Runner, SmallChunkEngineRunsArePinned)
{
    const Graph g = pricedGraph();
    struct Pinned
    {
        Pattern pattern;
        std::size_t jsonBytes;
        std::uint64_t jsonHash;
    };
    const Pinned pins[] = {
        {Pattern::house(), 8488, 8802106732478670955ull},
        {Pattern::cycleOf(4), 8364, 911700152874831073ull},
        {Pattern::starOf(4), 7820, 12501413936560129007ull},
        {Pattern::tailedTriangle(), 8294, 16663112604618442553ull},
        {Pattern::pathOf(4), 8250, 690981814607647228ull},
    };
    for (const Pinned &pin : pins) {
        const ExtendPlan plan = compileAutomine(pin.pattern, {});
        SCOPED_TRACE(plan.toString());
        core::EngineConfig config;
        config.graph.cluster = sim::ClusterConfig::paperDefault(4);
        config.session.chunkBytes = 256;
        core::Engine engine(g, config);
        const Count count = engine.run(plan);
        EXPECT_EQ(static_cast<std::int64_t>(count) * plan.countDivisor,
                  core::runPlanDfs(g, plan, allRoots(g)).rawCount);
        const std::string json = engine.stats().toJson(false);
        std::uint64_t hash = 14695981039346656037ull;
        for (const char c : json)
            hash = (hash ^ static_cast<unsigned char>(c))
                * 1099511628211ull;
        EXPECT_EQ(json.size(), pin.jsonBytes);
        EXPECT_EQ(hash, pin.jsonHash);
    }
}

/** A level with no set operation hands back a view, not a copy: of
 *  the stored set (a reuse with no extra list) or of its lone edge
 *  list.  Nothing is charged, no kernel runs and `out` is left
 *  alone. */
TEST(Runner, LevelsWithoutASetOperationReturnViews)
{
    const Graph g = pricedGraph();
    const ExtendPlan diamond = compileAutomine(Pattern::diamond(), {});
    const PlanLevel &reuse = diamond.levels[3];
    ASSERT_TRUE(reuse.reuseParent);
    ASSERT_EQ(reuse.extraDepMask | reuse.extraAntiMask, 0u);
    {
        core::PlanExtender extender(g, diamond);
        const std::vector<VertexId> stored = {3, 5, 8, 13};
        std::vector<VertexId> out;
        sim::NodeStats stats;
        const std::span<const VertexId> set =
            extender.buildCandidates(3, stored, out, stats);
        EXPECT_EQ(set.data(), stored.data());
        EXPECT_EQ(set.size(), stored.size());
        EXPECT_TRUE(out.empty());
        EXPECT_EQ(stats.intersectionItems, 0u);
        EXPECT_EQ(stats.verticalReuses, 1u);
        EXPECT_EQ(extender.kernelCounters().total(), 0u);
    }

    // (plan, level, the position of its one dependency list)
    const std::tuple<ExtendPlan, int, int> lone[] = {
        {compileAutomine(Pattern::starOf(4), {}), 2, 0},
        {compileAutomine(Pattern::starOf(4), {}), 3, 0},
        {compileAutomine(Pattern::house(), {}), 3, 1},
    };
    for (const auto &[plan, t, dep] : lone) {
        SCOPED_TRACE(plan.toString() + " L" + std::to_string(t));
        ASSERT_FALSE(plan.levels[t].reuseParent);
        ASSERT_EQ(plan.levels[t].depMask, PositionMask{1} << dep);
        ASSERT_EQ(plan.levels[t].antiMask, 0u);
        core::PlanExtender extender(g, plan);
        for (int j = 0; j < t; ++j)
            extender.vertices()[j] = static_cast<VertexId>(j + 1);
        const VertexId v = extender.vertices()[dep];
        ASSERT_GT(g.degree(v), 0u);
        std::vector<VertexId> out;
        sim::NodeStats stats;
        const std::span<const VertexId> set =
            extender.buildCandidates(t, {}, out, stats);
        EXPECT_EQ(set.data(), g.neighbors(v).data());
        EXPECT_EQ(set.size(), g.degree(v));
        EXPECT_TRUE(out.empty());
        EXPECT_EQ(stats.intersectionItems, 0u);
        EXPECT_EQ(extender.kernelCounters().total(), 0u);
    }
}

/** Plans whose levels the candidate memo must leave alone. */
std::vector<ExtendPlan>
unmemoizedPlans(const Graph &g)
{
    const GraphProfile profile = GraphProfile::fromGraph(g);
    PlanOptions induced;
    induced.induced = true;
    return {compileAutomine(Pattern::cycleOf(4), {}),
            compileGraphPi(Pattern::cycleOf(5), profile, {}),
            compileAutomine(Pattern::clique(5), {}),
            compileGraphPi(Pattern::clique(5), profile, {}),
            compileAutomine(Pattern::house(), induced)};
}

TEST(CandidateMemo, OnlyLevelsWithRepeatingKeysAreMemoized)
{
    // House's terminal intersects N(v0) and N(v3); level 3 reads only
    // v1, so every v2 sibling repeats the same (v0, v3) keys.
    const ExtendPlan house = compileAutomine(Pattern::house(), {});
    for (int t = 0; t < house.pattern.size(); ++t)
        EXPECT_EQ(core::candidateMemoKey(house, t), t == 4 ? 0x9u : 0u)
            << t;
    // cycle4 omits only the root; GraphPi's cycle5 terminal omits v1,
    // which level 3 reads; cliques, IEP suffixes, reuse levels and
    // induced plans key on every earlier position.
    for (const ExtendPlan &plan : unmemoizedPlans(pricedGraph()))
        for (int t = 0; t < plan.pattern.size(); ++t)
            EXPECT_EQ(core::candidateMemoKey(plan, t), 0u)
                << t << "\n" << plan.toString();
}

/** Records every edge-list read of one step, in order. */
class RecordReads : public core::RunnerHooks
{
  public:
    std::vector<VertexId> reads;

    void
    onEdgeListAccess(VertexId v) override
    {
        reads.push_back(v);
    }
};

/** Plans whose terminal level counts instead of building, GraphPi's
 *  compiled against `khuzdul plan`'s default profile (no IEP).
 *  Unshared clique4's terminal folds three dep lists. */
std::vector<ExtendPlan>
countOnlyPlans()
{
    const GraphProfile profile{100000.0, 16.0};
    PlanOptions unshared;
    unshared.verticalSharing = false;
    return {compileGraphPi(Pattern::cycleOf(4), profile, {}),
            compileGraphPi(Pattern::clique(6), profile, {}),
            compileAutomine(Pattern::triangle(), {}),
            compileAutomine(Pattern::cycleOf(4), {}),
            compileAutomine(Pattern::clique(4), unshared)};
}

TEST(CountOnlyTerminal, OnlyOneBoundTerminalsEndingInAnIntersection)
{
    // GraphPi's cycle4 terminal is N(v1) ∩ N(v2) above v0, clique6's
    // the stored set ∩ N(v4) above v4, Automine's triangle and cycle4
    // fold two lists above v1, unshared clique4 three above v2.
    for (const ExtendPlan &plan : countOnlyPlans()) {
        EXPECT_FALSE(plan.hasIep) << plan.toString();
        EXPECT_TRUE(core::countOnlyTerminal(plan)) << plan.toString();
    }
    // House's terminal is memoized, induced cycle4's subtracts N(v0),
    // clique5's is an IEP fold and a labelled terminal filters on
    // its label.
    const GraphProfile profile = GraphProfile::fromGraph(pricedGraph());
    PlanOptions induced;
    induced.induced = true;
    Pattern labelled = Pattern::triangle();
    labelled.setLabel(0, 1);
    labelled.setLabel(1, 1);
    labelled.setLabel(2, 2);
    const ExtendPlan clique5 =
        compileGraphPi(Pattern::clique(5), profile, {});
    ASSERT_TRUE(clique5.hasIep);
    const ExtendPlan labelled_plan = compileAutomine(labelled, {});
    ASSERT_TRUE(labelled_plan.levels.back().hasLabelFilter);
    for (const ExtendPlan &plan :
         {compileGraphPi(Pattern::house(), profile, {}),
          compileGraphPi(Pattern::cycleOf(4), profile, induced), clique5,
          labelled_plan})
        EXPECT_FALSE(core::countOnlyTerminal(plan)) << plan.toString();
}

TEST(CountOnlyTerminal, CountChargesWhatTheBuiltSetAndScanCharge)
{
    // countTerminal against buildCandidates plus the per-candidate
    // scan, on arbitrary prefixes and stored sets: the same split,
    // work, per-kind tallies, edge-list reads and ledger bits.  On
    // arbitrary prefixes unshared clique4's first fold is often
    // empty, where intersectMany stops.
    const Graph g = pricedGraph();
    Rng rng(41);
    for (const ExtendPlan &plan : countOnlyPlans()) {
        SCOPED_TRACE(plan.toString());
        const int t = plan.pattern.size() - 1;
        const PlanLevel &level = plan.levels[t];
        const int operations = level.reuseParent
            ? std::popcount(level.extraDepMask)
            : std::popcount(level.depMask) - 1;
        RecordReads hooks;
        core::PlanExtender built(g, plan, core::KernelMode::Auto, &hooks);
        core::PlanExtender counted(g, plan, core::KernelMode::Auto,
                                   &hooks);
        std::vector<VertexId> out;
        int early_exits = 0;
        for (int trial = 0; trial < 3000; ++trial) {
            for (int j = 0; j < t; ++j)
                built.vertices()[j] = counted.vertices()[j] =
                    static_cast<VertexId>(
                        rng.nextBounded(g.numVertices()));
            const std::span<const VertexId> stored = g.neighbors(
                static_cast<VertexId>(rng.nextBounded(g.numVertices())));

            hooks.reads.clear();
            const std::uint64_t built_calls =
                built.kernelCounters().total();
            built.exchangeWork(static_cast<double>(trial));
            sim::NodeStats built_stats;
            const std::span<const VertexId> set =
                built.buildCandidates(t, stored, out, built_stats);
            const core::CandidateFilter accepts = built.filter(t);
            double ns = built.workNs();
            Count below = 0;
            Count at_or_above = 0;
            for (const VertexId candidate : set) {
                ns += sim::cost::candidateCheckNs;
                if (!accepts(candidate)) {
                    ++below;
                    continue;
                }
                ++at_or_above;
                ns += sim::cost::terminalNs;
            }
            const std::vector<VertexId> built_reads = hooks.reads;
            if (built.kernelCounters().total() - built_calls
                < static_cast<std::uint64_t>(operations))
                ++early_exits;

            hooks.reads.clear();
            counted.exchangeWork(static_cast<double>(trial));
            sim::NodeStats counted_stats;
            const core::SplitCount count =
                counted.countTerminal(stored, counted_stats);
            ASSERT_EQ(count.below, below) << trial;
            ASSERT_EQ(count.atOrAbove, at_or_above) << trial;
            ASSERT_EQ(counted.workNs(), ns) << trial;
            ASSERT_EQ(counted_stats.intersectionItems,
                      built_stats.intersectionItems)
                << trial;
            ASSERT_EQ(counted_stats.verticalReuses,
                      built_stats.verticalReuses)
                << trial;
            ASSERT_EQ(hooks.reads, built_reads) << trial;
            ASSERT_EQ(counted.kernelCounters().calls,
                      built.kernelCounters().calls)
                << trial;
        }
        if (operations >= 2 && !level.reuseParent) {
            EXPECT_GT(early_exits, 0);
        }
    }
}

TEST(CountOnlyTerminal, RunnerCountsLikeItsVisitedScan)
{
    // A visitor forces the per-candidate scan; without one the
    // terminal counts.  Counters and edge-list reads must not tell.
    class Nop : public core::MatchVisitor
    {
      public:
        void match(std::span<const VertexId>) override {}
    };
    const Graph g = pricedGraph();
    for (const ExtendPlan &plan : countOnlyPlans()) {
        SCOPED_TRACE(plan.toString());
        Nop visitor;
        RecordReads visited_reads;
        RecordReads counted_reads;
        const auto visited = core::runPlanDfs(g, plan, allRoots(g),
                                              &visitor, &visited_reads);
        const auto counted = core::runPlanDfs(g, plan, allRoots(g),
                                              nullptr, &counted_reads);
        EXPECT_GT(counted.rawCount, 0);
        EXPECT_EQ(counted.rawCount, visited.rawCount);
        EXPECT_EQ(counted.workItems, visited.workItems);
        EXPECT_EQ(counted.candidatesChecked, visited.candidatesChecked);
        EXPECT_EQ(counted.embeddingsVisited, visited.embeddingsVisited);
        EXPECT_EQ(counted_reads.reads, visited_reads.reads);
    }
}

/** Plans whose terminal takes the masked scan: house's memoized
 *  N(v0) ∩ N(v3), induced house's (a subtraction), Automine diamond's
 *  (a view of the stored set above the bound v2) and a labelled
 *  house's. */
std::vector<ExtendPlan>
maskedTerminalPlans()
{
    PlanOptions induced;
    induced.induced = true;
    Pattern labelled = Pattern::house();
    for (int v = 0; v < labelled.size(); ++v)
        labelled.setLabel(v, static_cast<Label>(v % 2));
    return {compileAutomine(Pattern::house(), {}),
            compileAutomine(Pattern::house(), induced),
            compileAutomine(Pattern::diamond(), {}),
            compileAutomine(labelled, {})};
}

/**
 * A random prefix tree of a plan's first @p t levels, laid out as the
 * explorer lays it out: children of one parent contiguous, parents
 * ascending, and every level t - 1 entry storing a random edge list
 * as its stored result.  Three vertices in four are drawn from
 * @p hubs, so keys repeat across siblings.
 */
std::vector<core::Chunk>
prefixTree(const Graph &g, int t, std::span<const VertexId> hubs,
           Rng &rng)
{
    const auto draw = [&] {
        return rng.nextBounded(4) != 0
            ? hubs[rng.nextBounded(hubs.size())]
            : static_cast<VertexId>(rng.nextBounded(g.numVertices()));
    };
    std::vector<core::Chunk> chunks(t, core::Chunk(std::uint64_t{1} << 24));
    for (int root = 0; root < 3; ++root)
        chunks[0].add(draw(), core::kNoParent, false);
    for (int l = 1; l < t; ++l)
        for (std::uint32_t p = 0; p < chunks[l - 1].size(); ++p)
            for (std::uint64_t k = 0, n = 1 + rng.nextBounded(4); k < n;
                 ++k)
                chunks[l].add(draw(), p, false);
    core::Chunk &last = chunks[t - 1];
    for (std::uint32_t idx = 0; idx < last.size(); ++idx) {
        const std::span<const VertexId> stored = g.neighbors(draw());
        last.setResultRef(idx, last.appendResult(stored),
                          static_cast<std::uint32_t>(stored.size()));
    }
    return chunks;
}

TEST(MaskedTerminal, ScanChargesWhatTheBranchyScanCharges)
{
    // extendTerminal on random prefix trees against buildCandidates
    // plus the per-candidate CandidateFilter scan, from nonzero
    // ledgers: the same raw count, ledger bits, work, per-kind
    // tallies and edge-list reads, and with a visitor the same
    // matches in the same order.  House's (v0, v3) keys repeat across
    // v2 siblings, so its terminal is served by memo hits too.
    class Record : public core::MatchVisitor
    {
      public:
        std::vector<VertexId> seen;
        void
        match(std::span<const VertexId> embedding) override
        {
            seen.insert(seen.end(), embedding.begin(), embedding.end());
        }
    };
    Graph g = pricedGraph();
    gen::randomizeLabels(g, 2, 5);
    std::vector<VertexId> hubs(g.numVertices());
    std::iota(hubs.begin(), hubs.end(), VertexId{0});
    std::partial_sort(hubs.begin(), hubs.begin() + 12, hubs.end(),
                      [&](VertexId a, VertexId b) {
                          return g.degree(a) > g.degree(b);
                      });
    hubs.resize(12);
    ASSERT_TRUE(maskedTerminalPlans().back().levels.back().hasLabelFilter);
    Rng rng(47);
    for (const ExtendPlan &plan : maskedTerminalPlans()) {
        SCOPED_TRACE(plan.toString());
        ASSERT_FALSE(plan.hasIep);
        ASSERT_FALSE(core::countOnlyTerminal(plan));
        const int t = plan.pattern.size() - 1;
        std::int64_t total = 0;
        std::uint64_t hits = 0;
        for (int trial = 0; trial < 60; ++trial) {
            const std::vector<core::Chunk> chunks =
                prefixTree(g, t, hubs, rng);
            RecordReads reference_reads;
            RecordReads masked_reads;
            RecordReads visited_reads;
            core::PlanExtender reference(g, plan, core::KernelMode::Auto,
                                         &reference_reads);
            core::PlanExtender masked(g, plan, core::KernelMode::Auto,
                                      &masked_reads);
            core::PlanExtender visited(g, plan, core::KernelMode::Auto,
                                       &visited_reads);
            std::vector<VertexId> out;
            for (std::uint32_t idx = 0; idx < chunks[t - 1].size(); ++idx) {
                const double start = 1.0 / 3.0 + trial + 0.1 * idx;
                reference.recoverVertices(chunks, t - 1, idx);
                reference.exchangeWork(start);
                sim::NodeStats reference_stats;
                const std::span<const VertexId> set =
                    reference.buildCandidates(t, chunks[t - 1].result(idx),
                                              out, reference_stats);
                const core::CandidateFilter accepts = reference.filter(t);
                double ns = reference.workNs();
                std::int64_t raw = 0;
                std::vector<VertexId> matches;
                for (const VertexId candidate : set) {
                    ns += sim::cost::candidateCheckNs;
                    if (!accepts(candidate))
                        continue;
                    ++raw;
                    ns += sim::cost::terminalNs;
                    reference.vertices()[t] = candidate;
                    matches.insert(matches.end(),
                                   reference.vertices().begin(),
                                   reference.vertices().begin() + t + 1);
                }

                masked.exchangeWork(start);
                sim::NodeStats masked_stats;
                ASSERT_EQ(masked.extendTerminal(chunks, t - 1, idx,
                                                nullptr, masked_stats),
                          raw)
                    << trial << "/" << idx;
                Record visitor;
                visited.exchangeWork(start);
                sim::NodeStats visited_stats;
                ASSERT_EQ(visited.extendTerminal(chunks, t - 1, idx,
                                                 &visitor, visited_stats),
                          raw)
                    << trial << "/" << idx;
                ASSERT_EQ(visitor.seen, matches) << trial << "/" << idx;
                for (const core::PlanExtender *extender : {&masked, &visited})
                    ASSERT_EQ(std::bit_cast<std::uint64_t>(extender->workNs()),
                              std::bit_cast<std::uint64_t>(ns))
                        << trial << "/" << idx;
                for (const sim::NodeStats *stats :
                     {&masked_stats, &visited_stats}) {
                    ASSERT_EQ(stats->intersectionItems,
                              reference_stats.intersectionItems);
                    ASSERT_EQ(stats->verticalReuses,
                              reference_stats.verticalReuses);
                }
                total += raw;
            }
            ASSERT_EQ(masked.kernelCounters().calls,
                      reference.kernelCounters().calls);
            ASSERT_EQ(visited.kernelCounters().calls,
                      reference.kernelCounters().calls);
            ASSERT_EQ(masked_reads.reads, reference_reads.reads);
            ASSERT_EQ(visited_reads.reads, reference_reads.reads);
            hits += masked.memoCounters().hits;
        }
        EXPECT_GT(total, 0);
        if (core::candidateMemoKey(plan, t) != 0) {
            EXPECT_GT(hits, 0u);
        }
    }
}

TEST(CandidateMemo, HitReplaysTheMissExactly)
{
    const Graph g = pricedGraph();
    const ExtendPlan plan = compileAutomine(Pattern::house(), {});
    RecordReads hooks;
    core::PlanExtender extender(g, plan, core::KernelMode::Auto, &hooks);
    struct Step
    {
        std::vector<VertexId> out;
        bool computed = false; ///< the view points into `out`
        bool arena = false;    ///< the view points into the memo
        core::WorkItems items = 0;
        double ns = 0;
        std::array<std::uint64_t, core::kNumKernelKinds> calls{};
        std::vector<VertexId> reads;
    };
    std::vector<VertexId> scratch;
    const auto step = [&](VertexId v2, VertexId v3) {
        extender.vertices()[2] = v2;
        extender.vertices()[3] = v3;
        hooks.reads.clear();
        const core::KernelCounters before = extender.kernelCounters();
        extender.exchangeWork(0);
        Step s;
        sim::NodeStats stats;
        const std::span<const VertexId> set =
            extender.buildCandidates(4, {}, scratch, stats);
        s.computed = set.data() == scratch.data();
        s.arena = extender.viewsMemoArena(set);
        s.out.assign(set.begin(), set.end());
        s.items = stats.intersectionItems;
        s.ns = extender.workNs();
        for (std::size_t k = 0; k < core::kNumKernelKinds; ++k)
            s.calls[k] = extender.kernelCounters().calls[k]
                - before.calls[k];
        s.reads = hooks.reads;
        return s;
    };
    extender.vertices()[0] = 0;
    extender.vertices()[1] = 2;
    const Step miss = step(3, 1);
    // v2 is outside the key: the same (v0, v3) hits.
    const Step hit = step(4, 1);
    EXPECT_EQ(extender.memoCounters().lookups, 2u);
    EXPECT_EQ(extender.memoCounters().hits, 1u);
    EXPECT_EQ(extender.memoCounters().tables, 1u);

    std::vector<VertexId> expected;
    const core::WorkItems work =
        core::intersectInto(g.neighbors(0), g.neighbors(1), expected);
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(miss.out, expected);
    EXPECT_EQ(miss.items, work);
    EXPECT_EQ(miss.reads, (std::vector<VertexId>{0, 1}));
    EXPECT_GT(std::accumulate(miss.calls.begin(), miss.calls.end(),
                              std::uint64_t{0}),
              0u);
    EXPECT_TRUE(miss.computed);
    EXPECT_FALSE(miss.arena);
    // A hit is a view of the memo's copy, not a copy into `out`.
    EXPECT_FALSE(hit.computed);
    EXPECT_TRUE(hit.arena);
    EXPECT_EQ(hit.out, miss.out);
    EXPECT_EQ(hit.items, miss.items);
    EXPECT_EQ(hit.ns, miss.ns);
    EXPECT_EQ(hit.calls, miss.calls);
    EXPECT_EQ(hit.reads, miss.reads);

    // Another v3 is another key.
    step(3, 5);
    EXPECT_EQ(extender.memoCounters().lookups, 3u);
    EXPECT_EQ(extender.memoCounters().hits, 1u);
}

TEST(CandidateMemo, StaysExactAcrossArenaOverflow)
{
    // On K400 every N(v0) ∩ N(v3) holds 398 ids, so 900 keys store
    // several arenas' worth and force repeated invalidation.
    const Graph g = gen::complete(400);
    const ExtendPlan plan = compileAutomine(Pattern::house(), {});
    core::PlanExtender extender(g, plan);
    std::vector<VertexId> out;
    std::vector<VertexId> expected;
    for (int pass = 0; pass < 2; ++pass) {
        for (VertexId a = 0; a < 30; ++a) {
            for (VertexId b = 30; b < 60; ++b) {
                extender.vertices()[0] = a;
                extender.vertices()[3] = b;
                expected.clear();
                const core::WorkItems work = core::intersectInto(
                    g.neighbors(a), g.neighbors(b), expected);
                // The second lookup of each key always hits.
                for (int repeat = 0; repeat < 2; ++repeat) {
                    sim::NodeStats stats;
                    const std::span<const VertexId> set =
                        extender.buildCandidates(4, {}, out, stats);
                    ASSERT_TRUE(std::equal(set.begin(), set.end(),
                                           expected.begin(),
                                           expected.end()))
                        << a << "," << b;
                    ASSERT_EQ(stats.intersectionItems, work);
                }
            }
        }
    }
    EXPECT_EQ(extender.memoCounters().lookups, 3600u);
    EXPECT_GE(extender.memoCounters().hits, 1800u);
    EXPECT_EQ(extender.memoCounters().tables, 1u);
}

TEST(CandidateMemo, RunnerCopiesANonTerminalHitBeforeTheArenaResets)
{
    // Automine memoizes two levels of this pattern: L4, N(v1) ∩ N(v3),
    // which is not terminal, and L5, N(v0) ∩ N(v3).  The graph makes
    // the runner's first stored set the L4 set {p1, p2} of key (a, c),
    // at arena offset 0 under root p1, then fills the arena exactly
    // with the L4 sets N(a) ∩ N(d) = {p1} ∪ F of kFillers vertices d
    // whose L5 sets are empty.  Under root p2 key (a, c) hits, and the
    // first accepted v4 (p1) misses L5 key (p2, c): storing {g1, g2}
    // resets the arena and writes over the slots the L4 loop still has
    // to visit.  A runner that kept iterating the arena would see g2
    // where p2 was and count an embedding that does not exist.  Each
    // d meets kPerFiller of the kShared vertices F, so no vertex's
    // degree grows past about a thousand: the brute-force oracle's
    // cost is the sum of squared degrees.
    const ExtendPlan plan = compileAutomine(
        Pattern(6, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 4}, {3, 4},
                    {0, 5}, {1, 5}}),
        {});
    ASSERT_EQ(core::candidateMemoKey(plan, 4), PositionMask{0b1010});
    ASSERT_EQ(core::candidateMemoKey(plan, 5), PositionMask{0b1001});

    // PlanExtender's memo arena holds 2^16 ids: the (a, c) set's two
    // plus kFillers * (kPerFiller + 1) fill it to the last id.
    constexpr VertexId kFillers = 1057;
    constexpr VertexId kPerFiller = 61;
    constexpr VertexId kShared = kFillers;
    static_assert(2 + kFillers * (kPerFiller + 1) == VertexId{1} << 16);
    constexpr VertexId p1 = 0, p2 = 1, a = 2, c = 3;
    constexpr VertexId d0 = 4, f0 = d0 + kFillers;
    constexpr VertexId x = f0 + kShared, y = x + 1, g1 = x + 2,
                       g2 = x + 3;
    GraphBuilder builder(g2 + 1);
    for (const auto &[u, v] :
         {std::pair{p1, a}, {p1, x}, {a, x}, {p1, c}, {p2, a}, {p2, y},
          {a, y}, {p2, c}, {p2, g1}, {p2, g2}, {c, g1}, {c, g2}})
        builder.addEdge(u, v);
    for (VertexId f = f0; f < f0 + kShared; ++f)
        builder.addEdge(a, f);
    for (VertexId i = 0; i < kFillers; ++i) {
        builder.addEdge(p1, d0 + i);
        for (VertexId j = 0; j < kPerFiller; ++j)
            builder.addEdge(d0 + i, f0 + (i + j) % kShared);
    }
    const Graph g = builder.build();

    std::vector<VertexId> roots(g.numVertices());
    std::iota(roots.begin(), roots.end(), VertexId{0});
    const core::RunnerResult runner = core::runPlanDfs(g, plan, roots);
    core::Engine engine(g, core::EngineConfig{});
    const Count expected = engine.run(plan);
    EXPECT_GT(expected, 0u);
    EXPECT_EQ(static_cast<Count>(runner.rawCount / plan.countDivisor),
              expected);
    // The plan's vertex order starts with the triangle, which keeps
    // the oracle off the 4-cycles through d and F.
    EXPECT_EQ(brute::countEmbeddings(g, plan.pattern, false), expected);
}

TEST(CandidateMemo, UnmemoizedPlansNeverLookUpOrAllocate)
{
    const Graph g = pricedGraph();
    for (const ExtendPlan &plan : unmemoizedPlans(g)) {
        core::PlanExtender extender(g, plan);
        for (int j = 0; j < plan.pattern.size(); ++j)
            extender.vertices()[j] = static_cast<VertexId>(j);
        std::array<std::vector<VertexId>, kMaxPatternSize> levels;
        sim::NodeStats stats;
        const int prefix_len = plan.numMaterializedLevels();
        for (int t = 1; t < prefix_len; ++t)
            extender.buildCandidates(t, levels[t - 1], levels[t], stats);
        if (plan.hasIep)
            extender.iepTerminal(prefix_len, levels[prefix_len - 1],
                                 stats);
        EXPECT_EQ(extender.memoCounters().lookups, 0u)
            << plan.toString();
        EXPECT_EQ(extender.memoCounters().tables, 0u)
            << plan.toString();

        core::Engine engine(g, core::EngineConfig{});
        engine.run(plan);
        EXPECT_EQ(engine.stats().candidateMemoLookups, 0u)
            << plan.toString();
        EXPECT_EQ(engine.stats().toJson().find("candidate_memo"),
                  std::string::npos)
            << plan.toString();
    }
}

TEST(CandidateMemo, HostBlockReportsHouseHits)
{
    const Graph g = pricedGraph();
    core::Engine engine(g, core::EngineConfig{});
    engine.run(compileAutomine(Pattern::house(), {}));
    const sim::RunStats &stats = engine.stats();
    EXPECT_GT(stats.candidateMemoHits, 0u);
    EXPECT_LE(stats.candidateMemoHits, stats.candidateMemoLookups);
    EXPECT_NE(stats.toJson().find("\"candidate_memo_lookups\": "
                                  + std::to_string(
                                      stats.candidateMemoLookups)
                                  + ", \"candidate_memo_hits\": "
                                  + std::to_string(
                                      stats.candidateMemoHits)),
              std::string::npos);
    EXPECT_EQ(stats.toJson(false).find("candidate_memo"),
              std::string::npos);
}

TEST(Runner, PartialRootsCoverSubsetOfTrees)
{
    const Graph g = gen::complete(6);
    const auto plan = compileAutomine(Pattern::triangle(), {});
    // Restrictions force v0 < v1 < v2, so trees rooted at the three
    // smallest vertices contain all triangles of {0..3}.
    std::vector<VertexId> all(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        all[v] = v;
    const auto full = core::runPlanDfs(g, plan, all);
    std::vector<VertexId> half{0, 1, 2};
    const auto partial = core::runPlanDfs(g, plan, half);
    EXPECT_LT(partial.rawCount, full.rawCount);
    EXPECT_GT(partial.rawCount, 0);
}

} // namespace
} // namespace khuzdul
