/**
 * @file
 * Plan-compilation correctness: symmetry-breaking restrictions, the
 * count divisor, IEP terminal blocks, vertical-sharing annotations
 * and the cost model.  The key properties are verified against the
 * brute-force oracle over every connected pattern of size 3-5 and
 * every valid matching order.
 */

#include <gtest/gtest.h>

#include <bit>

#include "core/plan_runner.hh"
#include "graph/datasets.hh"
#include "graph/generators.hh"
#include "pattern/bruteforce.hh"
#include "pattern/generation.hh"
#include "pattern/isomorphism.hh"
#include "pattern/planner.hh"
#include "support/check.hh"

namespace khuzdul
{
namespace
{

Graph
testGraph()
{
    // Small but structurally rich: skewed, with many cliques.
    return gen::rmat(200, 1400, 0.55, 0.2, 0.2, 1234);
}

std::vector<std::vector<int>>
allValidOrders(const Pattern &p)
{
    std::vector<int> order(p.size());
    for (int i = 0; i < p.size(); ++i)
        order[i] = i;
    std::vector<std::vector<int>> result;
    std::sort(order.begin(), order.end());
    do {
        std::uint32_t seen = 1u << order[0];
        bool ok = true;
        for (int i = 1; i < p.size() && ok; ++i) {
            if ((p.adjacency(order[i]) & seen) == 0)
                ok = false;
            seen |= 1u << order[i];
        }
        if (ok)
            result.push_back(order);
    } while (std::next_permutation(order.begin(), order.end()));
    return result;
}

/** One word-wise FNV-1a step, as the other pins in this suite use. */
std::uint64_t
fnv(std::uint64_t hash, std::uint64_t value)
{
    return (hash ^ value) * 1099511628211ull;
}

/** Chain @p plan into @p hash: its printed form plus the IEP block's
 *  masks, reuse flags, extra masks and terms, which toString() only
 *  counts. */
std::uint64_t
planHash(std::uint64_t hash, const ExtendPlan &plan)
{
    for (const char c : plan.toString())
        hash = fnv(hash, static_cast<unsigned char>(c));
    const IepBlock &iep = plan.iep;
    hash = fnv(hash, iep.masks.size());
    for (const PositionMask mask : iep.masks)
        hash = fnv(hash, mask);
    hash = fnv(hash, iep.maskReuse.size());
    for (const bool reuse : iep.maskReuse)
        hash = fnv(hash, reuse);
    hash = fnv(hash, iep.maskExtra.size());
    for (const PositionMask extra : iep.maskExtra)
        hash = fnv(hash, extra);
    hash = fnv(hash, iep.terms.size());
    for (const auto &term : iep.terms) {
        hash = fnv(hash, static_cast<std::uint64_t>(term.coefficient));
        hash = fnv(hash, term.maskIndex.size());
        for (const int m : term.maskIndex)
            hash = fnv(hash, static_cast<std::uint64_t>(m));
    }
    return hash;
}

TEST(Planner, SetPartitionsBellNumbers)
{
    EXPECT_EQ(setPartitions(1).size(), 1u);
    EXPECT_EQ(setPartitions(2).size(), 2u);
    EXPECT_EQ(setPartitions(3).size(), 5u);
    EXPECT_EQ(setPartitions(4).size(), 15u);
    EXPECT_EQ(setPartitions(5).size(), 52u);
}

TEST(Planner, TriangleRestrictionsAreTotalOrder)
{
    const auto plan = compileAutomine(Pattern::triangle(), {});
    EXPECT_EQ(plan.countDivisor, 1);
    EXPECT_EQ(plan.levels[1].greaterThanMask, 0b001u);
    EXPECT_EQ(plan.levels[2].greaterThanMask, 0b011u);
}

TEST(Planner, WedgeRestrictionBreaksLeafSwap)
{
    // Path3 matched center-first: the two leaves are symmetric.
    const auto plan = buildPlan(Pattern::pathOf(3), {1, 0, 2}, {});
    EXPECT_EQ(plan.countDivisor, 1);
    EXPECT_EQ(plan.levels[1].greaterThanMask, 0u);
    EXPECT_EQ(plan.levels[2].greaterThanMask, 0b010u);
}

TEST(Planner, InvalidOrdersRejected)
{
    EXPECT_THROW(buildPlan(Pattern::pathOf(3), {0, 2, 1}, {}),
                 FatalError); // prefix {0,2} disconnected
    EXPECT_THROW(buildPlan(Pattern::triangle(), {0, 0, 1}, {}),
                 FatalError); // not a permutation
    EXPECT_THROW(buildPlan(Pattern::triangle(), {0, 1, 2}, {}, 3),
                 FatalError); // IEP cannot swallow the whole pattern
    PlanOptions induced;
    induced.induced = true;
    EXPECT_THROW(buildPlan(Pattern::triangle(), {0, 1, 2}, induced, 1),
                 FatalError); // IEP is incompatible with induced
}

TEST(Planner, DisconnectedPatternsAreRejected)
{
    // `1-2` leaves vertex 0 isolated; `0-1,2-3` has two components.
    // Both compilers raise the typed error buildPlan raises instead
    // of failing an internal check in their order search.
    const GraphProfile profile{100000.0, 16.0};
    for (const Pattern &p : {Pattern(3, {{1, 2}}),
                             Pattern(4, {{0, 1}, {2, 3}}), Pattern()}) {
        SCOPED_TRACE(p.toString());
        EXPECT_THROW(compileAutomine(p, {}), FatalError);
        try {
            compileGraphPi(p, profile, {});
            ADD_FAILURE() << "compileGraphPi accepted it";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("connected"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Planner, IepSuffixMustBeIndependent)
{
    // Triangle suffix of 2 is adjacent -> rejected.
    EXPECT_THROW(buildPlan(Pattern::triangle(), {0, 1, 2}, {}, 2),
                 FatalError);
    // Star suffix of 2 leaves is fine.
    EXPECT_NO_THROW(buildPlan(Pattern::starOf(3), {0, 1, 2}, {}, 2));
}

TEST(Planner, ActiveMasksAreAntiMonotone)
{
    for (const auto &p : gen::connectedPatterns(5)) {
        const auto plan = compileAutomine(p, {});
        for (std::size_t i = 1; i < plan.levels.size(); ++i) {
            const PositionMask prev = plan.levels[i - 1].activeMask
                | (1u << i);
            EXPECT_EQ(plan.levels[i].activeMask & ~prev, 0u)
                << "activeness resurrected at level " << i << " of "
                << p.toString();
        }
    }
}

TEST(Planner, CliquePlansAnnotateVerticalSharing)
{
    const auto plan = compileAutomine(Pattern::clique(5), {});
    // 4- and 5-clique levels extend the parent's intersection.
    EXPECT_TRUE(plan.levels[3].reuseParent);
    EXPECT_TRUE(plan.levels[2].storeResult);
    EXPECT_EQ(std::popcount(plan.levels[3].extraDepMask), 1);
}

TEST(Planner, GraphPiPicksIepForClique)
{
    GraphProfile profile{10000.0, 20.0};
    const auto plan = compileGraphPi(Pattern::clique(4), profile, {});
    EXPECT_TRUE(plan.hasIep);
    EXPECT_EQ(plan.iep.suffixSize, 1);
}

/** IEP vertical sharing reads the last prefix level's stored
 *  candidate set, which the step kernel takes on trust: a reusing
 *  mask needs at least two prefix levels, the last one storing. */
TEST(Planner, IepMaskReuseImpliesStoredPrefixLevel)
{
    int reusing = 0;
    for (const GraphProfile profile :
         {GraphProfile{200.0, 4.0}, GraphProfile{10000.0, 20.0},
          GraphProfile{1.0e6, 80.0}}) {
        for (int size = 3; size <= 5; ++size) {
            for (const auto &p : gen::connectedPatterns(size)) {
                const auto plan = compileGraphPi(p, profile, {});
                const int prefix = plan.numMaterializedLevels();
                for (std::size_t m = 0; m < plan.iep.maskReuse.size();
                     ++m) {
                    if (!plan.iep.maskReuse[m])
                        continue;
                    ++reusing;
                    ASSERT_GE(prefix, 2) << plan.toString();
                    EXPECT_TRUE(plan.levels[prefix - 1].storeResult)
                        << plan.toString();
                }
            }
        }
    }
    EXPECT_GT(reusing, 0);
}

/** What compileGraphPi chooses, pinned: every connected 3-6-vertex
 *  pattern under the mc and lj stand-ins' profiles with default,
 *  induced and IEP-free options, plus four 7-vertex patterns at
 *  default.  Order search may get cheaper; its choice may not move. */
TEST(Planner, GraphPiChoiceIsPinned)
{
    PlanOptions induced;
    induced.induced = true;
    PlanOptions no_iep;
    no_iep.useIep = false;
    struct Case
    {
        const char *graph;
        std::uint64_t hash;
    };
    for (const Case &c : {Case{"mc", 13162454586002927017ull},
                          Case{"lj", 9132851706884364249ull}}) {
        const GraphProfile profile =
            GraphProfile::fromGraph(datasets::byName(c.graph).graph);
        std::uint64_t hash = 14695981039346656037ull;
        for (int size = 3; size <= 6; ++size)
            for (const auto &p : gen::connectedPatterns(size))
                for (const PlanOptions &options :
                     {PlanOptions{}, induced, no_iep})
                    hash = planHash(hash,
                                    compileGraphPi(p, profile, options));
        for (const Pattern &p :
             {Pattern::clique(7), Pattern::cycleOf(7), Pattern::pathOf(7),
              Pattern::starOf(7)})
            hash = planHash(hash, compileGraphPi(p, profile, {}));
        EXPECT_EQ(hash, c.hash) << c.graph;
    }
}

/** A pattern reordered by @p order (position i holds order[i]). */
Pattern
reorderedBy(const Pattern &p, const std::vector<int> &order)
{
    iso::Permutation to_position{};
    for (int i = 0; i < p.size(); ++i)
        to_position[order[i]] = i;
    return p.permuted(to_position);
}

/** Every connected pattern of 2-5 vertices and its two-label
 *  variants. */
std::vector<Pattern>
smallPatternsAndLabelings()
{
    std::vector<Pattern> patterns;
    for (int size = 2; size <= 5; ++size) {
        for (const auto &base : gen::connectedPatterns(size)) {
            patterns.push_back(base);
            for (const auto &labeled : gen::labelings(base, 2))
                patterns.push_back(labeled);
        }
    }
    return patterns;
}

/** distinctOrders keeps the first connected order per reordered
 *  pattern, labels included.  Aut(p) acts freely on orders, so it
 *  keeps (connected orders) / |Aut(p)| of them. */
TEST(Planner, DistinctOrdersAreOnePerReorderedPattern)
{
    for (const Pattern &p : smallPatternsAndLabelings()) {
        const auto all = allValidOrders(p);
        const auto kept = distinctOrders(p);
        EXPECT_EQ(kept.size() * iso::automorphisms(p).size(), all.size())
            << p.toString();
        for (const auto &order : all) {
            const Pattern reordered = reorderedBy(p, order);
            int matches = 0;
            for (const auto &first : kept) {
                if (reorderedBy(p, first) == reordered) {
                    ++matches;
                    EXPECT_LE(first, order) << p.toString();
                }
            }
            EXPECT_EQ(matches, 1)
                << p.toString() << " " << testing::PrintToString(order);
        }
    }
}

/** compileGraphPi equals the plain exhaustive search it replaces:
 *  every connected order, every admissible IEP suffix, buildPlan,
 *  keep the strictly cheapest. */
TEST(Planner, GraphPiMatchesExhaustiveSearch)
{
    PlanOptions induced;
    induced.induced = true;
    PlanOptions plain;
    plain.verticalSharing = false;
    plain.symmetryBreaking = false;
    for (const GraphProfile profile :
         {GraphProfile{200.0, 4.0}, GraphProfile{1.0e6, 80.0}}) {
        for (const Pattern &p : smallPatternsAndLabelings()) {
            for (const PlanOptions &options :
                 {PlanOptions{}, induced, plain}) {
                ExtendPlan best;
                double best_cost = 0;
                bool have = false;
                for (const auto &order : allValidOrders(p)) {
                    int max_suffix = 0;
                    if (options.useIep && !options.induced
                        && !p.labeled()) {
                        const Pattern r = reorderedBy(p, order);
                        const int n = p.size();
                        while (max_suffix + 1 < n) {
                            const int a = n - 1 - max_suffix;
                            bool independent = true;
                            for (int b = a + 1; b < n; ++b)
                                independent &= !r.hasEdge(a, b);
                            if (!independent)
                                break;
                            ++max_suffix;
                        }
                    }
                    for (int suffix = 0; suffix <= max_suffix; ++suffix) {
                        ExtendPlan plan = buildPlan(p, order, options,
                                                    suffix);
                        const double cost = estimatePlanCost(plan, profile);
                        if (!have || cost < best_cost) {
                            best = std::move(plan);
                            best_cost = cost;
                            have = true;
                        }
                    }
                }
                const ExtendPlan chosen = compileGraphPi(p, profile,
                                                         options);
                EXPECT_EQ(planHash(0, chosen), planHash(0, best))
                    << chosen.toString() << best.toString();
                for (std::size_t i = 0; i < chosen.levels.size(); ++i)
                    EXPECT_EQ(chosen.levels[i].labelFilter,
                              best.levels[i].labelFilter)
                        << p.toString();
            }
        }
    }
}

TEST(Planner, GraphPiUsesLargerIepOnSparsePatterns)
{
    GraphProfile profile{10000.0, 20.0};
    const auto plan = compileGraphPi(Pattern::starOf(4), profile, {});
    EXPECT_TRUE(plan.hasIep);
    EXPECT_GE(plan.iep.suffixSize, 2);
}

/**
 * The central correctness property: for every connected pattern of
 * size 3..5 and every valid matching order, the restricted plan
 * counts exactly the brute-force embedding count.
 */
TEST(PlannerProperty, AllOrdersAllPatternsMatchBruteForce)
{
    const Graph g = gen::rmat(60, 240, 0.5, 0.2, 0.2, 77);
    for (int size = 3; size <= 5; ++size) {
        for (const auto &p : gen::connectedPatterns(size)) {
            const Count expected = brute::countEmbeddings(g, p, false);
            for (const auto &order : allValidOrders(p)) {
                const auto plan = buildPlan(p, order, {});
                EXPECT_EQ(core::countWithPlan(g, plan), expected)
                    << p.toString() << " order "
                    << testing::PrintToString(order);
            }
        }
    }
}

/** IEP counting agrees with materialized counting on every order
 *  and every admissible suffix size. */
TEST(PlannerProperty, IepMatchesBruteForce)
{
    const Graph g = gen::rmat(60, 300, 0.55, 0.2, 0.2, 91);
    for (int size = 3; size <= 5; ++size) {
        for (const auto &p : gen::connectedPatterns(size)) {
            const Count expected = brute::countEmbeddings(g, p, false);
            for (const auto &order : allValidOrders(p)) {
                for (int suffix = 1; suffix < size; ++suffix) {
                    bool independent = true;
                    for (int a = size - suffix; a < size; ++a)
                        for (int b = a + 1; b < size; ++b)
                            if (p.hasEdge(order[a], order[b]))
                                independent = false;
                    if (!independent)
                        continue;
                    const auto plan = buildPlan(p, order, {}, suffix);
                    EXPECT_EQ(core::countWithPlan(g, plan), expected)
                        << p.toString() << " order "
                        << testing::PrintToString(order)
                        << " suffix " << suffix;
                }
            }
        }
    }
}

/** Disabling symmetry breaking must not change counts (divisor
 *  compensates). */
TEST(PlannerProperty, NoSymmetryBreakingStillExact)
{
    const Graph g = gen::rmat(80, 400, 0.5, 0.2, 0.2, 5);
    PlanOptions options;
    options.symmetryBreaking = false;
    for (const auto &p : gen::connectedPatterns(4)) {
        const Count expected = brute::countEmbeddings(g, p, false);
        const auto plan = compileAutomine(p, options);
        EXPECT_EQ(plan.countDivisor,
                  static_cast<std::int64_t>(
                      iso::automorphisms(plan.pattern).size()));
        EXPECT_EQ(core::countWithPlan(g, plan), expected)
            << p.toString();
    }
}

/** Induced matching agrees with the brute-force induced oracle. */
TEST(PlannerProperty, InducedCountsMatchBruteForce)
{
    const Graph g = gen::rmat(70, 320, 0.5, 0.2, 0.2, 21);
    PlanOptions options;
    options.induced = true;
    for (int size = 3; size <= 4; ++size) {
        for (const auto &p : gen::connectedPatterns(size)) {
            const Count expected = brute::countEmbeddings(g, p, true);
            const auto plan = compileAutomine(p, options);
            EXPECT_EQ(core::countWithPlan(g, plan), expected)
                << p.toString();
        }
    }
}

/** Vertical computation sharing must be a pure optimization. */
TEST(PlannerProperty, VerticalSharingPreservesCounts)
{
    const Graph g = testGraph();
    PlanOptions without;
    without.verticalSharing = false;
    for (const auto &p : gen::connectedPatterns(5)) {
        const auto with_plan = compileAutomine(p, {});
        const auto without_plan = compileAutomine(p, without);
        EXPECT_EQ(core::countWithPlan(g, with_plan),
                  core::countWithPlan(g, without_plan))
            << p.toString();
    }
}

/** Labeled plans only count label-consistent embeddings. */
TEST(PlannerProperty, LabeledCountsMatchBruteForce)
{
    Graph g = gen::rmat(80, 400, 0.5, 0.2, 0.2, 31);
    gen::randomizeLabels(g, 3, 8);
    for (const auto &base : gen::connectedPatterns(3)) {
        for (const auto &p : gen::labelings(base, 3)) {
            const Count expected = brute::countEmbeddings(g, p, false);
            const auto plan = compileAutomine(p, {});
            EXPECT_EQ(core::countWithPlan(g, plan), expected)
                << p.toString();
        }
    }
}

TEST(Planner, CostEstimatePrefersCheaperOrder)
{
    // Tailed triangle: closing the triangle early (two-list
    // intersections sooner) keeps intermediate match counts low.
    GraphProfile profile{100000.0, 16.0};
    const Pattern p = Pattern::tailedTriangle();
    const auto triangle_first = buildPlan(p, {0, 1, 2, 3}, {});
    const auto tail_first = buildPlan(p, {3, 2, 1, 0}, {});
    EXPECT_LT(estimatePlanCost(triangle_first, profile),
              estimatePlanCost(tail_first, profile));
}

TEST(Planner, PlanToStringMentionsStructure)
{
    const auto plan = compileAutomine(Pattern::clique(4), {});
    const std::string text = plan.toString();
    EXPECT_NE(text.find("divisor"), std::string::npos);
    EXPECT_NE(text.find("L1"), std::string::npos);
}

} // namespace
} // namespace khuzdul
