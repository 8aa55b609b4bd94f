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
