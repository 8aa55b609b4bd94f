/**
 * @file
 * Unit tests for pattern machinery: pattern construction,
 * isomorphism, automorphism groups, canonical codes and pattern-set
 * generation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "pattern/generation.hh"
#include "pattern/isomorphism.hh"
#include "pattern/pattern.hh"
#include "support/check.hh"

namespace khuzdul
{
namespace
{

TEST(Pattern, BasicConstruction)
{
    const Pattern p(3, {{0, 1}, {1, 2}});
    EXPECT_EQ(p.size(), 3);
    EXPECT_EQ(p.numEdges(), 2);
    EXPECT_TRUE(p.hasEdge(0, 1));
    EXPECT_TRUE(p.hasEdge(1, 0));
    EXPECT_FALSE(p.hasEdge(0, 2));
    EXPECT_EQ(p.degree(1), 2);
    EXPECT_TRUE(p.connected());
}

TEST(Pattern, ConnectivityDetection)
{
    Pattern p(4, {{0, 1}, {2, 3}});
    EXPECT_FALSE(p.connected());
    p.addEdge(1, 2);
    EXPECT_TRUE(p.connected());
    EXPECT_FALSE(Pattern(0).connected());
    EXPECT_TRUE(Pattern(1).connected());
}

TEST(Pattern, RejectsBadEdges)
{
    Pattern p(3);
    EXPECT_THROW(p.addEdge(0, 0), FatalError);
    EXPECT_THROW(p.addEdge(0, 3), FatalError);
    EXPECT_THROW(Pattern(9), FatalError);
}

TEST(Pattern, NamedConstructors)
{
    EXPECT_EQ(Pattern::triangle().numEdges(), 3);
    EXPECT_EQ(Pattern::clique(5).numEdges(), 10);
    EXPECT_EQ(Pattern::pathOf(4).numEdges(), 3);
    EXPECT_EQ(Pattern::cycleOf(5).numEdges(), 5);
    EXPECT_EQ(Pattern::starOf(5).numEdges(), 4);
    EXPECT_EQ(Pattern::tailedTriangle().numEdges(), 4);
    EXPECT_EQ(Pattern::diamond().numEdges(), 5);
    EXPECT_EQ(Pattern::house().numEdges(), 6);
    EXPECT_TRUE(Pattern::house().connected());
}

TEST(Pattern, PermutedPreservesStructure)
{
    const Pattern p = Pattern::pathOf(3); // 0-1-2
    iso::Permutation perm{};
    perm[0] = 2;
    perm[1] = 0;
    perm[2] = 1;
    const Pattern q = p.permuted(perm);
    // Center (old 1) is now vertex 0.
    EXPECT_EQ(q.degree(0), 2);
    EXPECT_TRUE(q.hasEdge(0, 2));
    EXPECT_TRUE(q.hasEdge(0, 1));
    EXPECT_FALSE(q.hasEdge(1, 2));
}

TEST(Pattern, LabeledEquality)
{
    Pattern a(2, {{0, 1}});
    Pattern b(2, {{0, 1}});
    EXPECT_TRUE(a == b);
    a.setLabel(0, 1);
    EXPECT_FALSE(a == b);
    b.setLabel(0, 1);
    EXPECT_TRUE(a == b);
}

TEST(Isomorphism, DetectsIsomorphicPaths)
{
    const Pattern a(4, {{0, 1}, {1, 2}, {2, 3}});
    const Pattern b(4, {{2, 0}, {0, 3}, {3, 1}});
    EXPECT_TRUE(iso::isomorphic(a, b));
}

TEST(Isomorphism, DistinguishesPathFromStar)
{
    EXPECT_FALSE(iso::isomorphic(Pattern::pathOf(4), Pattern::starOf(4)));
    EXPECT_FALSE(iso::isomorphic(Pattern::cycleOf(4),
                                 Pattern::pathOf(4)));
}

TEST(Isomorphism, LabelsMatter)
{
    Pattern a(2, {{0, 1}});
    Pattern b(2, {{0, 1}});
    a.setLabel(0, 1);
    a.setLabel(1, 2);
    b.setLabel(0, 2);
    b.setLabel(1, 1);
    EXPECT_TRUE(iso::isomorphic(a, b)); // swap is an isomorphism
    b.setLabel(1, 2);
    b.setLabel(0, 2);
    EXPECT_FALSE(iso::isomorphic(a, b));
}

TEST(Isomorphism, AutomorphismGroupSizes)
{
    EXPECT_EQ(iso::automorphisms(Pattern::triangle()).size(), 6u);
    EXPECT_EQ(iso::automorphisms(Pattern::clique(4)).size(), 24u);
    EXPECT_EQ(iso::automorphisms(Pattern::clique(5)).size(), 120u);
    EXPECT_EQ(iso::automorphisms(Pattern::pathOf(4)).size(), 2u);
    EXPECT_EQ(iso::automorphisms(Pattern::cycleOf(4)).size(), 8u);
    EXPECT_EQ(iso::automorphisms(Pattern::cycleOf(5)).size(), 10u);
    EXPECT_EQ(iso::automorphisms(Pattern::starOf(5)).size(), 24u);
    EXPECT_EQ(iso::automorphisms(Pattern::tailedTriangle()).size(), 2u);
    EXPECT_EQ(iso::automorphisms(Pattern::diamond()).size(), 4u);
    EXPECT_EQ(iso::automorphisms(Pattern::house()).size(), 2u);
}

TEST(Isomorphism, LabeledAutomorphisms)
{
    Pattern p = Pattern::triangle();
    EXPECT_EQ(iso::automorphisms(p).size(), 6u);
    p.setLabel(0, 1); // one distinguished vertex: only the swap of
    p.setLabel(1, 0); // the two label-0 vertices survives
    p.setLabel(2, 0);
    EXPECT_EQ(iso::automorphisms(p).size(), 2u);
}

/** Conjugating Aut(p) by a permutation yields the automorphism group
 *  of the permuted pattern, for every connected pattern of up to 5
 *  vertices, their two-label variants and every permutation. */
TEST(Isomorphism, ConjugatedGroupMatchesEnumeration)
{
    int checked = 0;
    for (int size = 2; size <= 5; ++size) {
        for (const auto &base : gen::connectedPatterns(size)) {
            std::vector<Pattern> variants = gen::labelings(base, 2);
            variants.push_back(base);
            for (const Pattern &p : variants) {
                const auto group = iso::automorphisms(p);
                iso::Permutation perm{};
                std::iota(perm.begin(), perm.begin() + size, 0);
                do {
                    auto carried = iso::conjugated(group, perm, size);
                    auto expected = iso::automorphisms(p.permuted(perm));
                    std::sort(carried.begin(), carried.end());
                    std::sort(expected.begin(), expected.end());
                    ASSERT_EQ(carried, expected) << p.toString();
                    ++checked;
                } while (std::next_permutation(perm.begin(),
                                               perm.begin() + size));
            }
        }
    }
    EXPECT_GT(checked, 10000);
}

TEST(Isomorphism, CanonicalCodeEqualIffIsomorphic)
{
    const Pattern a(4, {{0, 1}, {1, 2}, {2, 3}});
    const Pattern b(4, {{2, 0}, {0, 3}, {3, 1}});
    EXPECT_EQ(iso::canonicalCode(a), iso::canonicalCode(b));
    EXPECT_NE(iso::canonicalCode(a),
              iso::canonicalCode(Pattern::starOf(4)));
}

TEST(Isomorphism, CanonicalFormIsIsomorphicAndIdempotent)
{
    const Pattern p(5, {{0, 2}, {2, 4}, {4, 1}, {1, 3}});
    const Pattern canon = iso::canonicalForm(p);
    EXPECT_TRUE(iso::isomorphic(p, canon));
    EXPECT_TRUE(canon == iso::canonicalForm(canon));
}

TEST(Generation, ConnectedPatternCounts)
{
    // Known counts of connected graphs on n unlabeled vertices.
    EXPECT_EQ(gen::connectedPatterns(1).size(), 1u);
    EXPECT_EQ(gen::connectedPatterns(2).size(), 1u);
    EXPECT_EQ(gen::connectedPatterns(3).size(), 2u);
    EXPECT_EQ(gen::connectedPatterns(4).size(), 6u);
    EXPECT_EQ(gen::connectedPatterns(5).size(), 21u);
}

TEST(Generation, GeneratedPatternsAreConnectedAndDistinct)
{
    const auto patterns = gen::connectedPatterns(4);
    for (std::size_t i = 0; i < patterns.size(); ++i) {
        EXPECT_TRUE(patterns[i].connected());
        for (std::size_t j = i + 1; j < patterns.size(); ++j)
            EXPECT_FALSE(iso::isomorphic(patterns[i], patterns[j]));
    }
}

TEST(Generation, UpToEdgesMatchesKnownCounts)
{
    // Connected graphs with at most 3 edges: edge; path3; triangle,
    // path4, star4 -> 5 total.
    EXPECT_EQ(gen::connectedPatternsUpToEdges(1).size(), 1u);
    EXPECT_EQ(gen::connectedPatternsUpToEdges(2).size(), 2u);
    EXPECT_EQ(gen::connectedPatternsUpToEdges(3).size(), 5u);
    // Connected graphs with exactly 4 edges: 5 (cycle4, tailed
    // triangle, path5, star5 and the fork); with exactly 5: 12.
    EXPECT_EQ(gen::connectedPatternsUpToEdges(4).size(), 10u);
    EXPECT_EQ(gen::connectedPatternsUpToEdges(5).size(), 22u);
}

TEST(Generation, UpToEdgesRejectsSizesPastItsLimit)
{
    // Six edges need 7-vertex patterns; the mask walk that used to
    // serve them took seconds.
    EXPECT_EQ(gen::kMaxUpToEdges, 5);
    EXPECT_THROW(gen::connectedPatternsUpToEdges(6), FatalError);
    EXPECT_THROW(gen::connectedPatternsUpToEdges(0), FatalError);
    try {
        gen::connectedPatternsUpToEdges(7);
        ADD_FAILURE() << "7 edges accepted";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("1..5 edges"),
                  std::string::npos)
            << error.what();
    }
}

TEST(Generation, LabelingsOfAnEdge)
{
    // Unordered label pairs from an alphabet of 3: C(3,2)+3 = 6.
    const auto labeled = gen::labelings(Pattern::pathOf(2), 3);
    EXPECT_EQ(labeled.size(), 6u);
}

TEST(Generation, LabelingsOfTriangle)
{
    // Multisets of size 3 from 2 labels: 4.
    const auto labeled = gen::labelings(Pattern::triangle(), 2);
    EXPECT_EQ(labeled.size(), 4u);
}

} // namespace
} // namespace khuzdul
