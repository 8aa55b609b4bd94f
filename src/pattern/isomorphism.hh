/**
 * @file
 * Pattern isomorphism machinery: isomorphism tests, automorphism
 * groups and canonical codes.  Patterns have <= 8 vertices, so
 * permutation enumeration (with degree pruning) is exact and fast;
 * these routines back symmetry breaking, motif-pattern dedup and FSM
 * candidate dedup.
 */

#ifndef KHUZDUL_PATTERN_ISOMORPHISM_HH
#define KHUZDUL_PATTERN_ISOMORPHISM_HH

#include <array>
#include <cstdint>
#include <vector>

#include "pattern/pattern.hh"
#include "support/types.hh"

namespace khuzdul
{
namespace iso
{

/** A vertex permutation; entry v is the image of vertex v. */
using Permutation = std::array<int, kMaxPatternSize>;

/** Whether two (possibly labeled) patterns are isomorphic. */
bool isomorphic(const Pattern &a, const Pattern &b);

/**
 * All automorphisms of @p p (label-preserving when labeled).
 * Always contains the identity.
 */
std::vector<Permutation> automorphisms(const Pattern &p);

/**
 * Carry @p group, the automorphisms of some pattern p, onto
 * p.permuted(@p perm): each sigma becomes perm . sigma . perm^-1,
 * i.e. sigma'[perm[v]] = perm[sigma[v]] for v < @p n.  As a set this
 * equals automorphisms(p.permuted(perm)), in O(|group| n) time
 * instead of n! tests.
 */
std::vector<Permutation> conjugated(const std::vector<Permutation> &group,
                                    const Permutation &perm, int n);

/**
 * Canonical code: equal iff patterns are isomorphic.  Packs the
 * size, the lexicographically-maximal upper-triangle adjacency over
 * all permutations, and (for labeled patterns) the corresponding
 * label sequence.
 */
struct CanonicalCode
{
    std::uint64_t structure = 0;
    std::uint64_t labels = 0;

    auto operator<=>(const CanonicalCode &) const = default;
};

CanonicalCode canonicalCode(const Pattern &p);

/** The isomorphism-canonical relabeling of @p p. */
Pattern canonicalForm(const Pattern &p);

/**
 * The permutation used by canonicalForm(): position perm[v] of the
 * canonical pattern corresponds to vertex v of @p p.
 */
Permutation canonicalPermutation(const Pattern &p);

} // namespace iso
} // namespace khuzdul

#endif // KHUZDUL_PATTERN_ISOMORPHISM_HH
