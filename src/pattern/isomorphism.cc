#include "pattern/isomorphism.hh"

#include <algorithm>
#include <numeric>

#include "support/check.hh"

namespace khuzdul
{
namespace iso
{

namespace
{

/** Apply each size-n permutation of 0..n-1 to @p fn until it says stop. */
template <typename Fn>
void
forEachPermutation(int n, Fn &&fn)
{
    Permutation perm{};
    std::iota(perm.begin(), perm.begin() + n, 0);
    do {
        if (!fn(perm))
            return;
    } while (std::next_permutation(perm.begin(), perm.begin() + n));
}

/** Whether perm maps pattern @p a exactly onto pattern @p b. */
bool
mapsOnto(const Pattern &a, const Pattern &b, const Permutation &perm)
{
    const int n = a.size();
    for (int v = 0; v < n; ++v) {
        if (a.labeled() && a.label(v) != b.label(perm[v]))
            return false;
        for (int u = v + 1; u < n; ++u)
            if (a.hasEdge(u, v) != b.hasEdge(perm[u], perm[v]))
                return false;
    }
    return true;
}

/** Degree multiset comparison of equal-size patterns: cheap
 *  non-isomorphism filter. */
bool
degreesMatch(const Pattern &a, const Pattern &b)
{
    // Every degree is below kMaxPatternSize: compare the histograms.
    std::array<int, kMaxPatternSize> balance{};
    for (int v = 0; v < a.size(); ++v) {
        ++balance[a.degree(v)];
        --balance[b.degree(v)];
    }
    return balance == std::array<int, kMaxPatternSize>{};
}

CanonicalCode
codeOf(const Pattern &p, const Permutation &perm)
{
    CanonicalCode code;
    const int n = p.size();
    code.structure = static_cast<std::uint64_t>(n) << 56;
    int bit = 0;
    for (int u = 0; u < n; ++u) {
        for (int v = u + 1; v < n; ++v, ++bit) {
            if (p.hasEdge(u, v)) {
                // Position of the permuted pair in the canonical
                // upper triangle.
                int a = perm[u];
                int b = perm[v];
                if (a > b)
                    std::swap(a, b);
                const int idx = a * (2 * n - a - 1) / 2 + (b - a - 1);
                code.structure |= 1ULL << idx;
            }
        }
    }
    if (p.labeled()) {
        for (int v = 0; v < n; ++v) {
            const Label label = p.label(v);
            KHUZDUL_REQUIRE(label < 256,
                            "canonical codes support labels < 256");
            code.labels |= static_cast<std::uint64_t>(label)
                << (8 * perm[v]);
        }
    }
    return code;
}

} // namespace

bool
isomorphic(const Pattern &a, const Pattern &b)
{
    if (a.size() != b.size() || a.numEdges() != b.numEdges()
        || a.labeled() != b.labeled() || !degreesMatch(a, b))
        return false;
    bool found = false;
    forEachPermutation(a.size(), [&](const Permutation &perm) {
        if (mapsOnto(a, b, perm)) {
            found = true;
            return false;
        }
        return true;
    });
    return found;
}

std::vector<Permutation>
automorphisms(const Pattern &p)
{
    std::vector<Permutation> autos;
    forEachPermutation(p.size(), [&](const Permutation &perm) {
        if (mapsOnto(p, p, perm))
            autos.push_back(perm);
        return true;
    });
    return autos;
}

std::vector<Permutation>
conjugated(const std::vector<Permutation> &group, const Permutation &perm,
           int n)
{
    std::vector<Permutation> images;
    images.reserve(group.size());
    for (const Permutation &sigma : group) {
        Permutation image{};
        for (int v = 0; v < n; ++v)
            image[perm[v]] = perm[sigma[v]];
        images.push_back(image);
    }
    return images;
}

CanonicalCode
canonicalCode(const Pattern &p)
{
    CanonicalCode best;
    bool have = false;
    forEachPermutation(p.size(), [&](const Permutation &perm) {
        const CanonicalCode code = codeOf(p, perm);
        if (!have || code > best) {
            best = code;
            have = true;
        }
        return true;
    });
    return best;
}

Pattern
canonicalForm(const Pattern &p)
{
    return p.permuted(canonicalPermutation(p));
}

Permutation
canonicalPermutation(const Pattern &p)
{
    CanonicalCode best;
    Permutation best_perm{};
    bool have = false;
    forEachPermutation(p.size(), [&](const Permutation &perm) {
        const CanonicalCode code = codeOf(p, perm);
        if (!have || code > best) {
            best = code;
            best_perm = perm;
            have = true;
        }
        return true;
    });
    if (!have)
        for (int i = 0; i < kMaxPatternSize; ++i)
            best_perm[i] = i;
    return best_perm;
}

} // namespace iso
} // namespace khuzdul
