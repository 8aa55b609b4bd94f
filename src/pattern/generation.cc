#include "pattern/generation.hh"

#include <algorithm>
#include <array>
#include <map>
#include <numeric>
#include <utility>

#include "pattern/isomorphism.hh"
#include "support/check.hh"

namespace khuzdul
{
namespace gen
{

namespace
{

/** Insert @p p into @p seen/out when its canonical code is new. */
void
dedupInsert(const Pattern &p,
            std::map<iso::CanonicalCode, bool> &seen,
            std::vector<Pattern> &out)
{
    const auto code = iso::canonicalCode(p);
    if (seen.emplace(code, true).second)
        out.push_back(iso::canonicalForm(p));
}

} // namespace

std::vector<Pattern>
connectedPatterns(int num_vertices)
{
    KHUZDUL_REQUIRE(num_vertices >= 1 && num_vertices <= 6,
                    "connectedPatterns supports 1..6 vertices, got "
                    << num_vertices);
    const int n = num_vertices;
    const int pairs = n * (n - 1) / 2;
    // Bit of the pair {u, v} in an edge mask.
    std::array<std::array<int, kMaxPatternSize>, kMaxPatternSize> bit{};
    for (int u = 0, b = 0; u < n; ++u)
        for (int v = u + 1; v < n; ++v, ++b)
            bit[u][v] = bit[v][u] = b;
    // Masks are walked in ascending order, so each class is emitted at
    // its lowest mask; every relabeling of that mask is then marked and
    // skipped, and only one mask per class is canonicalized.
    std::vector<bool> seen(std::size_t{1} << pairs, false);
    std::vector<Pattern> out;
    for (std::uint32_t mask = 0; mask < (1u << pairs); ++mask) {
        if (seen[mask])
            continue;
        Pattern p(n);
        for (int u = 0; u < n; ++u)
            for (int v = u + 1; v < n; ++v)
                if ((mask >> bit[u][v]) & 1u)
                    p.addEdge(u, v);
        if (!p.connected())
            continue;
        out.push_back(iso::canonicalForm(p));
        std::array<int, kMaxPatternSize> perm{};
        std::iota(perm.begin(), perm.begin() + n, 0);
        do {
            std::uint32_t image = 0;
            for (int u = 0; u < n; ++u)
                for (int v = u + 1; v < n; ++v)
                    if ((mask >> bit[u][v]) & 1u)
                        image |= 1u << bit[perm[u]][perm[v]];
            seen[image] = true;
        } while (std::next_permutation(perm.begin(), perm.begin() + n));
    }
    return out;
}

std::vector<Pattern>
connectedPatternsUpToEdges(int max_edges)
{
    KHUZDUL_REQUIRE(max_edges >= 1 && max_edges <= kMaxUpToEdges,
                    "connectedPatternsUpToEdges supports 1.."
                        << kMaxUpToEdges << " edges, got " << max_edges);
    // A connected graph with e edges has at most e + 1 vertices, and
    // every class connectedPatterns emits (in ascending order of its
    // lowest edge mask) keeps the order a walk over edge masks gives.
    std::vector<Pattern> out;
    for (int n = 2; n <= max_edges + 1; ++n)
        for (Pattern &p : connectedPatterns(n))
            if (p.numEdges() <= max_edges)
                out.push_back(std::move(p));
    return out;
}

std::vector<Pattern>
labelings(const Pattern &base, Label num_labels)
{
    KHUZDUL_REQUIRE(num_labels >= 1, "need at least one label");
    std::map<iso::CanonicalCode, bool> seen;
    std::vector<Pattern> out;
    const int n = base.size();
    std::vector<Label> assignment(n, 0);
    while (true) {
        Pattern p = base;
        for (int v = 0; v < n; ++v)
            p.setLabel(v, assignment[v]);
        dedupInsert(p, seen, out);
        // Odometer increment over label assignments.
        int pos = 0;
        while (pos < n) {
            if (++assignment[pos] < num_labels)
                break;
            assignment[pos] = 0;
            ++pos;
        }
        if (pos == n)
            break;
    }
    return out;
}

} // namespace gen
} // namespace khuzdul
