/**
 * @file
 * Reference two-pointer merge kernels (the modeled machine every
 * other kernel must match bit-for-bit in output and charge), the
 * closed-form canonical work computation, the many-list folds and
 * the membership probe.
 */

#include "core/kernels/kernels.hh"

#include <algorithm>

#include "support/check.hh"

namespace khuzdul
{
namespace core
{

WorkItems
canonicalIntersectWork(std::span<const VertexId> a,
                       std::span<const VertexId> b)
{
    // The two-pointer loop stops when one list is exhausted; for
    // strictly-sorted inputs the other pointer then sits past every
    // element <= the exhausted list's maximum.
    if (a.empty() || b.empty())
        return 0;
    if (a.back() <= b.back())
        return a.size()
            + static_cast<WorkItems>(
                std::upper_bound(b.begin(), b.end(), a.back())
                - b.begin());
    return b.size()
        + static_cast<WorkItems>(
            std::upper_bound(a.begin(), a.end(), b.back())
            - a.begin());
}

WorkItems
canonicalSubtractWork(std::span<const VertexId> a,
                      std::span<const VertexId> b)
{
    // Subtraction always consumes all of a, plus every b element
    // <= a's maximum.
    if (a.empty())
        return 0;
    return a.size()
        + static_cast<WorkItems>(
            std::upper_bound(b.begin(), b.end(), a.back())
            - b.begin());
}

WorkItems
intersectInto(std::span<const VertexId> a, std::span<const VertexId> b,
              std::vector<VertexId> &out)
{
    out.clear();
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() && j < b.size()) {
        if (a[i] < b[j]) {
            ++i;
        } else if (a[i] > b[j]) {
            ++j;
        } else {
            out.push_back(a[i]);
            ++i;
            ++j;
        }
    }
    return i + j;
}

WorkItems
intersectCount(std::span<const VertexId> a, std::span<const VertexId> b,
               VertexId bound, SplitCount &count)
{
    Count members = 0;
    Count below = 0;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() && j < b.size()) {
        if (a[i] < b[j]) {
            ++i;
        } else if (a[i] > b[j]) {
            ++j;
        } else {
            ++members;
            below += a[i] < bound;
            ++i;
            ++j;
        }
    }
    count = {below, members - below};
    return i + j;
}

WorkItems
subtractInto(std::span<const VertexId> a, std::span<const VertexId> b,
             std::vector<VertexId> &out)
{
    out.clear();
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size()) {
        if (j == b.size() || a[i] < b[j]) {
            out.push_back(a[i]);
            ++i;
        } else if (a[i] > b[j]) {
            ++j;
        } else {
            ++i;
            ++j;
        }
    }
    return i + j;
}

WorkItems
intersectMany(std::span<const std::span<const VertexId>> lists,
              std::vector<VertexId> &out, std::vector<VertexId> &scratch)
{
    KHUZDUL_CHECK(!lists.empty() && lists.size() <= 8,
                  "intersectMany needs 1..8 lists");
    // Fold smallest-first to keep intermediates tight; a fixed
    // array keeps this allocation-free (hot path).
    std::array<std::span<const VertexId>, 8> sorted;
    std::copy(lists.begin(), lists.end(), sorted.begin());
    detail::sortBySizeStable(sorted, lists.size());
    if (lists.size() == 1) {
        // Pass-through materializes a copy; charge it (one WorkItem
        // per element copied — see the charging convention).
        out.assign(sorted[0].begin(), sorted[0].end());
        return out.size();
    }
    WorkItems work = intersectInto(sorted[0], sorted[1], out);
    for (std::size_t k = 2; k < lists.size(); ++k) {
        if (out.empty())
            break;
        scratch.clear();
        work += intersectInto(out, sorted[k], scratch);
        out.swap(scratch);
    }
    return work;
}

WorkItems
intersectManyCount(std::span<const std::span<const VertexId>> lists,
                   Count &count, std::vector<VertexId> &scratch_a,
                   std::vector<VertexId> &scratch_b)
{
    KHUZDUL_CHECK(!lists.empty(), "intersectManyCount needs >= 1 list");
    if (lists.size() == 1) {
        // O(1) size probe: nothing is touched or copied, charge 0.
        count = lists[0].size();
        return 0;
    }
    SplitCount split;
    WorkItems work = 0;
    if (lists.size() == 2) {
        work = intersectCount(lists[0], lists[1], 0, split);
    } else {
        work = intersectMany(lists.first(lists.size() - 1), scratch_a,
                             scratch_b);
        work += intersectCount(scratch_a, lists.back(), 0, split);
    }
    count = split.atOrAbove;
    return work;
}

bool
containsLinear(std::span<const VertexId> list, VertexId v)
{
    for (const VertexId x : list) {
        if (x >= v)
            return x == v;
    }
    return false;
}

bool
containsBinary(std::span<const VertexId> list, VertexId v)
{
    return std::binary_search(list.begin(), list.end(), v);
}

bool
contains(std::span<const VertexId> list, VertexId v)
{
    if (list.size() <= kContainsLinearCutoff)
        return containsLinear(list, v);
    return containsBinary(list, v);
}

} // namespace core
} // namespace khuzdul
