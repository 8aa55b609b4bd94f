/**
 * @file
 * Galloping (exponential-probe binary search) kernels for skewed
 * list-size ratios: the smaller list drives, each of its elements
 * located in the larger list in O(log gap) from a moving cursor.
 * A hub list of 10k against a candidate list of 12 costs ~12 log 10k
 * probes instead of the merge's ~10k comparisons.  The charge stays
 * the canonical merge-equivalent work, read off where the loop
 * stopped: after the last driving element the cursor sits past every
 * b element <= it, and a loop that runs off b's end stops at the
 * first driving element above b's maximum.
 */

#include "core/kernels/kernels.hh"

#include <algorithm>

namespace khuzdul
{
namespace core
{

namespace
{

/**
 * First position in [first, last) with value >= x, found by
 * doubling probes from @p first then binary search in the bracketed
 * range — O(log distance) instead of O(log |list|).
 */
const VertexId *
gallopLowerBound(const VertexId *first, const VertexId *last, VertexId x)
{
    if (first == last || *first >= x)
        return first;
    // Invariant: first[lo] < x; first + hi is the probe.
    std::size_t lo = 0;
    std::size_t hi = 1;
    while (first + hi < last && first[hi] < x) {
        lo = hi;
        hi <<= 1;
    }
    const VertexId *begin = first + lo + 1;
    const VertexId *end = first + hi < last ? first + hi + 1 : last;
    return std::lower_bound(begin, end, x);
}

} // namespace

WorkItems
gallopIntersectInto(std::span<const VertexId> a,
                    std::span<const VertexId> b,
                    std::vector<VertexId> &out)
{
    out.clear();
    const VertexId *cursor = b.data();
    const VertexId *const end = cursor + b.size();
    for (std::size_t i = 0; i < a.size(); ++i) {
        const VertexId x = a[i];
        cursor = gallopLowerBound(cursor, end, x);
        if (cursor == end)
            return b.size() + i; // a[i] > b.back()
        if (*cursor == x) {
            out.push_back(x);
            ++cursor;
        }
    }
    return a.size() + static_cast<WorkItems>(cursor - b.data());
}

WorkItems
gallopIntersectCount(std::span<const VertexId> a,
                     std::span<const VertexId> b, VertexId bound,
                     SplitCount &count)
{
    Count members = 0;
    Count below = 0;
    const VertexId *cursor = b.data();
    const VertexId *const end = cursor + b.size();
    for (std::size_t i = 0; i < a.size(); ++i) {
        const VertexId x = a[i];
        cursor = gallopLowerBound(cursor, end, x);
        if (cursor == end) {
            count = {below, members - below};
            return b.size() + i;
        }
        if (*cursor == x) {
            ++members;
            below += x < bound;
            ++cursor;
        }
    }
    count = {below, members - below};
    return a.size() + static_cast<WorkItems>(cursor - b.data());
}

WorkItems
gallopSubtractInto(std::span<const VertexId> a,
                   std::span<const VertexId> b,
                   std::vector<VertexId> &out)
{
    out.clear();
    const VertexId *cursor = b.data();
    const VertexId *const end = cursor + b.size();
    for (const VertexId x : a) {
        cursor = gallopLowerBound(cursor, end, x);
        if (cursor != end && *cursor == x)
            ++cursor;
        else
            out.push_back(x);
    }
    return a.size() + static_cast<WorkItems>(cursor - b.data());
}

} // namespace core
} // namespace khuzdul
