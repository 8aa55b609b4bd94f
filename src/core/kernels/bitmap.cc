/**
 * @file
 * Hub-bitmap kernels: when one side of a set operation is the full
 * neighbor list of a hub vertex whose dense bitset was precomputed
 * (Graph::buildHubBitmaps), the smaller list drives and each element
 * costs one O(1) bit test — no merge scan over the (large) hub list.
 * When the SIMD tier is live the bit tests run word-parallel, eight
 * driving elements per gather (detail::simdBitmap*).  Charges stay
 * canonical merge-equivalent work, priced from the row's rank
 * directory: the merge stops once the driving list's maximum is
 * consumed, so it reads every hub element up to that rank.
 */

#include "core/kernels/kernels.hh"

#include <algorithm>

namespace khuzdul
{
namespace core
{

namespace
{

/** Canonical charge of a ∩ N(h). */
WorkItems
intersectWork(std::span<const VertexId> a,
              std::span<const VertexId> hub_list,
              const std::uint64_t *row, const std::uint32_t *ranks)
{
    if (a.empty() || hub_list.empty())
        return 0;
    const std::size_t rank = hubRank(row, ranks, a.back());
    if (rank < hub_list.size())
        return a.size() + rank; // a.back() < the hub's maximum
    // The hub list runs out first: the merge also reads every
    // driving element up to the hub's maximum.
    return hub_list.size()
        + static_cast<WorkItems>(
            std::upper_bound(a.begin(), a.end(), hub_list.back())
            - a.begin());
}

} // namespace

WorkItems
bitmapIntersectInto(std::span<const VertexId> a,
                    std::span<const VertexId> hub_list,
                    const std::uint64_t *row, const std::uint32_t *ranks,
                    std::vector<VertexId> &out)
{
    const WorkItems work = intersectWork(a, hub_list, row, ranks);
    if (a.size() >= kSimdMinSize && simdAvailable())
        detail::simdBitmapFilter(a, row, /*keep_members=*/true, out);
    else
        detail::scalarBitmapFilter(a, row, /*keep_members=*/true, out);
    return work;
}

WorkItems
bitmapIntersectCount(std::span<const VertexId> a,
                     std::span<const VertexId> hub_list,
                     const std::uint64_t *row, const std::uint32_t *ranks,
                     VertexId bound, SplitCount &count)
{
    const WorkItems work = intersectWork(a, hub_list, row, ranks);
    count = a.size() >= kSimdMinSize && simdAvailable()
        ? detail::simdBitmapCount(a, row, bound)
        : detail::scalarBitmapCount(a, row, bound);
    return work;
}

WorkItems
bitmapSubtractInto(std::span<const VertexId> a, const std::uint64_t *row,
                   const std::uint32_t *ranks, std::vector<VertexId> &out)
{
    // Subtraction consumes all of a plus every hub element <= a's
    // maximum.
    const WorkItems work =
        a.empty() ? 0 : a.size() + hubRank(row, ranks, a.back());
    if (a.size() >= kSimdMinSize && simdAvailable())
        detail::simdBitmapFilter(a, row, /*keep_members=*/false, out);
    else
        detail::scalarBitmapFilter(a, row, /*keep_members=*/false, out);
    return work;
}

} // namespace core
} // namespace khuzdul
