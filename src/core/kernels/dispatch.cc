/**
 * @file
 * Per-call kernel selection.  Each pairwise operation orders its
 * operands (small list first for an intersection), asks choose() —
 * the one place the policy is written — for a kernel, tallies it
 * and calls it.  Every path returns the canonical merge-equivalent
 * charge, so mode choice is invisible to the cost model.
 */

#include "core/kernels/kernels.hh"

#include <algorithm>

#include "support/check.hh"

namespace khuzdul
{
namespace core
{

const char *
kernelKindName(KernelKind kind)
{
    switch (kind) {
      case KernelKind::Merge:
        return "merge";
      case KernelKind::Blocked:
        return "blocked";
      case KernelKind::Gallop:
        return "gallop";
      case KernelKind::Bitmap:
        return "bitmap";
      case KernelKind::SimdMerge:
        return "simd_merge";
      case KernelKind::SimdGallop:
        return "simd_gallop";
    }
    KHUZDUL_PANIC("unreachable kernel kind");
}

const char *
kernelModeName(KernelMode mode)
{
    switch (mode) {
      case KernelMode::Auto:
        return "auto";
      case KernelMode::Merge:
        return "merge";
      case KernelMode::Gallop:
        return "gallop";
    }
    KHUZDUL_PANIC("unreachable kernel mode");
}

KernelMode
parseKernelMode(const std::string &name)
{
    if (name == "auto")
        return KernelMode::Auto;
    if (name == "merge")
        return KernelMode::Merge;
    if (name == "gallop")
        return KernelMode::Gallop;
    KHUZDUL_FATAL("unknown kernel mode '" << name
                  << "' (expected auto|merge|gallop)");
}

KernelDispatcher::Choice
KernelDispatcher::choose(const ListRef &drive, const ListRef &probe,
                         bool intersect) const
{
    switch (mode_) {
      case KernelMode::Merge:
        return {KernelKind::Merge, {}};
      case KernelMode::Gallop:
        return {KernelKind::Gallop, {}};
      case KernelMode::Auto:
        break;
    }
    if (drive.list.empty() || probe.list.empty())
        return {KernelKind::Merge, {}};
    if (graph_ && probe.source != kInvalidVertex)
        if (const HubRow hub = graph_->hubRow(probe.source))
            return {KernelKind::Bitmap, hub};
    if (probe.size() >= kGallopRatio * drive.size())
        return {KernelKind::Gallop, {}};
    if (intersect && simd_ && drive.size() >= kSimdMinSize)
        return {KernelKind::SimdMerge, {}};
    return {KernelKind::Merge, {}};
}

WorkItems
KernelDispatcher::intersectInto(const ListRef &a, const ListRef &b,
                                std::vector<VertexId> &out)
{
    const ListRef &small = a.size() <= b.size() ? a : b;
    const ListRef &large = a.size() <= b.size() ? b : a;
    const Choice c = choose(small, large, /*intersect=*/true);
    ++counters_.calls[static_cast<std::size_t>(c.kind)];
    switch (c.kind) {
      case KernelKind::Gallop:
        return gallopIntersectInto(small.list, large.list, out);
      case KernelKind::Bitmap:
        return bitmapIntersectInto(small.list, large.list, c.hub.bits,
                                   c.hub.ranks, out);
      case KernelKind::SimdMerge:
        return simdMergeIntersectInto(small.list, large.list, out);
      default:
        return core::intersectInto(small.list, large.list, out);
    }
}

WorkItems
KernelDispatcher::intersectCount(const ListRef &a, const ListRef &b,
                                 VertexId bound, SplitCount &count)
{
    const ListRef &small = a.size() <= b.size() ? a : b;
    const ListRef &large = a.size() <= b.size() ? b : a;
    const Choice c = choose(small, large, /*intersect=*/true);
    ++counters_.calls[static_cast<std::size_t>(c.kind)];
    switch (c.kind) {
      case KernelKind::Gallop:
        return gallopIntersectCount(small.list, large.list, bound,
                                    count);
      case KernelKind::Bitmap:
        return bitmapIntersectCount(small.list, large.list, c.hub.bits,
                                    c.hub.ranks, bound, count);
      case KernelKind::SimdMerge:
        return simdMergeIntersectCount(small.list, large.list, bound,
                                       count);
      default:
        return core::intersectCount(small.list, large.list, bound,
                                    count);
    }
}

WorkItems
KernelDispatcher::subtractInto(const ListRef &a, const ListRef &b,
                               std::vector<VertexId> &out)
{
    // Subtraction is not symmetric: a is the base, only b can play
    // the probed (hub) role.
    const Choice c = choose(a, b, /*intersect=*/false);
    ++counters_.calls[static_cast<std::size_t>(c.kind)];
    switch (c.kind) {
      case KernelKind::Gallop:
        return gallopSubtractInto(a.list, b.list, out);
      case KernelKind::Bitmap:
        return bitmapSubtractInto(a.list, c.hub.bits, c.hub.ranks, out);
      default:
        return core::subtractInto(a.list, b.list, out);
    }
}

WorkItems
KernelDispatcher::intersectMany(std::span<const ListRef> lists,
                                std::vector<VertexId> &out,
                                std::vector<VertexId> &scratch)
{
    KHUZDUL_CHECK(!lists.empty() && lists.size() <= 8,
                  "intersectMany needs 1..8 lists");
    std::array<ListRef, 8> sorted;
    std::copy(lists.begin(), lists.end(), sorted.begin());
    detail::sortBySizeStable(sorted, lists.size());
    if (lists.size() == 1) {
        // Same convention as the free function: a materialized copy
        // charges one WorkItem per element.
        out.assign(sorted[0].list.begin(), sorted[0].list.end());
        return out.size();
    }
    WorkItems work = intersectInto(sorted[0], sorted[1], out);
    for (std::size_t k = 2; k < lists.size(); ++k) {
        if (out.empty())
            break;
        scratch.clear();
        work += intersectInto(ListRef(out), sorted[k], scratch);
        out.swap(scratch);
    }
    return work;
}

WorkItems
KernelDispatcher::intersectManyCount(std::span<const ListRef> lists,
                                     Count &count,
                                     std::vector<VertexId> &scratch_a,
                                     std::vector<VertexId> &scratch_b)
{
    KHUZDUL_CHECK(!lists.empty(), "intersectManyCount needs >= 1 list");
    if (lists.size() == 1) {
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
        work += intersectCount(ListRef(scratch_a), lists.back(), 0,
                               split);
    }
    count = split.atOrAbove;
    return work;
}

} // namespace core
} // namespace khuzdul
