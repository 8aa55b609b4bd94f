/**
 * @file
 * Per-call kernel selection.  The dispatcher orders each pairwise
 * operation small-list-first, then picks bitmap (hub row available
 * and ratio >= kBitmapRatio), galloping (ratio >= kGallopRatio) or
 * merging — vectorized variants when the SIMD tier is live and the
 * driving list clears kSimdMinSize — or obeys a forced KernelMode
 * for A/B runs.  Blocked merge is no longer selected by Auto: the
 * BENCH_kernels.json calibration sweep showed it losing to plain
 * merge on every row (speedup 0.56-0.90), the regression this
 * retune fixes.  Every path returns the canonical merge-equivalent
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
      case KernelMode::Bitmap:
        return "bitmap";
      case KernelMode::Simd:
        return "simd";
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
    if (name == "bitmap")
        return KernelMode::Bitmap;
    if (name == "simd")
        return KernelMode::Simd;
    KHUZDUL_FATAL("unknown kernel mode '" << name
                  << "' (expected auto|merge|gallop|bitmap|simd)");
}

const std::uint64_t *
KernelDispatcher::rowFor(const ListRef &ref) const
{
    if (!graph_ || ref.source == kInvalidVertex)
        return nullptr;
    return graph_->hubBitmapRow(ref.source);
}

WorkItems
KernelDispatcher::intersectInto(const ListRef &a, const ListRef &b,
                                std::vector<VertexId> &out)
{
    const ListRef &small = a.size() <= b.size() ? a : b;
    const ListRef &large = a.size() <= b.size() ? b : a;
    const auto count = [this](KernelKind k) {
        ++counters_.calls[static_cast<std::size_t>(k)];
    };
    const bool wide = simd_ && small.size() >= kSimdMinSize;
    switch (mode_) {
      case KernelMode::Merge:
        break;
      case KernelMode::Gallop:
        count(KernelKind::Gallop);
        return gallopIntersectInto(small.list, large.list, out);
      case KernelMode::Bitmap:
        if (const std::uint64_t *row = rowFor(large)) {
            count(KernelKind::Bitmap);
            return bitmapIntersectInto(
                small.list, large.list, row,
                graph_->hubRankDirectory(large.source), out);
        }
        break;
      case KernelMode::Simd:
        if (large.size() >= kGallopRatio * small.size()
            && !small.list.empty()) {
            count(wide ? KernelKind::SimdGallop : KernelKind::Gallop);
            return wide ? simdGallopIntersectInto(small.list,
                                                  large.list, out)
                        : gallopIntersectInto(small.list, large.list,
                                              out);
        }
        if (wide) {
            count(KernelKind::SimdMerge);
            return simdMergeIntersectInto(small.list, large.list, out);
        }
        break;
      case KernelMode::Auto: {
        if (small.list.empty())
            break; // trivial; merge returns immediately
        if (large.size() >= kBitmapRatio * small.size()) {
            if (const std::uint64_t *row = rowFor(large)) {
                count(KernelKind::Bitmap);
                return bitmapIntersectInto(
                    small.list, large.list, row,
                    graph_->hubRankDirectory(large.source), out);
            }
        }
        if (large.size() >= kGallopRatio * small.size()) {
            // Scalar gallop, deliberately: the sweep shows the
            // vectorized landing window losing to the plain binary
            // narrow at every ratio >= kGallopRatio (the probe loads
            // cost more than the <= 3 scalar steps they replace).
            // SimdGallop stays reachable via KernelMode::Simd.
            count(KernelKind::Gallop);
            return gallopIntersectInto(small.list, large.list, out);
        }
        if (wide) {
            count(KernelKind::SimdMerge);
            return simdMergeIntersectInto(small.list, large.list, out);
        }
        break;
      }
    }
    count(KernelKind::Merge);
    return core::intersectInto(small.list, large.list, out);
}

WorkItems
KernelDispatcher::intersectCount(const ListRef &a, const ListRef &b,
                                 Count &result)
{
    const ListRef &small = a.size() <= b.size() ? a : b;
    const ListRef &large = a.size() <= b.size() ? b : a;
    const auto count = [this](KernelKind k) {
        ++counters_.calls[static_cast<std::size_t>(k)];
    };
    const bool wide = simd_ && small.size() >= kSimdMinSize;
    switch (mode_) {
      case KernelMode::Merge:
        break;
      case KernelMode::Gallop:
        count(KernelKind::Gallop);
        return gallopIntersectCount(small.list, large.list, result);
      case KernelMode::Bitmap:
        if (const std::uint64_t *row = rowFor(large)) {
            count(KernelKind::Bitmap);
            return bitmapIntersectCount(
                small.list, large.list, row,
                graph_->hubRankDirectory(large.source), result);
        }
        break;
      case KernelMode::Simd:
        if (large.size() >= kGallopRatio * small.size()
            && !small.list.empty()) {
            count(wide ? KernelKind::SimdGallop : KernelKind::Gallop);
            return wide ? simdGallopIntersectCount(small.list,
                                                   large.list, result)
                        : gallopIntersectCount(small.list, large.list,
                                               result);
        }
        if (wide) {
            count(KernelKind::SimdMerge);
            return simdMergeIntersectCount(small.list, large.list,
                                           result);
        }
        break;
      case KernelMode::Auto: {
        if (small.list.empty())
            break;
        if (large.size() >= kBitmapRatio * small.size()) {
            if (const std::uint64_t *row = rowFor(large)) {
                count(KernelKind::Bitmap);
                return bitmapIntersectCount(
                    small.list, large.list, row,
                    graph_->hubRankDirectory(large.source), result);
            }
        }
        if (large.size() >= kGallopRatio * small.size()) {
            // Scalar gallop on purpose — see intersectInto.
            count(KernelKind::Gallop);
            return gallopIntersectCount(small.list, large.list,
                                        result);
        }
        if (wide) {
            count(KernelKind::SimdMerge);
            return simdMergeIntersectCount(small.list, large.list,
                                           result);
        }
        break;
      }
    }
    count(KernelKind::Merge);
    return core::intersectCount(small.list, large.list, result);
}

WorkItems
KernelDispatcher::subtractInto(const ListRef &a, const ListRef &b,
                               std::vector<VertexId> &out)
{
    // Subtraction is not symmetric: a is the base, only b can play
    // the probed (hub) role.
    const auto count = [this](KernelKind k) {
        ++counters_.calls[static_cast<std::size_t>(k)];
    };
    const bool wide = simd_ && a.size() >= kSimdMinSize;
    switch (mode_) {
      case KernelMode::Merge:
        break;
      case KernelMode::Gallop:
        count(KernelKind::Gallop);
        return gallopSubtractInto(a.list, b.list, out);
      case KernelMode::Bitmap:
        if (const std::uint64_t *row = rowFor(b)) {
            count(KernelKind::Bitmap);
            return bitmapSubtractInto(
                a.list, row, graph_->hubRankDirectory(b.source), out);
        }
        break;
      case KernelMode::Simd:
        if (!a.list.empty() && !b.list.empty()
            && b.size() >= kGallopRatio * a.size()) {
            count(wide ? KernelKind::SimdGallop : KernelKind::Gallop);
            return wide ? simdGallopSubtractInto(a.list, b.list, out)
                        : gallopSubtractInto(a.list, b.list, out);
        }
        break;
      case KernelMode::Auto: {
        if (a.list.empty() || b.list.empty())
            break;
        if (b.size() >= kBitmapRatio * a.size()) {
            if (const std::uint64_t *row = rowFor(b)) {
                count(KernelKind::Bitmap);
                return bitmapSubtractInto(
                    a.list, row, graph_->hubRankDirectory(b.source), out);
            }
        }
        if (b.size() >= kGallopRatio * a.size()) {
            // Scalar gallop on purpose — see intersectInto.
            count(KernelKind::Gallop);
            return gallopSubtractInto(a.list, b.list, out);
        }
        break;
      }
    }
    count(KernelKind::Merge);
    return core::subtractInto(a.list, b.list, out);
}

namespace
{

void
sortBySizeStable(std::array<ListRef, 8> &lists, std::size_t n)
{
    for (std::size_t i = 1; i < n; ++i) {
        const ListRef key = lists[i];
        std::size_t j = i;
        while (j > 0 && lists[j - 1].size() > key.size()) {
            lists[j] = lists[j - 1];
            --j;
        }
        lists[j] = key;
    }
}

} // namespace

WorkItems
KernelDispatcher::intersectMany(std::span<const ListRef> lists,
                                std::vector<VertexId> &out,
                                std::vector<VertexId> &scratch)
{
    KHUZDUL_CHECK(!lists.empty() && lists.size() <= 8,
                  "intersectMany needs 1..8 lists");
    std::array<ListRef, 8> sorted;
    std::copy(lists.begin(), lists.end(), sorted.begin());
    sortBySizeStable(sorted, lists.size());
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
    if (lists.size() == 2)
        return intersectCount(lists[0], lists[1], count);
    WorkItems work = intersectMany(lists.first(lists.size() - 1),
                                   scratch_a, scratch_b);
    Count final_count = 0;
    work += intersectCount(ListRef(scratch_a), lists.back(),
                           final_count);
    count = final_count;
    return work;
}

} // namespace core
} // namespace khuzdul
