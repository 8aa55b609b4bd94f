#include "core/extender.hh"

#include <algorithm>
#include <bit>

#include "sim/cost_model.hh"
#include "support/check.hh"

namespace khuzdul
{
namespace core
{

PositionMask
candidateMemoKey(const ExtendPlan &plan, int t)
{
    const PlanLevel &level = plan.levels[t];
    if (t >= plan.numMaterializedLevels() || level.reuseParent
        || std::popcount(level.depMask) < 2)
        return 0;
    const PositionMask key = level.depMask | level.antiMask;
    int omitted = 0;
    for (int m = t - 1; m >= 1 && omitted == 0; --m)
        if (!((key >> m) & 1u))
            omitted = m;
    if (omitted == 0)
        return 0;
    for (int s = omitted + 1; s < t; ++s) {
        const PlanLevel &between = plan.levels[s];
        if (((between.depMask | between.antiMask) >> omitted) & 1u)
            return 0;
    }
    return key;
}

bool
countOnlyTerminal(const ExtendPlan &plan)
{
    const int t = plan.pattern.size() - 1;
    if (t < 1 || plan.hasIep || candidateMemoKey(plan, t) != 0)
        return false;
    const PlanLevel &level = plan.levels[t];
    const PositionMask prefix = (PositionMask{1} << t) - 1;
    if (level.hasLabelFilter
        || ((level.depMask | level.greaterThanMask) & prefix) != prefix)
        return false;
    // intersect()'s operations: a reuse level intersects its extra
    // lists into the stored set, any other level folds its dep lists
    // (one list is a view, no operation); subtractions come last.
    if (level.reuseParent)
        return level.extraDepMask != 0 && level.extraAntiMask == 0;
    return std::popcount(level.depMask) >= 2 && level.antiMask == 0;
}

PlanExtender::PlanExtender(const Graph &g, const ExtendPlan &plan,
                           KernelMode kernel_mode, RunnerHooks *hooks)
    : graph_(&g), plan_(&plan), hooks_(hooks),
      dispatcher_(kernel_mode, &g)
{
    for (int t = 1; t < plan.pattern.size(); ++t) {
        memoKeys_[t] = candidateMemoKey(plan, t);
        memo_[t].width =
            static_cast<std::size_t>(std::popcount(memoKeys_[t]));
        // A memoized level intersects at least two lists.
        KHUZDUL_CHECK(memoKeys_[t] == 0 || memo_[t].width >= kInlineKeyIds,
                      "memo key narrower than a slot's inline key");
    }
    // The terminal filter reads v_{t-1} unless t - 1 is a dependency
    // (candidates lie in its list, so they cannot equal it) and not
    // a greater-than position.
    const int t = plan.pattern.size() - 1;
    if (t >= 1) {
        const PlanLevel &last = plan.levels[t];
        terminalFilterReadsLast_ =
            ((last.greaterThanMask >> (t - 1)) & 1u)
            || !((last.depMask >> (t - 1)) & 1u);
    }
    countsTerminal_ = countOnlyTerminal(plan);
}

std::span<const VertexId>
PlanExtender::buildCandidates(int t, std::span<const VertexId> stored,
                              std::vector<VertexId> &out,
                              sim::NodeStats &stats)
{
    WorkItems work = 0;
    const std::span<const VertexId> set = memoKeys_[t] != 0
        ? memoized(t, stored, out, stats, work)
        : intersect(t, stored, out, stats, work);
    stats.intersectionItems += work;
    workNs_ += static_cast<double>(work) * sim::cost::intersectPerItemNs;
    return set;
}

std::span<const VertexId>
PlanExtender::memoized(int t, std::span<const VertexId> stored,
                       std::vector<VertexId> &out,
                       sim::NodeStats &stats, WorkItems &work)
{
    // A level intersects at most kMaxPatternSize lists and subtracts
    // at most as many, so one set's per-kind tallies fit a byte.
    static_assert(2 * kMaxPatternSize <= 255);
    const PositionMask key_mask = memoKeys_[t];
    MemoTable &table = memo_[t];
    const std::size_t width = table.width;
    const std::size_t side_width = width - kInlineKeyIds;
    if (table.slots.empty()) {
        table.slots.resize(kMemoSlots);
        table.keys.resize(kMemoSlots * side_width);
        memoArena_.reserve(kMemoArenaIds);
        ++memoCounters_.tables;
    }
    ++memoCounters_.lookups;

    std::array<VertexId, kMaxPatternSize> key{};
    std::size_t n = 0;
    std::uint64_t hash = 0;
    for (int j = 0; j < t; ++j) {
        if ((key_mask >> j) & 1u) {
            key[n++] = vertices_[j];
            hash = (hash ^ vertices_[j]) * 0x9e3779b97f4a7c15ull;
        }
    }
    const std::size_t index = hash >> (64 - kMemoSlotBits);
    MemoSlot &slot = table.slots[index];
    const std::size_t side = index * side_width;

    // Inline compares: std::equal on a two-id key compiles to a
    // memcmp call.
    bool hit = slot.valid && slot.key[0] == key[0]
        && slot.key[1] == key[1];
    for (std::size_t i = kInlineKeyIds; i < width && hit; ++i)
        hit = table.keys[side + i - kInlineKeyIds] == key[i];
    if (hit) {
        ++memoCounters_.hits;
        if (hooks_) {
            // The reads intersect() made: dep lists, then anti lists,
            // each in ascending position order.
            const PlanLevel &level = plan_->levels[t];
            for (const PositionMask mask : {level.depMask, level.antiMask})
                for (int j = 0; j < t; ++j)
                    if ((mask >> j) & 1u)
                        hooks_->onEdgeListAccess(vertices_[j]);
        }
        dispatcher_.replay(slot.calls);
        work = slot.work;
        return {memoArena_.data() + slot.offset, slot.size};
    }

    const KernelCounters before = dispatcher_.counters();
    const std::span<const VertexId> set =
        intersect(t, stored, out, stats, work);
    if (set.size() > kMemoArenaIds)
        return set;
    if (memoArena_.size() + set.size() > kMemoArenaIds) {
        // Full arena: drop every stored set at once.
        for (MemoTable &other : memo_)
            for (MemoSlot &s : other.slots)
                s.valid = false;
        memoArena_.clear();
    }
    slot.offset = static_cast<std::uint32_t>(memoArena_.size());
    slot.size = static_cast<std::uint32_t>(set.size());
    slot.work = work;
    for (std::size_t k = 0; k < kNumKernelKinds; ++k)
        slot.calls[k] = static_cast<std::uint8_t>(
            dispatcher_.counters().calls[k] - before.calls[k]);
    slot.valid = true;
    std::copy(key.begin(), key.begin() + kInlineKeyIds, slot.key.begin());
    std::copy(key.begin() + kInlineKeyIds, key.begin() + n,
              table.keys.begin() + static_cast<std::ptrdiff_t>(side));
    memoArena_.insert(memoArena_.end(), set.begin(), set.end());
    return set;
}

std::span<const VertexId>
PlanExtender::intersect(int t, std::span<const VertexId> stored,
                        std::vector<VertexId> &out,
                        sim::NodeStats &stats, WorkItems &work)
{
    const PlanLevel &level = plan_->levels[t];
    work = 0;
    // Until an operation writes `out`, the set is a view of the
    // stored set or of a lone edge list: free in the model (the
    // charging convention, kernels.hh) and on the host.
    std::span<const VertexId> set;
    PositionMask dep = level.depMask;
    if (level.reuseParent) {
        set = stored;
        dep = level.extraDepMask;
        ++stats.verticalReuses;
    } else {
        std::size_t lists = 0;
        for (int j = 0; j < t; ++j)
            if ((dep >> j) & 1u)
                listBuf_[lists++] = {edgeList(vertices_[j]),
                                     vertices_[j]};
        if (lists == 1) {
            set = listBuf_[0].list;
        } else {
            work += dispatcher_.intersectMany({listBuf_.data(), lists},
                                              out, scratchA_);
            set = out;
        }
        dep = 0;
    }
    // ListRef(set) names no source even when `set` views a whole
    // edge list: kernel choice, and so the per-kind tallies, must not
    // depend on whether a level's set is a view.
    for (int j = 0; j < t; ++j) {
        if ((dep >> j) & 1u) {
            work += dispatcher_.intersectInto(
                ListRef(set), {edgeList(vertices_[j]), vertices_[j]},
                scratchB_);
            out.swap(scratchB_);
            set = out;
        }
    }
    const PositionMask anti = level.reuseParent ? level.extraAntiMask
                                                : level.antiMask;
    for (int j = 0; j < t; ++j) {
        if ((anti >> j) & 1u) {
            work += dispatcher_.subtractInto(
                ListRef(set), {edgeList(vertices_[j]), vertices_[j]},
                scratchB_);
            out.swap(scratchB_);
            set = out;
        }
    }
    return set;
}

CandidateFilter
PlanExtender::filter(int t) const
{
    const PlanLevel &level = plan_->levels[t];
    CandidateFilter filter;
    if (level.hasLabelFilter) {
        filter.labels = graph_;
        filter.label = level.labelFilter;
    }
    const PositionMask distinct = level.depMask | level.greaterThanMask;
    for (int j = 0; j < t; ++j) {
        if ((level.greaterThanMask >> j) & 1u)
            filter.minimum = std::max(filter.minimum, vertices_[j] + 1);
        if (!((distinct >> j) & 1u))
            filter.others[filter.numOthers++] = vertices_[j];
    }
    return filter;
}

SplitCount
PlanExtender::countTerminal(std::span<const VertexId> stored,
                            sim::NodeStats &stats)
{
    const int t = plan_->pattern.size() - 1;
    const PlanLevel &level = plan_->levels[t];
    // The whole filter is its bound (countOnlyTerminal).
    const VertexId bound = filter(t).minimum;

    // intersect()'s operands, read in its order: a reuse level's
    // stored set (no source) and extra lists in position order, or
    // the dep lists in intersectMany's stable smallest-first order.
    std::size_t lists = 0;
    if (level.reuseParent) {
        listBuf_[lists++] = ListRef(stored);
        ++stats.verticalReuses;
    }
    const PositionMask dep =
        level.reuseParent ? level.extraDepMask : level.depMask;
    for (int j = 0; j < t; ++j)
        if ((dep >> j) & 1u)
            listBuf_[lists++] = {edgeList(vertices_[j]), vertices_[j]};
    if (!level.reuseParent)
        detail::sortBySizeStable(listBuf_, lists);

    WorkItems work = 0;
    SplitCount count;
    ListRef set = listBuf_[0];
    for (std::size_t k = 1; k < lists; ++k) {
        // intersectMany stops folding at an empty intermediate; a
        // reuse level's position-order loop does not.
        if (k >= 2 && set.list.empty() && !level.reuseParent)
            break;
        if (k + 1 == lists) {
            work += dispatcher_.intersectCount(set, listBuf_[k], bound,
                                               count);
            break;
        }
        work += dispatcher_.intersectInto(set, listBuf_[k], scratchB_);
        candidates_.swap(scratchB_);
        set = ListRef(candidates_);
    }
    stats.intersectionItems += work;

    // The per-candidate scan's ledger additions, in its order: the
    // set's work in one step, then each candidate's check, plus its
    // match for those at or above the bound (the sorted tail).
    double work_ns = workNs_
        + static_cast<double>(work) * sim::cost::intersectPerItemNs;
    for (Count i = 0; i < count.below; ++i)
        work_ns += sim::cost::candidateCheckNs;
    for (Count i = 0; i < count.atOrAbove; ++i) {
        work_ns += sim::cost::candidateCheckNs;
        work_ns += sim::cost::terminalNs;
    }
    workNs_ = work_ns;
    return count;
}

std::int64_t
PlanExtender::iepTerminal(int prefix_len,
                          std::span<const VertexId> stored,
                          sim::NodeStats &stats)
{
    std::array<std::int64_t, 32> sizes{};
    for (std::size_t m = 0; m < plan_->iep.masks.size(); ++m) {
        const PositionMask mask = plan_->iep.masks[m];
        // The planner only marks a mask reusable when the last prefix
        // level (prefix_len >= 2) stores its candidate set.
        const bool reuse = !plan_->iep.maskReuse.empty()
            && plan_->iep.maskReuse[m];
        std::size_t lists = 0;
        if (reuse) {
            // Vertical sharing into the IEP: start from this
            // embedding's stored candidate set.
            listBuf_[lists++] = ListRef(stored);
            ++stats.verticalReuses;
            for (int j = 0; j < prefix_len; ++j)
                if ((plan_->iep.maskExtra[m] >> j) & 1u)
                    listBuf_[lists++] =
                        {edgeList(vertices_[j]), vertices_[j]};
        } else {
            for (int j = 0; j < prefix_len; ++j)
                if ((mask >> j) & 1u)
                    listBuf_[lists++] =
                        {edgeList(vertices_[j]), vertices_[j]};
        }
        Count count = 0;
        const WorkItems work = dispatcher_.intersectManyCount(
            {listBuf_.data(), lists}, count, scratchA_, scratchB_);
        stats.intersectionItems += work;
        workNs_ += static_cast<double>(work) * sim::cost::intersectPerItemNs;
        std::int64_t size = static_cast<std::int64_t>(count);
        for (int j = 0; j < prefix_len; ++j) {
            // N(v_j) is one of the lists (or folded into the stored
            // set) and holds no v_j: graphs have no self loops.
            if ((mask >> j) & 1u)
                continue;
            bool inside = true;
            for (std::size_t l = 0; l < lists && inside; ++l)
                inside = contains(listBuf_[l].list, vertices_[j]);
            if (inside)
                --size;
        }
        sizes[m] = size;
    }
    std::int64_t raw = 0;
    for (const IepBlock::Term &term : plan_->iep.terms) {
        std::int64_t product = term.coefficient;
        for (const int mask_idx : term.maskIndex)
            product *= sizes[mask_idx];
        raw += product;
    }
    workNs_ += sim::cost::terminalNs;
    return raw;
}

void
PlanExtender::extendInner(const std::vector<Chunk> &chunks,
                          Chunk &child, int level, std::uint32_t idx,
                          sim::NodeStats &stats)
{
    recoverVertices(chunks, level, idx);
    const int t = level + 1;
    const PlanLevel &next = plan_->levels[t];
    const std::span<const VertexId> candidates = buildCandidates(
        t, chunks[t - 1].result(idx), candidates_, stats);
    const CandidateFilter accepts = filter(t);
    double work_ns = workNs_;
    // Siblings share one stored copy of the candidate set; it is
    // appended lazily when the first child materializes.
    std::uint32_t result_offset = 0;
    bool result_stored = false;
    for (const VertexId candidate : candidates) {
        work_ns += sim::cost::candidateCheckNs;
        if (!accepts(candidate))
            continue;
        const std::uint32_t child_idx =
            child.add(candidate, idx, next.fetchEdgeList);
        ++stats.embeddingsCreated;
        work_ns += sim::cost::embeddingCreateNs;
        if (next.storeResult) {
            if (!result_stored) {
                result_offset = child.appendResult(candidates);
                result_stored = true;
            }
            child.setResultRef(
                child_idx, result_offset,
                static_cast<std::uint32_t>(candidates.size()));
        }
    }
    workNs_ = work_ns;
}

std::int64_t
PlanExtender::scanTerminal(std::span<const VertexId> candidates,
                           const CandidateFilter &accepts,
                           MatchVisitor *visitor)
{
    // A rejected candidate adds +0.0 in place of terminalNs: that
    // leaves the ledger's bits as they were, since it starts at +0.0
    // and only grows (only -0.0 + 0.0 changes a double's bits).  So
    // the additions run in the branchy scan's order, with no branch.
    static constexpr std::array<double, 2> kMatchNs = {
        sim::cost::terminalNs, 0.0};
    const int t = plan_->pattern.size() - 1;
    const std::span<const VertexId> others(accepts.others.data(),
                                           accepts.numOthers);
    // The ledger stays in a register for the loop.
    double work_ns = workNs_;
    std::int64_t raw = 0;
    for (std::size_t base = 0; base < candidates.size();
         base += kRejectionBlock) {
        const std::span<const VertexId> block = candidates.subspan(
            base, std::min(kRejectionBlock, candidates.size() - base));
        RejectionMask rejected =
            rejectionMask(block, accepts.minimum, others);
        if (accepts.labels) {
            for (std::size_t i = 0; i < block.size(); ++i) {
                const std::uint64_t miss =
                    std::uint64_t{accepts.labels->label(block[i])
                                  != accepts.label}
                    << i;
                rejected.count += (miss & ~rejected.bits) != 0;
                rejected.bits |= miss;
            }
        }
        for (std::size_t i = 0; i < block.size(); ++i) {
            work_ns += sim::cost::candidateCheckNs;
            work_ns += kMatchNs[(rejected.bits >> i) & 1u];
        }
        raw += static_cast<std::int64_t>(block.size() - rejected.count);
        if (visitor) {
            std::uint64_t accepted =
                ~rejected.bits & (~std::uint64_t{0} >> (64 - block.size()));
            for (; accepted != 0; accepted &= accepted - 1) {
                vertices_[t] = block[static_cast<std::size_t>(
                    std::countr_zero(accepted))];
                visitor->match({vertices_.data(),
                                static_cast<std::size_t>(t + 1)});
            }
        }
    }
    workNs_ = work_ns;
    return raw;
}

std::int64_t
PlanExtender::extendTerminal(const std::vector<Chunk> &chunks,
                             int level, std::uint32_t idx,
                             MatchVisitor *visitor,
                             sim::NodeStats &stats)
{
    const bool walked = recoverVertices(chunks, level, idx);
    if (plan_->hasIep)
        return iepTerminal(level + 1, chunks[level].result(idx),
                           stats);
    if (countsTerminal_ && !visitor)
        return static_cast<std::int64_t>(
            countTerminal(chunks[level].result(idx), stats).atOrAbove);
    const int t = plan_->pattern.size() - 1;
    const std::span<const VertexId> candidates = buildCandidates(
        t, chunks[t - 1].result(idx), candidates_, stats);
    // Siblings share positions below t - 1 (recoverVertices' prefix
    // cache), so the filter of a sibling run is built once unless it
    // reads v_{t-1}.
    if (walked || terminalFilterReadsLast_)
        terminalFilter_ = filter(t);
    return scanTerminal(candidates, terminalFilter_, visitor);
}

} // namespace core
} // namespace khuzdul
