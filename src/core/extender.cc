#include "core/extender.hh"

namespace khuzdul
{
namespace core
{

void
PlanExtender::buildCandidates(int t, std::span<const VertexId> stored,
                              std::vector<VertexId> &out,
                              sim::NodeStats &stats)
{
    const PlanLevel &level = plan_->levels[t];
    WorkItems work = 0;
    PositionMask dep = level.depMask;
    if (level.reuseParent) {
        out.assign(stored.begin(), stored.end());
        dep = level.extraDepMask;
        ++stats.verticalReuses;
    } else {
        std::size_t lists = 0;
        for (int j = 0; j < t; ++j)
            if ((dep >> j) & 1u)
                listBuf_[lists++] = {edgeList(vertices_[j]),
                                     vertices_[j]};
        if (lists == 1) {
            // Aliasing one already-fetched edge list: the transfer
            // was charged by the provider layer, so the working copy
            // is free in the model (charging convention, kernels.hh).
            out.assign(listBuf_[0].list.begin(), listBuf_[0].list.end());
        } else {
            work += dispatcher_.intersectMany({listBuf_.data(), lists},
                                              out, scratchA_);
        }
        dep = 0;
    }
    for (int j = 0; j < t; ++j) {
        if ((dep >> j) & 1u) {
            scratchB_.clear();
            work += dispatcher_.intersectInto(
                ListRef(out), {edgeList(vertices_[j]), vertices_[j]},
                scratchB_);
            out.swap(scratchB_);
        }
    }
    const PositionMask anti = level.reuseParent ? level.extraAntiMask
                                                : level.antiMask;
    for (int j = 0; j < t; ++j) {
        if ((anti >> j) & 1u) {
            scratchB_.clear();
            work += dispatcher_.subtractInto(
                ListRef(out), {edgeList(vertices_[j]), vertices_[j]},
                scratchB_);
            out.swap(scratchB_);
        }
    }
    stats.intersectionItems += work;
    workNs_ += static_cast<double>(work) * cost_->intersectPerItemNs;
}

bool
PlanExtender::accept(int t, VertexId candidate)
{
    const PlanLevel &level = plan_->levels[t];
    workNs_ += cost_->candidateCheckNs;
    if (level.hasLabelFilter
        && graph_->label(candidate) != level.labelFilter)
        return false;
    for (int j = 0; j < t; ++j) {
        if (vertices_[j] == candidate)
            return false;
        if (((level.greaterThanMask >> j) & 1u)
            && candidate <= vertices_[j])
            return false;
    }
    return true;
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
        workNs_ += static_cast<double>(work) * cost_->intersectPerItemNs;
        std::int64_t size = static_cast<std::int64_t>(count);
        for (int j = 0; j < prefix_len; ++j) {
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
    workNs_ += cost_->terminalNs;
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
    buildCandidates(t, chunks[t - 1].result(idx), candidates_, stats);
    // Siblings share one stored copy of the candidate set; it is
    // appended lazily when the first child materializes.
    std::uint32_t result_offset = 0;
    bool result_stored = false;
    for (const VertexId candidate : candidates_) {
        if (!accept(t, candidate))
            continue;
        const std::uint32_t child_idx =
            child.add(candidate, idx, next.fetchEdgeList);
        ++stats.embeddingsCreated;
        workNs_ += cost_->embeddingCreateNs;
        if (next.storeResult) {
            if (!result_stored) {
                result_offset = child.appendResult(candidates_);
                result_stored = true;
            }
            child.setResultRef(
                child_idx, result_offset,
                static_cast<std::uint32_t>(candidates_.size()));
        }
    }
}

std::int64_t
PlanExtender::extendTerminal(const std::vector<Chunk> &chunks,
                             int level, std::uint32_t idx,
                             MatchVisitor *visitor,
                             sim::NodeStats &stats)
{
    recoverVertices(chunks, level, idx);
    if (plan_->hasIep)
        return iepTerminal(level + 1, chunks[level].result(idx),
                           stats);
    const int t = plan_->pattern.size() - 1;
    buildCandidates(t, chunks[t - 1].result(idx), candidates_, stats);
    std::int64_t raw = 0;
    for (const VertexId candidate : candidates_) {
        if (!accept(t, candidate))
            continue;
        ++raw;
        workNs_ += cost_->terminalNs;
        if (visitor) {
            vertices_[t] = candidate;
            visitor->match({vertices_.data(),
                            static_cast<std::size_t>(t + 1)});
        }
    }
    return raw;
}

} // namespace core
} // namespace khuzdul
