/**
 * @file
 * The EXTEND step kernel: everything one extension does *after* its
 * edge lists are available.  PlanExtender materializes candidate
 * sets (with vertical computation sharing, §5.1), applies the plan's
 * per-candidate filters, and folds the IEP terminal block, owning
 * all scratch buffers.  It is the only copy of this logic: the
 * chunked engine's explorer (core/engine.cc) drives it over
 * parent-pointer chunks, whose embeddings it recovers itself, and
 * runPlanDfs (core/plan_runner) drives it as a plain recursive DFS
 * for the baselines.  Charged intersection
 * work accumulates in an exchangeable ledger that the explorer
 * attributes to the embedding's circulant batch.
 */

#ifndef KHUZDUL_CORE_EXTENDER_HH
#define KHUZDUL_CORE_EXTENDER_HH

#include <array>
#include <span>
#include <vector>

#include "core/chunk.hh"
#include "core/kernels/kernels.hh"
#include "core/visitor.hh"
#include "graph/graph.hh"
#include "pattern/plan.hh"
#include "sim/cost_model.hh"
#include "sim/stats.hh"
#include "support/types.hh"

namespace khuzdul
{
namespace core
{

/** Per-unit extension state: vertices, candidates, scratch. */
class PlanExtender
{
  public:
    /** @p hooks, when set, sees every edge-list read in read order
     *  (the engine passes none). */
    PlanExtender(const Graph &g, const ExtendPlan &plan,
                 const sim::CostModel &cost,
                 KernelMode kernel_mode = KernelMode::Auto,
                 RunnerHooks *hooks = nullptr)
        : graph_(&g), plan_(&plan), cost_(&cost), hooks_(hooks),
          dispatcher_(kernel_mode, &g)
    {}

    /**
     * Walk parent pointers to recover the embedding's vertices.
     *
     * Children of one parent are contiguous in a chunk (the frontier
     * columns are filled in extension order), so sibling runs share
     * the whole recovered prefix: when the previous recovery at this
     * level had the same parent index the walk is skipped and only
     * the last vertex is refreshed.  The cached prefix can never go
     * stale across chunk refills — before any same-level recovery
     * can see a refilled chunk, an extension at the level above has
     * already re-run recovery there and retagged the cache.
     */
    void
    recoverVertices(const std::vector<Chunk> &chunks, int level,
                    std::uint32_t idx)
    {
        const std::uint32_t parent = chunks[level].parent(idx);
        if (level == prefixLevel_ && parent == prefixParent_
            && parent != kNoParent) {
            vertices_[level] = chunks[level].vertex(idx);
            return;
        }
        const std::span<const VertexId> col =
            chunks[level].vertexColumn();
        vertices_[level] = col[idx];
        std::uint32_t cursor = parent;
        for (int l = level - 1; l >= 0; --l) {
            vertices_[l] = chunks[l].vertex(cursor);
            cursor = chunks[l].parent(cursor);
        }
        prefixLevel_ = level;
        prefixParent_ = parent;
    }

    /**
     * Materialize into @p out the candidate set for position @p t of
     * the embedding.  @p stored is the parent's stored intermediate
     * result (used when the plan level reuses it, §5.1).
     */
    void buildCandidates(int t, std::span<const VertexId> stored,
                         std::vector<VertexId> &out,
                         sim::NodeStats &stats);

    /** Per-candidate filters (distinctness, restrictions, labels). */
    bool accept(int t, VertexId candidate);

    /**
     * IEP terminal block over the matched prefix (GraphPi, §IEP).
     * @return the raw-count contribution of this embedding.
     */
    std::int64_t iepTerminal(int prefix_len,
                             std::span<const VertexId> stored,
                             sim::NodeStats &stats);

    /** Extend non-terminal embedding (@p level, @p idx) of
     *  @p chunks, appending accepted children to @p child. */
    void extendInner(const std::vector<Chunk> &chunks, Chunk &child,
                     int level, std::uint32_t idx,
                     sim::NodeStats &stats);

    /**
     * Terminal extension of embedding (@p level, @p idx): IEP fold
     * or scan-count, delivering matches to @p visitor when set.
     * @return the raw-count contribution.
     */
    std::int64_t extendTerminal(const std::vector<Chunk> &chunks,
                                int level, std::uint32_t idx,
                                MatchVisitor *visitor,
                                sim::NodeStats &stats);

    /** The recovered/extended embedding (position-indexed). */
    std::array<VertexId, kMaxPatternSize> &vertices()
    {
        return vertices_;
    }

    /** Swap the work ledger (explorer save/zero/restore per
     *  embedding so work lands on the right batch). */
    double
    exchangeWork(double value)
    {
        const double old = workNs_;
        workNs_ = value;
        return old;
    }

    double workNs() const { return workNs_; }

    /** Per-kind tallies of the kernels dispatched so far. */
    const KernelCounters &
    kernelCounters() const
    {
        return dispatcher_.counters();
    }

  private:
    /** Edge list of @p v, reported to the hooks first. */
    std::span<const VertexId>
    edgeList(VertexId v)
    {
        if (hooks_)
            hooks_->onEdgeListAccess(v);
        return graph_->neighbors(v);
    }

    const Graph *graph_;
    const ExtendPlan *plan_;
    const sim::CostModel *cost_;
    RunnerHooks *hooks_;
    KernelDispatcher dispatcher_;

    std::array<VertexId, kMaxPatternSize> vertices_{};
    std::array<ListRef, kMaxPatternSize> listBuf_{};
    std::vector<VertexId> candidates_;
    std::vector<VertexId> scratchA_;
    std::vector<VertexId> scratchB_;
    double workNs_ = 0;
    int prefixLevel_ = -1;          ///< level of the cached prefix
    std::uint32_t prefixParent_ = kNoParent;
};

} // namespace core
} // namespace khuzdul

#endif // KHUZDUL_CORE_EXTENDER_HH
