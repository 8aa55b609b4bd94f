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
 *
 * Levels whose candidate set recurs across sibling subtrees are
 * served from a host-side memo (candidateMemoKey, DESIGN.md §5.4.1):
 * a hit replays every charge, kernel tally and edge-list read of the
 * miss it stands for, so only host wall-clock changes.
 */

#ifndef KHUZDUL_CORE_EXTENDER_HH
#define KHUZDUL_CORE_EXTENDER_HH

#include <array>
#include <functional>
#include <span>
#include <vector>

#include "core/chunk.hh"
#include "core/kernels/kernels.hh"
#include "core/visitor.hh"
#include "graph/graph.hh"
#include "pattern/plan.hh"
#include "sim/stats.hh"
#include "support/types.hh"

namespace khuzdul
{
namespace core
{

/**
 * Key of @p plan's level @p t in the candidate-set memo: the
 * positions its candidate set is a function of (depMask | antiMask),
 * or 0 when the level is not memoized.  A level is memoized when it
 * is materialized (not in an IEP suffix), does not reuse its
 * parent's stored result, intersects at least two lists, and its key
 * omits some position m >= 1 that no level strictly between the
 * deepest such m and @p t reads — so every sibling at m repeats the
 * same keys below it.  Depends on the plan alone.
 */
PositionMask candidateMemoKey(const ExtendPlan &plan, int t);

/**
 * Whether @p plan's terminal level can be counted without building
 * its candidate set when no visitor observes matches: the plan has
 * no IEP; the level is not memoized and has no label filter; every
 * earlier position is a dependency or a greater-than position, so
 * its filter is one lower bound and the rejected candidates are a
 * sorted prefix; and its last set operation is an intersection.
 * Depends on the plan alone.
 */
bool countOnlyTerminal(const ExtendPlan &plan);

/** Host-side tallies of one extender's candidate memo (not
 *  modeled: every charge is replayed on a hit). */
struct CandidateMemoCounters
{
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    /** Direct-mapped tables allocated (at a level's first lookup). */
    std::uint64_t tables = 0;
};

/**
 * Per-candidate filters of one level for the current prefix, built
 * once per extension: the label, the symmetry-breaking restrictions
 * folded into one bound (above the largest greaterThanMask vertex),
 * and distinctness from the matched prefix.
 */
struct CandidateFilter
{
    /** Set when the level filters on @ref label. */
    const Graph *labels = nullptr;
    Label label = 0;
    /** Candidates below this are rejected. */
    VertexId minimum = 0;
    /** The prefix vertices a candidate could still equal.  Every
     *  candidate lies in N(v_j) for the level's dependencies j
     *  (graphs have no self loops) and exceeds its greater-than
     *  positions, so only the remaining positions are checked. */
    std::array<VertexId, kMaxPatternSize> others{};
    std::size_t numOthers = 0;

    bool
    operator()(VertexId candidate) const
    {
        if (candidate < minimum)
            return false;
        if (labels && labels->label(candidate) != label)
            return false;
        for (std::size_t i = 0; i < numOthers; ++i)
            if (others[i] == candidate)
                return false;
        return true;
    }
};

/** Per-unit extension state: vertices, candidates, scratch. */
class PlanExtender
{
  public:
    /** @p hooks, when set, sees every edge-list read in read order
     *  (the engine passes none). */
    PlanExtender(const Graph &g, const ExtendPlan &plan,
                 KernelMode kernel_mode = KernelMode::Auto,
                 RunnerHooks *hooks = nullptr);

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
     * @return whether the prefix was walked (positions below
     * @p level may have changed).
     */
    bool
    recoverVertices(const std::vector<Chunk> &chunks, int level,
                    std::uint32_t idx)
    {
        const std::uint32_t parent = chunks[level].parent(idx);
        if (level == prefixLevel_ && parent == prefixParent_
            && parent != kNoParent) {
            vertices_[level] = chunks[level].vertex(idx);
            return false;
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
        return true;
    }

    /**
     * The candidate set for position @p t of the embedding.
     * @p stored is the parent's stored intermediate result (used
     * when the plan level reuses it, §5.1).  A computed set is
     * written to @p out and the view points there.  A level with no
     * set operation views @p stored (a reuse with no extra list) or
     * its lone edge list; a memo hit points into the memo's arena,
     * which the next buildCandidates call may overwrite.  Neither
     * touches @p out.
     */
    std::span<const VertexId> buildCandidates(
        int t, std::span<const VertexId> stored,
        std::vector<VertexId> &out, sim::NodeStats &stats);

    /** Whether @p set views the candidate memo's arena, which the
     *  next buildCandidates call may overwrite. */
    bool
    viewsMemoArena(std::span<const VertexId> set) const
    {
        const std::less<const VertexId *> before;
        return !before(set.data(), memoArena_.data())
            && before(set.data(),
                      memoArena_.data() + memoArena_.capacity());
    }

    /** Position @p t's candidate filter for the current prefix
     *  (valid while positions below @p t stay unchanged). */
    CandidateFilter filter(int t) const;

    /** countOnlyTerminal() of this extender's plan. */
    bool countsTerminal() const { return countsTerminal_; }

    /**
     * Count-only terminal (countsTerminal() plans): the terminal
     * position's candidates below the filter's bound and at or
     * above it, for the current prefix.  The set operations before
     * the last run as buildCandidates runs them; the last one
     * counts.  Every charge, tally and edge-list read is the one
     * buildCandidates and the per-candidate scan would make, in the
     * same order, so the ledger's double is bit-identical.
     */
    SplitCount countTerminal(std::span<const VertexId> stored,
                             sim::NodeStats &stats);

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
     * Masked terminal scan of @p candidates, the terminal position's
     * set for the current prefix, under @p accepts (its filter).  It
     * serves every terminal that is neither an IEP fold nor counted
     * (memo hits included).  Per block of kRejectionBlock ids it
     * takes rejectionMask's bits, ORs in the label filter's misses,
     * then adds, in candidate order, candidateCheckNs and
     * kMatchNs[rejected] per candidate to the ledger and hands the
     * accepted ones to @p visitor (when set) in ascending order.
     * @return the accepted count.
     */
    std::int64_t scanTerminal(std::span<const VertexId> candidates,
                              const CandidateFilter &accepts,
                              MatchVisitor *visitor);

    /**
     * Terminal extension of embedding (@p level, @p idx): IEP fold,
     * count-only terminal (no @p visitor) or masked scan, delivering
     * matches to @p visitor when set.
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

    const CandidateMemoCounters &
    memoCounters() const
    {
        return memoCounters_;
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

    /** Compute position @p t's candidate set, setting @p work to
     *  the canonical work charged for it.  @return a view of
     *  @p stored or of one edge list when no set operation runs,
     *  else of @p out. */
    std::span<const VertexId> intersect(int t,
                                        std::span<const VertexId> stored,
                                        std::vector<VertexId> &out,
                                        sim::NodeStats &stats,
                                        WorkItems &work);

    /** intersect() through the level's memo.  A hit replays the
     *  miss's kernel tallies and edge-list reads, sets @p work to
     *  the miss's work and returns the stored set; a miss returns
     *  what intersect() does. */
    std::span<const VertexId> memoized(int t,
                                       std::span<const VertexId> stored,
                                       std::vector<VertexId> &out,
                                       sim::NodeStats &stats,
                                       WorkItems &work);

    /** @name Candidate memo sizes (constants, not options) */
    /// @{
    static constexpr int kMemoSlotBits = 12;
    static constexpr std::size_t kMemoSlots = std::size_t{1}
        << kMemoSlotBits;
    /** Vertex ids all of one extender's stored sets may hold. */
    static constexpr std::size_t kMemoArenaIds = std::size_t{1} << 16;
    /// @}

    /** Key ids a slot holds inline (a memoized level's key has at
     *  least two positions). */
    static constexpr std::size_t kInlineKeyIds = 2;

    /** One stored set in 32 bytes: a hit on a two-position key
     *  (house's {0,3}) reads this slot and no side array. */
    struct MemoSlot
    {
        std::uint32_t offset = 0; ///< into memoArena_
        std::uint32_t size = 0;
        WorkItems work = 0;
        std::array<VertexId, kInlineKeyIds> key{};
        KernelCallDelta calls{};
        bool valid = false;
    };
    static_assert(sizeof(MemoSlot) == 32);

    /** One memoized level's direct-mapped table: slots plus the key
     *  ids past the inline ones (kMemoSlots x (width - 2)); empty
     *  until the level's first lookup. */
    struct MemoTable
    {
        std::vector<MemoSlot> slots;
        std::vector<VertexId> keys;
        std::size_t width = 0; ///< key positions (set at construction)
    };

    const Graph *graph_;
    const ExtendPlan *plan_;
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
    /** The terminal level's filter, kept across a sibling run when
     *  it does not read the siblings' own position (t - 1). */
    CandidateFilter terminalFilter_;
    bool terminalFilterReadsLast_ = true;
    bool countsTerminal_ = false;

    std::array<PositionMask, kMaxPatternSize> memoKeys_{};
    std::array<MemoTable, kMaxPatternSize> memo_{};
    std::vector<VertexId> memoArena_;
    CandidateMemoCounters memoCounters_;
};

} // namespace core
} // namespace khuzdul

#endif // KHUZDUL_CORE_EXTENDER_HH
