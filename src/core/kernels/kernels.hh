/**
 * @file
 * Adaptive sorted-list set-kernel suite: the computational heart of
 * pattern-aware enumeration (every extension is an intersection of
 * active edge lists, §3.1).  Four interchangeable kernels implement
 * each set operation:
 *
 *   - Merge: the reference two-pointer merge (the modeled machine);
 *   - Gallop: exponential-probe binary search driven by the smaller
 *     list, for skewed size ratios (hub vs. candidate lists);
 *   - Bitmap: per-element bit tests against a precomputed hub-vertex
 *     bitset stored on the Graph (Graph::buildHubBitmaps), with a
 *     word-parallel gather fast path when the SIMD tier is live;
 *   - SimdMerge: AVX2 shuffle-based all-pairs block merge for
 *     near-equal sizes (8x8 lane comparisons + table-driven lane
 *     compaction); intersections only.
 *
 * The SIMD tier is compiled per-function (target("avx2")) and gated
 * at runtime behind CPU-feature detection (simdAvailable()): on
 * hosts or builds without AVX2 every entry point falls back to the
 * scalar kernels with byte-identical outputs and charges.
 *
 * A KernelDispatcher picks the kernel per call from the size ratio
 * and hub-bitmap availability (or a forced KernelMode for A/B runs).
 *
 * ## Charging convention (canonical work)
 *
 * Kernels return WorkItems — the modeled compute charge consumed by
 * sim::CostModel.  The charge is *canonical*: every kernel reports
 * the element count the reference two-pointer merge would have
 * consumed on the same inputs, regardless of how few elements the
 * kernel actually touched, so modeled makespans, RunStats and every
 * EXPERIMENTS.md shape are bit-identical no matter which kernel
 * ran; only host wall-clock changes.  No kernel makes a second pass
 * to price it: the merges and gallops read it off the state they
 * stop in, and the bitmap kernels off the hub row's rank directory
 * (DESIGN.md §5.6).  canonicalIntersectWork/canonicalSubtractWork
 * give the same count in closed form for strictly-sorted
 * duplicate-free spans (the CSR invariant); they are the reference
 * the tests and bench_kernels check every kernel against.
 * Operations that copy rather than merge charge one WorkItem per
 * element copied (the intersectMany single-list pass-through); O(1)
 * reads (the intersectManyCount single-list size probe) charge 0.
 * Callers that view an already-materialized list instead of copying
 * charge nothing — the transfer was already charged by the provider
 * layer.
 *
 * All kernels require strictly ascending, duplicate-free inputs and
 * produce outputs that are element-for-element identical to the
 * reference merge.
 */

#ifndef KHUZDUL_CORE_KERNELS_KERNELS_HH
#define KHUZDUL_CORE_KERNELS_KERNELS_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hh"
#include "support/types.hh"

namespace khuzdul
{
namespace core
{

/** Work units charged by a kernel (canonical merge elements). */
using WorkItems = std::uint64_t;

/**
 * The kernel that executed one set operation.  Blocked and SimdGallop
 * name kernels that no longer exist; their tallies stay (always 0)
 * because perfbench's metric set and RunStats::toJson's host block
 * name all six kinds.
 */
enum class KernelKind : std::uint8_t
{
    Merge,      ///< reference two-pointer merge
    Blocked,    ///< retired: never dispatched, tally always 0
    Gallop,     ///< galloping binary search (skewed ratios)
    Bitmap,     ///< hub-vertex bitset probe (Graph::hubRow)
    SimdMerge,  ///< AVX2 shuffle-based block merge
    SimdGallop, ///< retired: never dispatched, tally always 0
};

inline constexpr std::size_t kNumKernelKinds = 6;

/** Stable lowercase name ("merge", ..., "simd_merge", "simd_gallop"). */
const char *kernelKindName(KernelKind kind);

/** Dispatcher policy: adaptive, or one kernel forced for A/B. */
enum class KernelMode : std::uint8_t
{
    Auto,   ///< pick per call from size ratio + bitmap availability
    Merge,  ///< always the reference merge (the modeled machine)
    Gallop, ///< always galloping search
    Bitmap, ///< bitmap wherever a hub row exists, else merge
};

/** Stable lowercase name ("auto", "merge", "gallop", "bitmap"). */
const char *kernelModeName(KernelMode mode);

/** Parse a --kernel value; aborts on unknown names. */
KernelMode parseKernelMode(const std::string &name);

/** Per-kind dispatch tallies (pairwise kernel executions). */
struct KernelCounters
{
    std::array<std::uint64_t, kNumKernelKinds> calls{};

    std::uint64_t
    operator[](KernelKind kind) const
    {
        return calls[static_cast<std::size_t>(kind)];
    }

    std::uint64_t
    total() const
    {
        std::uint64_t sum = 0;
        for (const std::uint64_t c : calls)
            sum += c;
        return sum;
    }
};

/** Per-kind call counts of one short operation sequence (one
 *  candidate set's worth: a handful of calls per kind). */
using KernelCallDelta = std::array<std::uint8_t, kNumKernelKinds>;

/**
 * A sorted list plus its provenance: when the span is exactly the
 * full neighbor list N(source) the dispatcher can substitute the
 * source's hub bitmap.  Intermediate results carry no source.
 */
struct ListRef
{
    std::span<const VertexId> list;
    VertexId source = kInvalidVertex;

    ListRef() = default;
    ListRef(std::span<const VertexId> l, VertexId src = kInvalidVertex)
        : list(l), source(src)
    {}
    ListRef(const std::vector<VertexId> &l) : list(l) {}

    std::size_t size() const { return list.size(); }
};

/** @name Canonical (merge-equivalent) work, in closed form
 *
 * What the reference two-pointer loop would consume on
 * strictly-sorted duplicate-free inputs, computed with one binary
 * search instead of running the merge.  The reference the kernels'
 * own charges are checked against; no kernel calls these.
 */
/// @{
WorkItems canonicalIntersectWork(std::span<const VertexId> a,
                                 std::span<const VertexId> b);
WorkItems canonicalSubtractWork(std::span<const VertexId> a,
                                std::span<const VertexId> b);
/// @}

/** @name Reference merge kernels (today's modeled machine)
 *
 * These free functions are the canonical implementations: every
 * other kernel must match their output element-for-element and
 * their WorkItems exactly.
 */
/// @{

/** out = a ∩ b (out may not alias inputs). */
WorkItems intersectInto(std::span<const VertexId> a,
                        std::span<const VertexId> b,
                        std::vector<VertexId> &out);

/** |a ∩ b| without materializing. */
WorkItems intersectCount(std::span<const VertexId> a,
                         std::span<const VertexId> b, Count &count);

/** out = a \ b (sorted difference; induced matching). */
WorkItems subtractInto(std::span<const VertexId> a,
                       std::span<const VertexId> b,
                       std::vector<VertexId> &out);

/**
 * out = intersection of all @p lists (1..8), folded smallest-first
 * (stable on size ties) to keep intermediates tight.  A single list
 * is copied into @p out and charged one WorkItem per element copied.
 */
WorkItems intersectMany(std::span<const std::span<const VertexId>> lists,
                        std::vector<VertexId> &out,
                        std::vector<VertexId> &scratch);

/**
 * |intersection of all lists| without materializing the result.
 * Both scratch buffers are clobbered.  A single list is an O(1)
 * size probe and charges 0.
 */
WorkItems intersectManyCount(
    std::span<const std::span<const VertexId>> lists, Count &count,
    std::vector<VertexId> &scratch_a, std::vector<VertexId> &scratch_b);
/// @}

/** @name Membership probe
 *
 * Linear scan below kContainsLinearCutoff (branch-predictable, no
 * pipeline flush from the halving loop), binary search above; the
 * cutoff is benchmarked in bench_kernels (contains sweep).
 */
/// @{
inline constexpr std::size_t kContainsLinearCutoff = 32;

bool contains(std::span<const VertexId> list, VertexId v);
bool containsLinear(std::span<const VertexId> list, VertexId v);
bool containsBinary(std::span<const VertexId> list, VertexId v);
/// @}

/** @name Alternative kernels (dispatched; also exposed for bench) */
/// @{
/** Galloping kernels; @p a should be the smaller (driving) list. */
WorkItems gallopIntersectInto(std::span<const VertexId> a,
                              std::span<const VertexId> b,
                              std::vector<VertexId> &out);
WorkItems gallopIntersectCount(std::span<const VertexId> a,
                               std::span<const VertexId> b,
                               Count &count);
WorkItems gallopSubtractInto(std::span<const VertexId> a,
                             std::span<const VertexId> b,
                             std::vector<VertexId> &out);

/**
 * Bitmap kernels: @p hub_list is N(h), @p row its bitmap words and
 * @p ranks its rank directory (Graph::hubRow(h)); the list @p a
 * drives.  Subtraction needs only the row and the directory.
 */
WorkItems bitmapIntersectInto(std::span<const VertexId> a,
                              std::span<const VertexId> hub_list,
                              const std::uint64_t *row,
                              const std::uint32_t *ranks,
                              std::vector<VertexId> &out);
WorkItems bitmapIntersectCount(std::span<const VertexId> a,
                               std::span<const VertexId> hub_list,
                               const std::uint64_t *row,
                               const std::uint32_t *ranks, Count &count);
WorkItems bitmapSubtractInto(std::span<const VertexId> a,
                             const std::uint64_t *row,
                             const std::uint32_t *ranks,
                             std::vector<VertexId> &out);
/// @}

/** @name SIMD tier (AVX2, runtime-detected)
 *
 * Output and charge byte-identical to the reference merge; when the
 * tier is unavailable (build-time KHUZDUL_NO_SIMD, non-x86, or the
 * CPU lacks AVX2) every entry point transparently runs the matching
 * scalar kernel.
 */
/// @{

/** True when AVX2 code paths were compiled into this binary. */
bool simdCompiled();

/** True when compiled AND the CPU reports AVX2 AND not disabled. */
bool simdAvailable();

/**
 * Host-side kill switch (tests/bench force the scalar fallback in an
 * AVX2 binary to prove byte-identical outputs).  Only a dispatcher's
 * SIMD-merge choice reads a snapshot taken at its construction; the
 * bitmap kernels' word-parallel probes and the simd* entry points
 * read the live switch on every call, so hold it off across a whole
 * run to keep that run scalar.
 */
void setSimdEnabled(bool enabled);

WorkItems simdMergeIntersectInto(std::span<const VertexId> a,
                                 std::span<const VertexId> b,
                                 std::vector<VertexId> &out);
WorkItems simdMergeIntersectCount(std::span<const VertexId> a,
                                  std::span<const VertexId> b,
                                  Count &count);
/// @}

namespace detail
{
/** Bit @p v of a hub bitmap row. */
inline bool
testBit(const std::uint64_t *row, VertexId v)
{
    return (row[v >> 6] >> (v & 63)) & 1u;
}

/**
 * Stable smallest-first order of the first @p n of <= 8 lists: the
 * fold order of both intersectMany implementations, which must pair
 * the same lists to charge alike.  Insertion sort is branch-light at
 * this size and, unlike std::sort, keeps size ties in input order.
 */
template <typename List>
void
sortBySizeStable(std::array<List, 8> &lists, std::size_t n)
{
    for (std::size_t i = 1; i < n; ++i) {
        const List key = lists[i];
        std::size_t j = i;
        while (j > 0 && lists[j - 1].size() > key.size()) {
            lists[j] = lists[j - 1];
            --j;
        }
        lists[j] = key;
    }
}

/** Word-parallel bitmap row probes (gather + variable shift); the
 *  bitmap kernels call these only when simdAvailable(). */
Count simdBitmapCount(std::span<const VertexId> a,
                      const std::uint64_t *row);
void simdBitmapFilter(std::span<const VertexId> a,
                      const std::uint64_t *row, bool keep_members,
                      std::vector<VertexId> &out);
} // namespace detail

/** @name Dispatch heuristics (size-ratio thresholds)
 *
 * Retuned from the BENCH_kernels.json calibration sweep: gallop's
 * crossover against merge sits between ratio 4 (merge wins 1.15x)
 * and ratio 15 (gallop wins 1.7x), so the gallop threshold dropped
 * from 16 to 8.  Under Auto the SIMD tier engages as SimdMerge
 * (near-equal sizes) and the word-parallel bitmap path.
 */
/// @{
/** Gallop when the larger list is >= this multiple of the smaller. */
inline constexpr std::size_t kGallopRatio = 8;
/** Bitmap (if a hub row exists) at this ratio and above. */
inline constexpr std::size_t kBitmapRatio = 4;
/** SIMD kernels engage when the driving list has at least this many
 *  elements (below this the vector setup outweighs the win). */
inline constexpr std::size_t kSimdMinSize = 16;
/// @}

/**
 * Per-call kernel selection.  One dispatcher per PlanExtender (an
 * engine unit or a runPlanDfs call); counters attribute every
 * pairwise set operation to the kernel that executed it.  Charged
 * WorkItems are canonical (see file header), so the choice of mode
 * never changes modeled time or stats — only wall-clock.
 */
class KernelDispatcher
{
  public:
    explicit KernelDispatcher(KernelMode mode = KernelMode::Auto,
                              const Graph *graph = nullptr)
        : mode_(mode), graph_(graph), simd_(simdAvailable())
    {}

    KernelMode mode() const { return mode_; }

    const KernelCounters &counters() const { return counters_; }

    /** Tally the calls of an operation sequence whose result is
     *  replayed from a memo instead of recomputed, so the counters
     *  read as if it had run again. */
    void
    replay(const KernelCallDelta &calls)
    {
        for (std::size_t k = 0; k < kNumKernelKinds; ++k)
            counters_.calls[k] += calls[k];
    }

    WorkItems intersectInto(const ListRef &a, const ListRef &b,
                            std::vector<VertexId> &out);
    WorkItems intersectCount(const ListRef &a, const ListRef &b,
                             Count &count);
    WorkItems subtractInto(const ListRef &a, const ListRef &b,
                           std::vector<VertexId> &out);

    /** Smallest-first folds mirroring the reference free functions
     *  (identical fold order, hence identical canonical charges). */
    WorkItems intersectMany(std::span<const ListRef> lists,
                            std::vector<VertexId> &out,
                            std::vector<VertexId> &scratch);
    WorkItems intersectManyCount(std::span<const ListRef> lists,
                                 Count &count,
                                 std::vector<VertexId> &scratch_a,
                                 std::vector<VertexId> &scratch_b);

  private:
    /** A pairwise kernel choice and, for Bitmap, the probe's row. */
    struct Choice
    {
        KernelKind kind;
        HubRow hub;
    };

    /**
     * The whole selection policy.  @p drive is the smaller operand of
     * an intersection or the base of a subtraction, @p probe the list
     * it is looked up in; only intersections have a SIMD merge.
     * Forced modes run their kernel (bitmap only where the probe has
     * a hub row, merge otherwise).  Auto takes, in order: merge for
     * an empty operand, bitmap at ratio >= kBitmapRatio when the probe
     * has a row, gallop at ratio >= kGallopRatio, SIMD merge for an
     * intersection whose drive has >= kSimdMinSize ids while the tier
     * was live at construction, and merge otherwise.
     */
    Choice choose(const ListRef &drive, const ListRef &probe,
                  bool intersect) const;

    KernelMode mode_;
    const Graph *graph_;
    bool simd_; ///< simdAvailable() snapshot at construction
    KernelCounters counters_;
};

} // namespace core
} // namespace khuzdul

#endif // KHUZDUL_CORE_KERNELS_KERNELS_HH
