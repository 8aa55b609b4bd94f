/**
 * @file
 * AVX2 SIMD tier: shuffle-based block merge intersection,
 * word-parallel bitmap row probes and the terminal rejection mask.
 * Every kernel here produces output element-for-element identical to
 * its scalar counterpart and charges the same canonical
 * merge-equivalent WorkItems — the tier changes host wall-clock
 * only.
 *
 * The AVX2 code is compiled per-function (target("avx2")) rather
 * than with a TU-wide -mavx2, so nothing outside the explicitly
 * vectorized bodies can pick up AVX encodings: calling the scalar
 * fallback path of this TU is safe on any x86-64 CPU.  Availability
 * is decided at runtime (simdCompiled && __builtin_cpu_supports)
 * with a host-side kill switch for equivalence tests; builds can
 * remove the tier entirely with -DKHUZDUL_NO_SIMD.
 */

#include "core/kernels/kernels.hh"

#include <algorithm>
#include <bit>

#if !defined(KHUZDUL_NO_SIMD) && defined(__x86_64__)                   \
    && (defined(__GNUC__) || defined(__clang__))
#define KHUZDUL_SIMD_AVX2 1
#include <immintrin.h>
#define KHUZDUL_SIMD_TARGET __attribute__((target("avx2")))
#define KHUZDUL_SIMD_POPCNT_TARGET                                     \
    __attribute__((target("avx2,popcnt")))
#else
#define KHUZDUL_SIMD_AVX2 0
#endif

namespace khuzdul
{
namespace core
{

namespace
{

/** Host-side kill switch; modeled results never depend on it. */
bool g_simd_enabled = true;

/** rejectionMask's scalar fallback, out of line: inlined, its loop
 *  made the entry point save five registers before testing the
 *  tier, on every call. */
[[gnu::noinline]] RejectionMask
scalarRejectionMaskCall(std::span<const VertexId> ids, VertexId minimum,
                        std::span<const VertexId> others)
{
    return detail::scalarRejectionMask(ids, minimum, others);
}

#if KHUZDUL_SIMD_AVX2

bool
cpuHasAvx2()
{
    static const bool has = __builtin_cpu_supports("avx2");
    return has;
}

/**
 * Lane-compaction table: for every 8-bit match mask, the
 * permutevar8x32 index vector that moves the selected lanes to the
 * front (padding lanes repeat index 0; they are never stored past
 * popcount(mask)).
 */
struct CompactTable
{
    alignas(32) std::uint32_t idx[256][8];
};

constexpr CompactTable
makeCompactTable()
{
    CompactTable t{};
    for (int mask = 0; mask < 256; ++mask) {
        int n = 0;
        for (int lane = 0; lane < 8; ++lane)
            if (mask & (1 << lane))
                t.idx[mask][n++] = static_cast<std::uint32_t>(lane);
        for (; n < 8; ++n)
            t.idx[mask][n] = 0;
    }
    return t;
}

constexpr CompactTable kCompact = makeCompactTable();

/** 8-bit mask of lanes where @p va equals *any* lane of @p vb:
 *  compare against all 8 rotations of the b block. */
KHUZDUL_SIMD_TARGET inline __m256i
matchMask(__m256i va, __m256i vb)
{
    const __m256i rotate1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
    __m256i m = _mm256_cmpeq_epi32(va, vb);
    __m256i rot = vb;
    for (int k = 1; k < 8; ++k) {
        rot = _mm256_permutevar8x32_epi32(rot, rotate1);
        m = _mm256_or_si256(m, _mm256_cmpeq_epi32(va, rot));
    }
    return m;
}

/**
 * The reference merge's i + j from a block merge stopped at (i, j).
 * A block advances only past elements the reference merge consumes
 * and the scalar tail is the reference merge, so (i, j) is exact
 * unless a list ran out on a block step: the other list's current
 * block never advanced and may still hold elements <= the exhausted
 * list's maximum (at most 7 — equal maxima advance both blocks).
 */
inline WorkItems
mergeEndWork(std::span<const VertexId> a, std::span<const VertexId> b,
             std::size_t i, std::size_t j)
{
    if (i == a.size() && i > 0) {
        while (j < b.size() && b[j] <= a.back())
            ++j;
    } else if (j == b.size() && j > 0) {
        while (i < a.size() && a[i] <= b.back())
            ++i;
    }
    return i + j;
}

/**
 * Block merge: compare 8 a-lanes against 8 b-lanes all-pairs, emit
 * the matching a-lanes front-compacted, then advance whichever block
 * has the smaller maximum (both on ties — safe because inputs are
 * strictly sorted, so equal maxima are the same matched value).
 * Each (a-block, b-block) pair is visited at most once and every
 * element lives in exactly one block, so no match is emitted twice;
 * blocks advance only past elements that cannot match anything
 * later, so none is missed.
 */
KHUZDUL_SIMD_TARGET WorkItems
avx2MergeIntersectInto(std::span<const VertexId> a,
                       std::span<const VertexId> b,
                       std::vector<VertexId> &out)
{
    // The block store below always writes 8 lanes even when fewer
    // survive compaction.  Matches-so-far <= min(i, j) + 7 (a block
    // whose max is matched advances in the same iteration, so an
    // unadvanced block holds at most 7 matched lanes) and the loop
    // guard keeps min(i, j) <= min(size) - 8, so 8 slack elements
    // bound the furthest store; the final resize trims them.
    out.resize(std::min(a.size(), b.size()) + 8);
    VertexId *op = out.data();
    std::size_t i = 0;
    std::size_t j = 0;
    while (i + 8 <= a.size() && j + 8 <= b.size()) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a.data() + i));
        const __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b.data() + j));
        const int mask = _mm256_movemask_ps(
            _mm256_castsi256_ps(matchMask(va, vb)));
        const __m256i perm = _mm256_load_si256(
            reinterpret_cast<const __m256i *>(kCompact.idx[mask]));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(op),
                            _mm256_permutevar8x32_epi32(va, perm));
        op += std::popcount(static_cast<unsigned>(mask));
        const VertexId amax = a[i + 7];
        const VertexId bmax = b[j + 7];
        i += amax <= bmax ? 8 : 0;
        j += bmax <= amax ? 8 : 0;
    }
    while (i < a.size() && j < b.size()) {
        if (a[i] < b[j]) {
            ++i;
        } else if (a[i] > b[j]) {
            ++j;
        } else {
            *op++ = a[i];
            ++i;
            ++j;
        }
    }
    out.resize(static_cast<std::size_t>(op - out.data()));
    return mergeEndWork(a, b, i, j);
}

/** All-ones lanes where @p va >= @p vbound, unsigned (AVX2 compares
 *  only signed: a lane is at or above iff it is the maximum). */
KHUZDUL_SIMD_TARGET inline __m256i
atOrAbove(__m256i va, __m256i vbound)
{
    return _mm256_cmpeq_epi32(_mm256_max_epu32(va, vbound), va);
}

/** Sum of the eight 32-bit lanes of @p v. */
KHUZDUL_SIMD_TARGET inline Count
laneSum(__m256i v)
{
    alignas(32) std::uint32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), v);
    Count c = 0;
    for (const std::uint32_t lane : lanes)
        c += lane;
    return c;
}

/** The block merge without the stores: matching lanes are counted,
 *  and those below the bound counted again, in the same loop. */
KHUZDUL_SIMD_TARGET WorkItems
avx2MergeIntersectCount(std::span<const VertexId> a,
                        std::span<const VertexId> b, VertexId bound,
                        SplitCount &count)
{
    const __m256i vbound = _mm256_set1_epi32(static_cast<int>(bound));
    // Matching lanes are all-ones (-1): subtracting counts them.
    __m256i members = _mm256_setzero_si256();
    __m256i below = _mm256_setzero_si256();
    std::size_t i = 0;
    std::size_t j = 0;
    while (i + 8 <= a.size() && j + 8 <= b.size()) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a.data() + i));
        const __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b.data() + j));
        const __m256i hit = matchMask(va, vb);
        members = _mm256_sub_epi32(members, hit);
        below = _mm256_sub_epi32(
            below, _mm256_andnot_si256(atOrAbove(va, vbound), hit));
        const VertexId amax = a[i + 7];
        const VertexId bmax = b[j + 7];
        i += amax <= bmax ? 8 : 0;
        j += bmax <= amax ? 8 : 0;
    }
    Count c = laneSum(members);
    Count c_below = laneSum(below);
    while (i < a.size() && j < b.size()) {
        if (a[i] < b[j]) {
            ++i;
        } else if (a[i] > b[j]) {
            ++j;
        } else {
            ++c;
            c_below += a[i] < bound;
            ++i;
            ++j;
        }
    }
    count = {c_below, c - c_below};
    return mergeEndWork(a, b, i, j);
}

/** Per-lane bitmap bit: gather the 32-bit word holding each vertex's
 *  bit (little-endian u64 rows read as u32 words: word v>>5, bit
 *  v&31), variable-shift it down, mask to the low bit. */
KHUZDUL_SIMD_TARGET inline __m256i
gatherBits(const int *words, __m256i va)
{
    const __m256i word_idx = _mm256_srli_epi32(va, 5);
    const __m256i w = _mm256_i32gather_epi32(words, word_idx, 4);
    const __m256i shift = _mm256_and_si256(va, _mm256_set1_epi32(31));
    return _mm256_and_si256(_mm256_srlv_epi32(w, shift),
                            _mm256_set1_epi32(1));
}

/** Row-bit count of @p a, and of its ids below the bound, in one
 *  gather loop. */
KHUZDUL_SIMD_TARGET SplitCount
avx2BitmapCount(std::span<const VertexId> a, const std::uint64_t *row,
                VertexId bound)
{
    const int *words = reinterpret_cast<const int *>(row);
    const __m256i vbound = _mm256_set1_epi32(static_cast<int>(bound));
    __m256i members = _mm256_setzero_si256();
    __m256i below = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 8 <= a.size(); i += 8) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a.data() + i));
        const __m256i bits = gatherBits(words, va);
        members = _mm256_add_epi32(members, bits);
        below = _mm256_add_epi32(
            below, _mm256_andnot_si256(atOrAbove(va, vbound), bits));
    }
    SplitCount count =
        detail::scalarBitmapCount(a.subspan(i), row, bound);
    const Count lanes_below = laneSum(below);
    count.below += lanes_below;
    count.atOrAbove += laneSum(members) - lanes_below;
    return count;
}

KHUZDUL_SIMD_TARGET void
avx2BitmapFilter(std::span<const VertexId> a, const std::uint64_t *row,
                 bool keep_members, std::vector<VertexId> &out)
{
    const int *words = reinterpret_cast<const int *>(row);
    const int flip = keep_members ? 0 : 0xff;
    out.resize(a.size());
    VertexId *op = out.data();
    std::size_t i = 0;
    for (; i + 8 <= a.size(); i += 8) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a.data() + i));
        const __m256i hit = _mm256_cmpeq_epi32(gatherBits(words, va),
                                               _mm256_set1_epi32(1));
        const int mask =
            _mm256_movemask_ps(_mm256_castsi256_ps(hit)) ^ flip;
        const __m256i perm = _mm256_load_si256(
            reinterpret_cast<const __m256i *>(kCompact.idx[mask]));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(op),
                            _mm256_permutevar8x32_epi32(va, perm));
        op += std::popcount(static_cast<unsigned>(mask));
    }
    for (; i < a.size(); ++i) {
        const VertexId x = a[i];
        if (detail::testBit(row, x) == keep_members)
            *op++ = x;
    }
    out.resize(static_cast<std::size_t>(op - out.data()));
}

/**
 * rejectionMask's AVX2 body: eight ids per masked load (lanes past
 * the end load as 0 and are masked off), each lane compared against
 * the bound and every excluded id; the block's mask is built from
 * the lanes' sign bits and counted with one popcnt.
 */
KHUZDUL_SIMD_POPCNT_TARGET RejectionMask
avx2RejectionMask(std::span<const VertexId> ids, VertexId minimum,
                  std::span<const VertexId> others)
{
    const __m256i vminimum = _mm256_set1_epi32(static_cast<int>(minimum));
    const __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < ids.size(); i += 8) {
        const __m256i live = _mm256_cmpgt_epi32(
            _mm256_set1_epi32(static_cast<int>(ids.size() - i)), lanes);
        const __m256i v = _mm256_maskload_epi32(
            reinterpret_cast<const int *>(ids.data() + i), live);
        __m256i equal = _mm256_setzero_si256();
        for (const VertexId other : others)
            equal = _mm256_or_si256(
                equal, _mm256_cmpeq_epi32(
                           v, _mm256_set1_epi32(static_cast<int>(other))));
        // Rejected: live and not (at or above the bound and unequal).
        const __m256i kept =
            _mm256_andnot_si256(equal, atOrAbove(v, vminimum));
        const __m256i rejected = _mm256_andnot_si256(kept, live);
        bits |= static_cast<std::uint64_t>(static_cast<unsigned>(
                    _mm256_movemask_ps(_mm256_castsi256_ps(rejected))))
            << i;
    }
    return {bits, static_cast<std::uint32_t>(_mm_popcnt_u64(bits))};
}

#endif // KHUZDUL_SIMD_AVX2

} // namespace

bool
simdCompiled()
{
    return KHUZDUL_SIMD_AVX2 != 0;
}

bool
simdAvailable()
{
#if KHUZDUL_SIMD_AVX2
    return g_simd_enabled && cpuHasAvx2();
#else
    return false;
#endif
}

void
setSimdEnabled(bool enabled)
{
    g_simd_enabled = enabled;
}

WorkItems
simdMergeIntersectInto(std::span<const VertexId> a,
                       std::span<const VertexId> b,
                       std::vector<VertexId> &out)
{
#if KHUZDUL_SIMD_AVX2
    if (simdAvailable())
        return avx2MergeIntersectInto(a, b, out);
#endif
    return intersectInto(a, b, out);
}

WorkItems
simdMergeIntersectCount(std::span<const VertexId> a,
                        std::span<const VertexId> b, VertexId bound,
                        SplitCount &count)
{
#if KHUZDUL_SIMD_AVX2
    if (simdAvailable())
        return avx2MergeIntersectCount(a, b, bound, count);
#endif
    return intersectCount(a, b, bound, count);
}

RejectionMask
rejectionMask(std::span<const VertexId> ids, VertexId minimum,
              std::span<const VertexId> others)
{
#if KHUZDUL_SIMD_AVX2
    if (simdAvailable())
        return avx2RejectionMask(ids, minimum, others);
#endif
    return scalarRejectionMaskCall(ids, minimum, others);
}

namespace detail
{

SplitCount
simdBitmapCount(std::span<const VertexId> a, const std::uint64_t *row,
                VertexId bound)
{
#if KHUZDUL_SIMD_AVX2
    if (simdAvailable())
        return avx2BitmapCount(a, row, bound);
#endif
    return scalarBitmapCount(a, row, bound);
}

void
simdBitmapFilter(std::span<const VertexId> a, const std::uint64_t *row,
                 bool keep_members, std::vector<VertexId> &out)
{
#if KHUZDUL_SIMD_AVX2
    if (simdAvailable()) {
        avx2BitmapFilter(a, row, keep_members, out);
        return;
    }
#endif
    scalarBitmapFilter(a, row, keep_members, out);
}

} // namespace detail

} // namespace core
} // namespace khuzdul
