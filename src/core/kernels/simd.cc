/**
 * @file
 * AVX2 SIMD tier: shuffle-based block merge intersection and
 * word-parallel bitmap row probes.  Every kernel here produces
 * output element-for-element identical to the reference merge and
 * charges the same canonical merge-equivalent WorkItems — the tier
 * changes host wall-clock only.
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

KHUZDUL_SIMD_TARGET WorkItems
avx2MergeIntersectCount(std::span<const VertexId> a,
                        std::span<const VertexId> b, Count &count)
{
    Count c = 0;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i + 8 <= a.size() && j + 8 <= b.size()) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a.data() + i));
        const __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b.data() + j));
        const int mask = _mm256_movemask_ps(
            _mm256_castsi256_ps(matchMask(va, vb)));
        c += std::popcount(static_cast<unsigned>(mask));
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
            ++c;
            ++i;
            ++j;
        }
    }
    count = c;
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

KHUZDUL_SIMD_TARGET Count
avx2BitmapCount(std::span<const VertexId> a, const std::uint64_t *row)
{
    const int *words = reinterpret_cast<const int *>(row);
    __m256i acc = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 8 <= a.size(); i += 8) {
        const __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a.data() + i));
        acc = _mm256_add_epi32(acc, gatherBits(words, va));
    }
    alignas(32) std::uint32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), acc);
    Count c = 0;
    for (const std::uint32_t lane : lanes)
        c += lane;
    for (; i < a.size(); ++i)
        c += detail::testBit(row, a[i]);
    return c;
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
                        std::span<const VertexId> b, Count &count)
{
#if KHUZDUL_SIMD_AVX2
    if (simdAvailable())
        return avx2MergeIntersectCount(a, b, count);
#endif
    return intersectCount(a, b, count);
}

namespace detail
{

Count
simdBitmapCount(std::span<const VertexId> a, const std::uint64_t *row)
{
#if KHUZDUL_SIMD_AVX2
    if (simdAvailable())
        return avx2BitmapCount(a, row);
#endif
    Count c = 0;
    for (const VertexId x : a)
        c += testBit(row, x);
    return c;
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
    out.clear();
    for (const VertexId x : a)
        if (testBit(row, x) == keep_members)
            out.push_back(x);
}

} // namespace detail

} // namespace core
} // namespace khuzdul
