/**
 * @file
 * Differential and property tests for the set-kernel suite
 * (core/kernels): every kernel must agree element-for-element with
 * the reference two-pointer merge and charge the identical canonical
 * WorkItems on randomized and adversarial inputs; the dispatcher
 * must be mode-invariant in outputs and charges; the hub-bitmap
 * index must be correct, capped and deterministic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "core/kernels/kernels.hh"
#include "graph/builder.hh"
#include "graph/generators.hh"
#include "support/rng.hh"

namespace khuzdul
{
namespace
{

std::vector<VertexId>
sortedUnique(std::vector<VertexId> values)
{
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()),
                 values.end());
    return values;
}

std::vector<VertexId>
randomList(std::size_t size, VertexId universe, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<VertexId> list(size);
    for (auto &v : list)
        v = static_cast<VertexId>(rng.nextBounded(universe));
    return sortedUnique(std::move(list));
}

/** Sorted run lo, lo + step, ... up to and including hi. */
std::vector<VertexId>
run(VertexId lo, VertexId hi, VertexId step = 1)
{
    std::vector<VertexId> list;
    for (VertexId v = lo; v <= hi; v += step)
        list.push_back(v);
    return list;
}

/** Adversarial (a, b) pairs: empties, extreme skew, overlap at span
 *  boundaries (equal first/last elements), disjoint ranges, dense
 *  all-common lists, and the places a kernel can stop mid-block or
 *  mid-gallop with the reference merge's i + j still ahead of it. */
std::vector<std::pair<std::vector<VertexId>, std::vector<VertexId>>>
adversarialPairs()
{
    std::vector<std::pair<std::vector<VertexId>, std::vector<VertexId>>>
        pairs;
    pairs.push_back({{}, {}});
    pairs.push_back({{}, {1, 2, 3}});
    pairs.push_back({{5}, {1, 2, 3, 4, 5, 6, 7, 8, 9}});
    pairs.push_back({{9}, {1, 2, 3}});           // a past b's end
    pairs.push_back({{1, 2, 3}, {4, 5, 6}});     // disjoint, adjacent
    pairs.push_back({{4, 5, 6}, {1, 2, 3}});     // disjoint, reversed
    pairs.push_back({{1, 100}, randomList(5000, 1 << 16, 3)});
    // Boundary-equal elements: spans meeting exactly at their ends.
    pairs.push_back({{1, 2, 3, 10}, {10, 11, 12}});
    pairs.push_back({{10, 11, 12}, {1, 2, 3, 10}});
    pairs.push_back({{1, 5, 9}, {1, 5, 9}});     // identical lists
    // Dense common prefix, then divergence.
    std::vector<VertexId> dense_a;
    std::vector<VertexId> dense_b;
    for (VertexId v = 0; v < 600; ++v) {
        dense_a.push_back(v);
        dense_b.push_back(v < 300 ? v : v + 1000);
    }
    pairs.push_back({dense_a, dense_b});
    // Extreme skew: 3 elements vs 100k.
    pairs.push_back({{7, 70'000, 99'999},
                     randomList(100'000, 1 << 20, 17)});
    // a runs out on a block step while b's current block still holds
    // elements <= a.back() (5, 6, 7), and the mirror, b first.
    pairs.push_back({run(0, 7), run(5, 20)});
    pairs.push_back({run(5, 20), run(0, 7)});
    pairs.push_back({run(0, 15), run(3, 40)});
    pairs.push_back({run(3, 40), run(0, 15)});
    // Equal maxima on a block edge: both blocks advance together.
    pairs.push_back({run(0, 7), run(0, 15)});
    pairs.push_back({run(0, 15), run(1, 15, 2)});
    pairs.push_back({run(0, 31), run(24, 31)});
    // A gallop that stops at the first a element > b.back(), with
    // and without a match on b.back() just before.
    pairs.push_back({{2, 9, 40, 50}, run(0, 31)});
    pairs.push_back({{31, 40}, run(0, 31)});
    pairs.push_back({{30, 32, 33}, run(0, 31)});
    // One-element lists.
    pairs.push_back({{7}, {}});
    pairs.push_back({{7}, {7}});
    pairs.push_back({{7}, {3}});
    pairs.push_back({{3}, {7}});
    pairs.push_back({{7}, run(0, 15)});
    return pairs;
}

/**
 * A bitmap row and rank directory over @p members, built
 * independently of Graph::buildHubBitmaps (a popcount per word)
 * and covering ids below @p universe.
 */
struct HubRowOf
{
    std::vector<std::uint64_t> words;
    std::vector<std::uint32_t> ranks;

    HubRowOf(std::span<const VertexId> members, VertexId universe)
        : words((universe + 63) / 64, 0), ranks(words.size(), 0)
    {
        for (const VertexId v : members)
            words[v >> 6] |= std::uint64_t{1} << (v & 63);
        for (std::size_t w = 1; w < words.size(); ++w)
            ranks[w] = ranks[w - 1]
                + static_cast<std::uint32_t>(
                    std::popcount(words[w - 1]));
    }
};

void
expectKernelAgreement(std::span<const VertexId> a,
                      std::span<const VertexId> b)
{
    std::vector<VertexId> ref;
    std::vector<VertexId> out;
    Count count = 0;
    const core::WorkItems work = core::intersectInto(a, b, ref);

    EXPECT_EQ(core::canonicalIntersectWork(a, b), work);
    EXPECT_EQ(core::intersectCount(a, b, count), work);
    EXPECT_EQ(count, ref.size());

    EXPECT_EQ(core::gallopIntersectInto(a, b, out), work);
    EXPECT_EQ(out, ref);
    EXPECT_EQ(core::gallopIntersectCount(a, b, count), work);
    EXPECT_EQ(count, ref.size());

    EXPECT_EQ(core::simdMergeIntersectInto(a, b, out), work);
    EXPECT_EQ(out, ref);
    EXPECT_EQ(core::simdMergeIntersectCount(a, b, count), work);
    EXPECT_EQ(count, ref.size());

    // Bitmap kernels with b as the hub list.
    VertexId universe = 1;
    for (const std::span<const VertexId> list : {a, b})
        if (!list.empty())
            universe = std::max(universe, list.back() + 1);
    const HubRowOf hub(b, universe);
    EXPECT_EQ(core::bitmapIntersectInto(a, b, hub.words.data(),
                                        hub.ranks.data(), out),
              work);
    EXPECT_EQ(out, ref);
    EXPECT_EQ(core::bitmapIntersectCount(a, b, hub.words.data(),
                                         hub.ranks.data(), count),
              work);
    EXPECT_EQ(count, ref.size());

    // Subtraction: gallop and bitmap against the reference.
    std::vector<VertexId> sub_ref;
    const core::WorkItems sub_work = core::subtractInto(a, b, sub_ref);
    EXPECT_EQ(core::canonicalSubtractWork(a, b), sub_work);
    EXPECT_EQ(core::gallopSubtractInto(a, b, out), sub_work);
    EXPECT_EQ(out, sub_ref);
    EXPECT_EQ(core::bitmapSubtractInto(a, hub.words.data(),
                                       hub.ranks.data(), out),
              sub_work);
    EXPECT_EQ(out, sub_ref);
}

TEST(Kernels, AdversarialPairsAgree)
{
    for (const auto &[a, b] : adversarialPairs()) {
        SCOPED_TRACE("sizes " + std::to_string(a.size()) + " x "
                     + std::to_string(b.size()));
        expectKernelAgreement(a, b);
        expectKernelAgreement(b, a);
    }
}

TEST(Kernels, RandomizedPairsAgree)
{
    Rng rng(99);
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t size_a = rng.nextBounded(400);
        const std::size_t size_b = 1 + rng.nextBounded(4000);
        const VertexId universe =
            1 + static_cast<VertexId>(rng.nextBounded(8000));
        const auto a = randomList(size_a, universe, 1000 + trial);
        const auto b = randomList(size_b, universe, 2000 + trial);
        SCOPED_TRACE("trial " + std::to_string(trial));
        expectKernelAgreement(a, b);
    }
}

/**
 * Exhaustive residue/alignment sweep for the SIMD tier: the AVX2
 * merge consumes 8-wide blocks with a scalar tail and the bitmap
 * probes gather 8 lanes, so every tail residue mod 8 (0..7)
 * of BOTH lists and misaligned span starts must agree byte-for-byte
 * with the scalar kernels, including empty and singleton lists.
 */
TEST(Kernels, SimdResidueAndAlignmentSweep)
{
    for (const std::size_t base_a : {0ul, 8ul, 64ul, 248ul})
        for (std::size_t ra = 0; ra < 8; ++ra)
            for (const std::size_t base_b : {0ul, 8ul, 512ul})
                for (std::size_t rb = 0; rb < 8; rb += 3) {
                    const std::size_t na = base_a + ra;
                    const std::size_t nb = base_b + rb;
                    const auto a = randomList(na, 2048, 7000 + na);
                    const auto b = randomList(nb, 2048, 8000 + nb);
                    SCOPED_TRACE("sizes " + std::to_string(a.size())
                                 + " x " + std::to_string(b.size()));
                    expectKernelAgreement(a, b);
                    // Misaligned starts: drop the first element so
                    // the span no longer begins on the vector's
                    // natural boundary.
                    if (!a.empty() && !b.empty())
                        expectKernelAgreement(
                            std::span<const VertexId>(a).subspan(1),
                            std::span<const VertexId>(b).subspan(1));
                }
}

/**
 * The host-side kill switch must force the scalar fallback inside an
 * AVX2 binary with byte-identical outputs and charges — this is the
 * same code path a non-AVX2 host takes, so the sweep proves the
 * fallback cannot rot even when CI only has wide machines.
 */
TEST(Kernels, SimdKillSwitchFallbackIsByteIdentical)
{
    const bool was_available = core::simdAvailable();
    const auto a = randomList(517, 4096, 31);   // residue 5
    const auto b = randomList(4096, 8192, 32);  // skewed partner

    std::vector<VertexId> simd_out, scalar_out;
    const core::WorkItems w_on =
        core::simdMergeIntersectInto(a, b, simd_out);

    core::setSimdEnabled(false);
    EXPECT_FALSE(core::simdAvailable());
    const core::WorkItems w_off =
        core::simdMergeIntersectInto(a, b, scalar_out);
    EXPECT_EQ(w_on, w_off);
    EXPECT_EQ(simd_out, scalar_out);

    // The whole agreement battery must also hold with the tier off.
    expectKernelAgreement(a, b);
    expectKernelAgreement(b, a);

    core::setSimdEnabled(true);
    EXPECT_EQ(core::simdAvailable(), was_available);
    if (!was_available)
        return; // scalar-only build/host: nothing more to compare
    expectKernelAgreement(a, b);
}

/**
 * Word-parallel bitmap probes (gather + variable shift) vs. the
 * scalar bit-test loop, across driving-list residues and both filter
 * polarities (intersect keeps members, subtract drops them).
 */
TEST(Kernels, SimdBitmapPathMatchesScalarOnHubLists)
{
    const Graph g = gen::rmat(2048, 20000, 0.57, 0.19, 0.19, 5);
    g.buildHubBitmaps(8, 32ull << 20);
    VertexId hub = 0;
    for (VertexId v = 1; v < g.numVertices(); ++v)
        if (g.degree(v) > g.degree(hub))
            hub = v;
    const auto [row, ranks] = g.hubRow(hub);
    ASSERT_NE(row, nullptr);
    ASSERT_NE(ranks, nullptr);
    const auto hub_list = g.neighbors(hub);

    for (std::size_t size = core::kSimdMinSize;
         size < core::kSimdMinSize + 8; ++size) {
        const auto a = randomList(size, g.numVertices(), 600 + size);
        SCOPED_TRACE("driver size " + std::to_string(a.size()));

        std::vector<VertexId> ref, out;
        Count count = 0;
        const core::WorkItems work =
            core::intersectInto(a, hub_list, ref);
        EXPECT_EQ(core::bitmapIntersectInto(a, hub_list, row, ranks,
                                            out),
                  work);
        EXPECT_EQ(out, ref);
        EXPECT_EQ(core::bitmapIntersectCount(a, hub_list, row, ranks,
                                             count),
                  work);
        EXPECT_EQ(count, ref.size());

        std::vector<VertexId> sub_ref;
        const core::WorkItems sub_work =
            core::subtractInto(a, hub_list, sub_ref);
        EXPECT_EQ(core::bitmapSubtractInto(a, row, ranks, out),
                  sub_work);
        EXPECT_EQ(out, sub_ref);

        // Same inputs with the tier off: identical bytes and charges.
        core::setSimdEnabled(false);
        EXPECT_EQ(core::bitmapIntersectInto(a, hub_list, row, ranks,
                                            out),
                  work);
        EXPECT_EQ(out, ref);
        EXPECT_EQ(core::bitmapSubtractInto(a, row, ranks, out),
                  sub_work);
        EXPECT_EQ(out, sub_ref);
        core::setSimdEnabled(true);
    }
}

TEST(Kernels, BitmapKernelsMatchReferenceOnHubLists)
{
    const Graph g = gen::rmat(2048, 20000, 0.57, 0.19, 0.19, 5);
    g.buildHubBitmaps(8, 32ull << 20);
    ASSERT_GT(g.hubBitmapCount(), 0u);
    Rng rng(7);
    int tested = 0;
    for (VertexId v = 0; v < g.numVertices() && tested < 50; ++v) {
        const auto [row, ranks] = g.hubRow(v);
        if (!row)
            continue;
        ++tested;
        const auto hub_list = g.neighbors(v);
        const auto a = randomList(1 + rng.nextBounded(64),
                                  g.numVertices(), 300 + v);
        std::vector<VertexId> ref;
        std::vector<VertexId> out;
        Count count = 0;
        const core::WorkItems work =
            core::intersectInto(a, hub_list, ref);
        EXPECT_EQ(core::bitmapIntersectInto(a, hub_list, row, ranks,
                                            out),
                  work);
        EXPECT_EQ(out, ref);
        EXPECT_EQ(core::bitmapIntersectCount(a, hub_list, row, ranks,
                                             count),
                  work);
        EXPECT_EQ(count, ref.size());

        std::vector<VertexId> sub_ref;
        const core::WorkItems sub_work =
            core::subtractInto(a, hub_list, sub_ref);
        EXPECT_EQ(core::bitmapSubtractInto(a, row, ranks, out),
                  sub_work);
        EXPECT_EQ(out, sub_ref);
    }
    EXPECT_EQ(tested, 50);
}

TEST(Kernels, DispatcherIsModeInvariant)
{
    const Graph g = gen::rmat(2048, 20000, 0.57, 0.19, 0.19, 5);
    g.buildHubBitmaps(8, 32ull << 20);
    VertexId hub = 0;
    for (VertexId v = 1; v < g.numVertices(); ++v)
        if (g.degree(v) > g.degree(hub))
            hub = v;
    ASSERT_TRUE(g.hubRow(hub));

    const core::ListRef hub_ref(g.neighbors(hub), hub);
    const auto small = randomList(24, g.numVertices(), 42);
    std::vector<VertexId> ref;
    std::vector<VertexId> out;
    const core::WorkItems work =
        core::intersectInto(small, hub_ref.list, ref);

    for (const core::KernelMode mode :
         {core::KernelMode::Auto, core::KernelMode::Merge,
          core::KernelMode::Gallop, core::KernelMode::Bitmap}) {
        core::KernelDispatcher dispatcher(mode, &g);
        EXPECT_EQ(dispatcher.intersectInto(core::ListRef(small),
                                           hub_ref, out),
                  work)
            << core::kernelModeName(mode);
        EXPECT_EQ(out, ref) << core::kernelModeName(mode);
        EXPECT_EQ(dispatcher.counters().total(), 1u);
    }
}

TEST(Kernels, DispatcherCountersAttributeKernels)
{
    const Graph g = gen::rmat(2048, 20000, 0.57, 0.19, 0.19, 5);
    g.buildHubBitmaps(8, 32ull << 20);
    VertexId hub = 0;
    for (VertexId v = 1; v < g.numVertices(); ++v)
        if (g.degree(v) > g.degree(hub))
            hub = v;
    const EdgeId hub_degree = g.degree(hub);
    ASSERT_GE(hub_degree, core::kBitmapRatio * 4);

    core::KernelDispatcher dispatcher(core::KernelMode::Auto, &g);
    std::vector<VertexId> out;

    // Tiny vs hub with a row: bitmap.
    const auto tiny = randomList(4, g.numVertices(), 1);
    dispatcher.intersectInto(core::ListRef(tiny),
                             {g.neighbors(hub), hub}, out);
    EXPECT_EQ(dispatcher.counters()[core::KernelKind::Bitmap], 1u);

    // Same skew but no source vertex: gallop (if ratio suffices).
    if (g.neighbors(hub).size() >= core::kGallopRatio * tiny.size()) {
        dispatcher.intersectInto(core::ListRef(tiny),
                                 core::ListRef(g.neighbors(hub)), out);
        EXPECT_EQ(dispatcher.counters()[core::KernelKind::Gallop], 1u);
    }

    // Near-equal large lists: SIMD merge when the tier is live,
    // plain merge otherwise (blocked was demoted from Auto — the
    // calibration sweep showed it losing to merge on every row).
    const auto a = randomList(500, 4096, 2);
    const auto b = randomList(500, 4096, 3);
    dispatcher.intersectInto(core::ListRef(a), core::ListRef(b), out);
    EXPECT_EQ(dispatcher.counters()[core::KernelKind::Blocked], 0u);
    if (core::simdAvailable())
        EXPECT_EQ(dispatcher.counters()[core::KernelKind::SimdMerge],
                  1u);
    else
        EXPECT_EQ(dispatcher.counters()[core::KernelKind::Merge], 1u);

    // Tiny near-equal lists (below kSimdMinSize): reference merge.
    const core::KernelCounters before = dispatcher.counters();
    const auto sa = randomList(8, 64, 4);
    const auto sb = randomList(8, 64, 5);
    dispatcher.intersectInto(core::ListRef(sa), core::ListRef(sb), out);
    EXPECT_EQ(dispatcher.counters()[core::KernelKind::Merge],
              before[core::KernelKind::Merge] + 1);
}

/** Restores the SIMD kill switch on scope exit, also when an ASSERT
 *  returns early. */
struct SimdSwitchGuard
{
    explicit SimdSwitchGuard(bool enabled) { core::setSimdEnabled(enabled); }
    ~SimdSwitchGuard() { core::setSimdEnabled(true); }
};

/**
 * The dispatch policy as a table: every (operation, mode, operand
 * shape) names the KernelKind the counters must record, once with
 * the SIMD tier live and once with it killed before the dispatcher
 * is built.  Forced merge and gallop always run their kernel; forced
 * bitmap runs bitmap when the probe has a hub row, merge otherwise.
 * Auto picks merge for an empty operand, then bitmap at ratio >=
 * kBitmapRatio when the probe has a row, gallop at ratio >=
 * kGallopRatio, SIMD merge for an intersection whose smaller list
 * has >= kSimdMinSize ids while the tier is live, and merge
 * otherwise.  The sizes sit on the thresholds' edges.
 */
TEST(Kernels, DispatchPolicyIsPinned)
{
    // Vertices 0 and 1 both neighbour 2..201; the one-row cap admits
    // only vertex 0 (hottest first, lower id on ties), so N(1) is a
    // probe of the same size and source without a row.
    constexpr VertexId kLeaves = 200;
    GraphBuilder builder(kLeaves + 2);
    for (VertexId v = 2; v < kLeaves + 2; ++v) {
        builder.addEdge(0, v);
        builder.addEdge(1, v);
    }
    const Graph g = builder.build();
    const std::uint64_t row_bytes = ((g.numVertices() + 63) / 64) * 8;
    g.buildHubBitmaps(kLeaves, row_bytes);
    ASSERT_EQ(g.hubBitmapCount(), 1u);
    ASSERT_EQ(core::kBitmapRatio, 4u);
    ASSERT_EQ(core::kGallopRatio, 8u);
    ASSERT_EQ(core::kSimdMinSize, 16u);

    // Drive lists: the first n leaves (ids 2..n+1).
    const auto leaves = [](std::size_t n) {
        return run(2, static_cast<VertexId>(n + 1));
    };
    const std::vector<VertexId> none;
    const std::vector<VertexId> d15 = leaves(15), d16 = leaves(16);
    const std::vector<VertexId> d25 = leaves(25), d26 = leaves(26);
    const std::vector<VertexId> d50 = leaves(50), d51 = leaves(51);
    const std::vector<VertexId> p15 = run(100, 114), p17 = run(100, 116);
    const core::ListRef hub(g.neighbors(0), 0);
    const core::ListRef rowless(g.neighbors(1), 1);

    enum class Op { Into, Count, Subtract };
    using K = core::KernelKind;
    struct Case
    {
        const char *shape;
        core::ListRef drive;
        core::ListRef probe;
        K bitmap;      ///< KernelMode::Bitmap
        K autoLive;    ///< KernelMode::Auto, SIMD tier live
        K autoKilled;  ///< KernelMode::Auto, SIMD tier killed
    };
    // Intersections (into and count): the dispatcher orders operands
    // by size, so each case also runs with drive and probe swapped.
    const std::vector<Case> intersections = {
        {"empty drive", none, hub, K::Bitmap, K::Merge, K::Merge},
        {"empty probe", d25, none, K::Merge, K::Merge, K::Merge},
        {"near-equal 15", d15, p15, K::Merge, K::Merge, K::Merge},
        {"near-equal 16", d16, p17, K::Merge, K::SimdMerge, K::Merge},
        {"ratio 3.9, row", d51, hub, K::Bitmap, K::SimdMerge, K::Merge},
        {"ratio 4, row", d50, hub, K::Bitmap, K::Bitmap, K::Bitmap},
        {"ratio 4, no row", d50, rowless, K::Merge, K::SimdMerge,
         K::Merge},
        {"ratio 7.7, no row", d26, rowless, K::Merge, K::SimdMerge,
         K::Merge},
        {"ratio 8, row", d25, hub, K::Bitmap, K::Bitmap, K::Bitmap},
        {"ratio 8, no row", d25, rowless, K::Merge, K::Gallop,
         K::Gallop},
    };
    // Subtractions: the drive is the base, only the probe is looked
    // up, and there is no SIMD subtraction.
    const std::vector<Case> subtractions = {
        {"empty drive", none, hub, K::Bitmap, K::Merge, K::Merge},
        {"empty probe", d25, none, K::Merge, K::Merge, K::Merge},
        {"near-equal 15", d15, p15, K::Merge, K::Merge, K::Merge},
        {"near-equal 16", d16, p17, K::Merge, K::Merge, K::Merge},
        {"ratio 3.9, row", d51, hub, K::Bitmap, K::Merge, K::Merge},
        {"ratio 4, row", d50, hub, K::Bitmap, K::Bitmap, K::Bitmap},
        {"ratio 4, no row", d50, rowless, K::Merge, K::Merge, K::Merge},
        {"ratio 7.7, no row", d26, rowless, K::Merge, K::Merge, K::Merge},
        {"ratio 8, row", d25, hub, K::Bitmap, K::Bitmap, K::Bitmap},
        {"ratio 8, no row", d25, rowless, K::Merge, K::Gallop,
         K::Gallop},
    };

    const bool simd_live = core::simdAvailable();
    const auto expectChoice = [&g](Op op, const core::ListRef &first,
                                   const core::ListRef &second,
                                   core::KernelMode mode, bool simd_on,
                                   K expected) {
        const SimdSwitchGuard simd(simd_on);
        core::KernelDispatcher dispatcher(mode, &g);
        std::vector<VertexId> out;
        Count count = 0;
        switch (op) {
          case Op::Into:
            dispatcher.intersectInto(first, second, out);
            break;
          case Op::Count:
            dispatcher.intersectCount(first, second, count);
            break;
          case Op::Subtract:
            dispatcher.subtractInto(first, second, out);
            break;
        }
        EXPECT_EQ(dispatcher.counters().total(), 1u);
        EXPECT_EQ(dispatcher.counters()[expected], 1u)
            << "expected " << core::kernelKindName(expected);
    };
    const auto expectCase = [&](Op op, const Case &c, bool swapped) {
        const core::ListRef &first = swapped ? c.probe : c.drive;
        const core::ListRef &second = swapped ? c.drive : c.probe;
        for (const bool simd_on : {true, false}) {
            SCOPED_TRACE(std::string(c.shape)
                         + (swapped ? ", swapped" : "")
                         + (simd_on ? ", simd live" : ", simd killed"));
            const K auto_kind =
                simd_on && simd_live ? c.autoLive : c.autoKilled;
            expectChoice(op, first, second, core::KernelMode::Merge,
                         simd_on, K::Merge);
            expectChoice(op, first, second, core::KernelMode::Gallop,
                         simd_on, K::Gallop);
            expectChoice(op, first, second, core::KernelMode::Bitmap,
                         simd_on, c.bitmap);
            expectChoice(op, first, second, core::KernelMode::Auto,
                         simd_on, auto_kind);
        }
    };
    for (const Op op : {Op::Into, Op::Count}) {
        SCOPED_TRACE(op == Op::Into ? "intersectInto" : "intersectCount");
        for (const Case &c : intersections) {
            expectCase(op, c, false);
            expectCase(op, c, true);
        }
    }
    SCOPED_TRACE("subtractInto");
    for (const Case &c : subtractions)
        expectCase(Op::Subtract, c, false);
    EXPECT_EQ(core::simdAvailable(), simd_live);
}

TEST(Kernels, ManyListFoldsMatchAcrossDispatchAndReference)
{
    Rng rng(55);
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t n = 1 + rng.nextBounded(5);
        std::vector<std::vector<VertexId>> storage;
        for (std::size_t i = 0; i < n; ++i)
            storage.push_back(randomList(1 + rng.nextBounded(800),
                                         2000, 70 * trial + i));
        std::vector<std::span<const VertexId>> spans(storage.begin(),
                                                     storage.end());
        std::vector<core::ListRef> refs(storage.begin(), storage.end());

        std::vector<VertexId> ref_out, out, scratch;
        const core::WorkItems ref_work = core::intersectMany(
            {spans.data(), spans.size()}, ref_out, scratch);

        core::KernelDispatcher dispatcher;
        EXPECT_EQ(dispatcher.intersectMany({refs.data(), refs.size()},
                                           out, scratch),
                  ref_work)
            << "trial " << trial;
        EXPECT_EQ(out, ref_out) << "trial " << trial;

        Count ref_count = 0, count = 0;
        std::vector<VertexId> sa, sb;
        const core::WorkItems ref_count_work = core::intersectManyCount(
            {spans.data(), spans.size()}, ref_count, sa, sb);
        EXPECT_EQ(dispatcher.intersectManyCount(
                      {refs.data(), refs.size()}, count, sa, sb),
                  ref_count_work)
            << "trial " << trial;
        EXPECT_EQ(count, ref_count) << "trial " << trial;
    }
}

TEST(Kernels, SingleListConventionsCopyChargesAndProbeIsFree)
{
    const auto list = randomList(100, 1000, 8);
    std::vector<std::span<const VertexId>> spans = {list};
    std::vector<VertexId> out, scratch;
    // The materialized pass-through copy charges 1 WorkItem/element.
    EXPECT_EQ(core::intersectMany({spans.data(), 1}, out, scratch),
              list.size());
    EXPECT_EQ(out, list);
    // The count-only size probe is O(1) and charges nothing.
    Count count = 0;
    std::vector<VertexId> sa, sb;
    EXPECT_EQ(core::intersectManyCount({spans.data(), 1}, count, sa,
                                       sb),
              0u);
    EXPECT_EQ(count, list.size());
}

TEST(Kernels, ContainsAgreesAcrossCutoff)
{
    for (const std::size_t size :
         {0ul, 1ul, 31ul, 32ul, 33ul, 500ul}) {
        const auto list = randomList(size, 700, 60 + size);
        for (VertexId v = 0; v < 700; v += 7) {
            const bool expected = std::binary_search(list.begin(),
                                                     list.end(), v);
            EXPECT_EQ(core::containsLinear(list, v), expected);
            EXPECT_EQ(core::containsBinary(list, v), expected);
            EXPECT_EQ(core::contains(list, v), expected);
        }
    }
}

TEST(Kernels, HubBitmapAdmissionIsCappedAndHottestFirst)
{
    const Graph g = gen::rmat(4096, 60000, 0.6, 0.15, 0.15, 21);
    const std::size_t row_bytes = ((g.numVertices() + 63) / 64) * 8;

    // Uncapped: every vertex at/above threshold has a row.
    g.buildHubBitmaps(16, 1ull << 30);
    std::size_t eligible = 0;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        const bool has_row = static_cast<bool>(g.hubRow(v));
        EXPECT_EQ(has_row, g.degree(v) >= 16) << "vertex " << v;
        eligible += g.degree(v) >= 16;
    }
    EXPECT_EQ(g.hubBitmapCount(), eligible);
    EXPECT_EQ(g.hubBitmapBytes(), eligible * row_bytes);
    ASSERT_GT(eligible, 8u);

    // Capped to 8 rows: only the 8 hottest keep rows, and no vertex
    // with a row is colder than any vertex without one.
    g.buildHubBitmaps(16, 8 * row_bytes);
    EXPECT_EQ(g.hubBitmapCount(), 8u);
    EXPECT_LE(g.hubBitmapBytes(), 8 * row_bytes);
    EdgeId coldest_admitted = ~EdgeId{0};
    EdgeId hottest_rejected = 0;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (g.hubRow(v))
            coldest_admitted = std::min(coldest_admitted, g.degree(v));
        else if (g.degree(v) >= 16)
            hottest_rejected = std::max(hottest_rejected, g.degree(v));
    }
    EXPECT_GE(coldest_admitted, hottest_rejected);

    // Zero cap disables the index entirely.
    g.buildHubBitmaps(16, 0);
    EXPECT_EQ(g.hubBitmapCount(), 0u);
    EXPECT_EQ(g.hubBitmapBytes(), 0u);
    EXPECT_FALSE(g.hubRow(0));
}

TEST(Kernels, HubRankDirectoryIsExact)
{
    const Graph g = gen::rmat(4096, 60000, 0.6, 0.15, 0.15, 21);
    const VertexId n = g.numVertices();
    const std::size_t row_bytes = ((n + 63) / 64) * 8;
    const auto expectExact = [&g, n] {
        std::size_t rows = 0;
        for (VertexId h = 0; h < n; ++h) {
            const auto [row, ranks] = g.hubRow(h);
            ASSERT_EQ(row != nullptr, ranks != nullptr) << "vertex " << h;
            if (!row)
                continue;
            ++rows;
            const auto list = g.neighbors(h);
            std::vector<VertexId> probes = {0, 63, 64, n - 1};
            for (const VertexId u : list) {
                probes.push_back(u);
                if (u > 0)
                    probes.push_back(u - 1);
                if (u + 1 < n)
                    probes.push_back(u + 1);
            }
            for (const VertexId x : probes) {
                const std::size_t expected = static_cast<std::size_t>(
                    std::upper_bound(list.begin(), list.end(), x)
                    - list.begin());
                ASSERT_EQ(hubRank(row, ranks, x), expected)
                    << "hub " << h << " x " << x;
            }
        }
        EXPECT_EQ(rows, g.hubBitmapCount());
        // One 32-bit count per row word.
        EXPECT_EQ(g.hubRankDirectoryBytes() * 2, g.hubBitmapBytes());
    };

    g.buildHubBitmaps(16, 1ull << 30);
    ASSERT_GT(g.hubBitmapCount(), 8u);
    expectExact();
    // A new threshold or cap rebuilds the directory with the rows.
    g.buildHubBitmaps(64, 1ull << 30);
    expectExact();
    g.buildHubBitmaps(16, 8 * row_bytes);
    EXPECT_EQ(g.hubBitmapCount(), 8u);
    expectExact();
    // A zero cap leaves no directory.
    g.buildHubBitmaps(16, 0);
    EXPECT_EQ(g.hubRankDirectoryBytes(), 0u);
    for (VertexId h = 0; h < n; ++h)
        ASSERT_EQ(g.hubRow(h).ranks, nullptr);
}

TEST(Kernels, ModeNamesRoundTrip)
{
    for (const core::KernelMode mode :
         {core::KernelMode::Auto, core::KernelMode::Merge,
          core::KernelMode::Gallop, core::KernelMode::Bitmap})
        EXPECT_EQ(core::parseKernelMode(core::kernelModeName(mode)),
                  mode);
    EXPECT_THROW(core::parseKernelMode("avx2"), FatalError);
    EXPECT_THROW(core::parseKernelMode("blocked"), FatalError);
    EXPECT_THROW(core::parseKernelMode("simd"), FatalError);
}

} // namespace
} // namespace khuzdul
