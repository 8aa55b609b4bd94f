/**
 * @file
 * Set-kernel benchmark harness (BENCH_kernels.json).
 *
 * Five sections:
 *   1. Pair sweeps — one small list against larger lists across a
 *      size-ratio sweep, wall-clocking every kernel (merge, blocked,
 *      gallop, SIMD merge, SIMD gallop, adaptive dispatcher) on
 *      identical inputs and checking outputs and canonical charges
 *      agree.
 *   2. SIMD sweep — 4k x 4k equal-size races isolating the AVX2
 *      block merge against the scalar reference.
 *   3. Hub-bitmap sweep — the same race against a real hub vertex's
 *      neighbor list with its precomputed bitset and rank directory,
 *      plus the memory accounting of the bitmap index.
 *   4. Engine A/B — full `count` runs per --kernel mode, asserting
 *      counts and modeled makespans are mode-invariant while
 *      reporting host wall-clock per mode.
 *   5. Membership probes — contains() against its linear and binary
 *      variants at list sizes 8-128, the sweep kContainsLinearCutoff
 *      is read from.  Ungated on speed; the three must agree.
 *
 * Every sweep row times its kernels in interleaved rounds, rotating
 * which kernel runs first, and reports each kernel's median round:
 * a scheduler hiccup then costs one sample, not the row.
 *
 * `--check` turns the harness into a CI perf-smoke gate.  It fails
 * (exit 1) if any invariance check fails, if the adaptive dispatcher
 * falls below 0.95x the best single kernel on any sweep row, or if —
 * with AVX2 available — the SIMD merge is not at least 1.5x the
 * scalar merge on the 4k x 4k equal-size sweep.  `--out FILE`
 * overrides the JSON path.
 */

#include <algorithm>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>

#include "bench_common.hh"
#include "core/kernels/kernels.hh"
#include "support/rng.hh"
#include "support/timer.hh"

namespace
{

using namespace khuzdul;

std::vector<VertexId>
sortedRandomList(std::size_t size, VertexId universe, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<VertexId> list(size);
    for (auto &v : list)
        v = static_cast<VertexId>(rng.nextBounded(universe));
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    return list;
}

/** Wall-clock one kernel invocation, auto-calibrating iterations to
 *  a ~20 ms measurement window.  Returns ns per call. */
template <typename Fn>
double
timeKernel(Fn &&fn)
{
    Timer probe;
    fn();
    const std::uint64_t once = std::max<std::uint64_t>(
        probe.elapsedNs(), 50);
    const std::uint64_t iters =
        std::clamp<std::uint64_t>(20'000'000 / once, 10, 200'000);
    Timer timer;
    for (std::uint64_t i = 0; i < iters; ++i)
        fn();
    return static_cast<double>(timer.elapsedNs())
        / static_cast<double>(iters);
}

struct SweepRow
{
    std::size_t small = 0;
    std::size_t large = 0;
    std::size_t ratio = 0;
    bool bitmap_backed = false;
    double mergeNs = 0;
    double blockedNs = 0;
    double gallopNs = 0;
    double bitmapNs = -1; ///< -1 = no hub row for this input
    double simdMergeNs = -1; ///< -1 = SIMD tier unavailable
    double simdGallopNs = -1;
    double autoNs = 0;

    /** Fastest single kernel on this row (the bar `auto` must hold). */
    double
    bestSingleNs() const
    {
        double best = std::min({mergeNs, blockedNs, gallopNs});
        if (bitmapNs > 0)
            best = std::min(best, bitmapNs);
        if (simdMergeNs > 0)
            best = std::min(best, std::min(simdMergeNs, simdGallopNs));
        return best;
    }
};

/** A kernel to time and where its median goes. */
struct TimedKernel
{
    double *ns;
    std::function<double()> measure; ///< one timeKernel() window
};

/** @p kernel's entry; the timing loop is instantiated per kernel, so
 *  the timed calls stay direct. */
template <typename Fn>
TimedKernel
timed(double &ns, Fn kernel)
{
    return {&ns, [kernel] { return timeKernel(kernel); }};
}

/** Minimum timing rounds per sweep row. */
constexpr std::size_t kMinRounds = 5;

/**
 * Time @p kernels in max(kMinRounds, kernels) interleaved rounds,
 * each round starting one kernel later, so every kernel runs first
 * at least once; store each kernel's median round.
 */
void
timeInterleaved(const std::vector<TimedKernel> &kernels)
{
    const std::size_t rounds = std::max(kMinRounds, kernels.size());
    std::vector<std::vector<double>> samples(kernels.size());
    for (std::size_t round = 0; round < rounds; ++round) {
        for (std::size_t i = 0; i < kernels.size(); ++i) {
            const std::size_t k = (round + i) % kernels.size();
            samples[k].push_back(kernels[k].measure());
        }
    }
    for (std::size_t k = 0; k < kernels.size(); ++k) {
        std::vector<double> &times = samples[k];
        std::nth_element(times.begin(),
                         times.begin() + times.size() / 2, times.end());
        *kernels[k].ns = times[times.size() / 2];
    }
}

bool failed = false;

void
fail(const std::string &why)
{
    std::fprintf(stderr, "FAIL: %s\n", why.c_str());
    failed = true;
}

/** Race every kernel on (small, large); verify agreement, time each
 *  (medians of interleaved rounds). */
SweepRow
racePair(std::span<const VertexId> small, std::span<const VertexId> large,
         const Graph *graph, VertexId hub_source)
{
    SweepRow row;
    row.small = small.size();
    row.large = large.size();
    row.ratio = small.empty() ? 0 : large.size() / small.size();

    std::vector<VertexId> ref;
    std::vector<VertexId> out;
    const core::WorkItems ref_work =
        core::intersectInto(small, large, ref);

    const auto check = [&](const char *kernel, core::WorkItems work) {
        if (out != ref)
            fail(std::string(kernel) + " output mismatch");
        if (work != ref_work)
            fail(std::string(kernel) + " charge mismatch");
    };
    if (core::canonicalIntersectWork(small, large) != ref_work)
        fail("canonical work formula disagrees with merge loop");
    check("blocked", core::blockedIntersectInto(small, large, out));
    check("gallop", core::gallopIntersectInto(small, large, out));
    check("simd_merge", core::simdMergeIntersectInto(small, large, out));
    check("simd_gallop",
          core::simdGallopIntersectInto(small, large, out));

    std::vector<TimedKernel> kernels = {
        timed(row.mergeNs,
              [&] { core::intersectInto(small, large, out); }),
        timed(row.blockedNs,
              [&] { core::blockedIntersectInto(small, large, out); }),
        timed(row.gallopNs,
              [&] { core::gallopIntersectInto(small, large, out); }),
    };
    if (core::simdAvailable()) {
        kernels.push_back(timed(row.simdMergeNs, [&] {
            core::simdMergeIntersectInto(small, large, out);
        }));
        kernels.push_back(timed(row.simdGallopNs, [&] {
            core::simdGallopIntersectInto(small, large, out);
        }));
    }

    // The hub row and rank directory the dispatcher itself uses.
    const std::uint64_t *row_bits =
        graph ? graph->hubBitmapRow(hub_source) : nullptr;
    if (row_bits) {
        const std::uint32_t *ranks = graph->hubRankDirectory(hub_source);
        row.bitmap_backed = true;
        check("bitmap", core::bitmapIntersectInto(small, large, row_bits,
                                                  ranks, out));
        kernels.push_back(timed(row.bitmapNs, [&] {
            core::bitmapIntersectInto(small, large, row_bits, ranks,
                                      out);
        }));
    }

    core::KernelDispatcher dispatcher(core::KernelMode::Auto, graph);
    check("dispatcher",
          dispatcher.intersectInto(core::ListRef(small),
                                   core::ListRef(large, hub_source),
                                   out));
    kernels.push_back(timed(row.autoNs, [&] {
        dispatcher.intersectInto(core::ListRef(small),
                                 core::ListRef(large, hub_source), out);
    }));
    timeInterleaved(kernels);
    return row;
}

/** Host time per membership probe at one list size. */
struct ContainsRow
{
    std::size_t size = 0;
    double linearNs = 0;
    double binaryNs = 0;
    double dispatchNs = 0;
};

/** Keeps timed probe loops from being optimized away. */
volatile std::size_t probeSink = 0;

/** Race containsLinear / containsBinary / contains over @p probes. */
ContainsRow
raceContains(std::span<const VertexId> list,
             std::span<const VertexId> probes)
{
    for (const VertexId v : probes) {
        const bool linear = core::containsLinear(list, v);
        if (core::containsBinary(list, v) != linear
            || core::contains(list, v) != linear)
            fail("contains variants disagree at size "
                 + std::to_string(list.size()));
    }
    const auto perProbe = [&](bool (*probe)(std::span<const VertexId>,
                                            VertexId)) {
        return timeKernel([&] {
                   std::size_t found = 0;
                   for (const VertexId v : probes)
                       found += probe(list, v);
                   probeSink = found;
               })
            / static_cast<double>(probes.size());
    };
    ContainsRow row;
    row.size = list.size();
    row.linearNs = perProbe(core::containsLinear);
    row.binaryNs = perProbe(core::containsBinary);
    row.dispatchNs = perProbe(core::contains);
    return row;
}

struct EngineRow
{
    std::string graph;
    std::string pattern;
    std::string mode;
    Count count = 0;
    double makespanNs = 0;
    std::uint64_t wallNs = 0;
    std::array<std::uint64_t, core::kNumKernelKinds> kernelCalls{};
};

EngineRow
runEngine(const std::string &graph_name, const Graph &g,
          const Pattern &pattern, core::KernelMode mode)
{
    EngineRow row;
    row.graph = graph_name;
    row.pattern = pattern.toString();
    row.mode = core::kernelModeName(mode);
    core::EngineConfig config = bench::standInEngineConfig();
    config.session.kernelMode = mode;
    auto system = engines::KhuzdulSystem::kGraphPi(g, config);
    Timer timer;
    row.count = system->count(pattern, {});
    row.wallNs = timer.elapsedNs();
    row.makespanNs = system->stats().makespanNs();
    for (const sim::NodeStats &node : system->stats().nodes)
        for (std::size_t k = 0; k < row.kernelCalls.size(); ++k)
            row.kernelCalls[k] += node.kernelCalls[k];
    return row;
}

std::string
sweepJson(const std::vector<SweepRow> &rows)
{
    std::ostringstream os;
    os.precision(15);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SweepRow &r = rows[i];
        os << (i == 0 ? "" : ",\n")
           << "    {\"small\": " << r.small << ", \"large\": " << r.large
           << ", \"ratio\": " << r.ratio
           << ", \"bitmap_backed\": " << (r.bitmap_backed ? "true"
                                                          : "false")
           << ", \"merge_ns\": " << r.mergeNs
           << ", \"blocked_ns\": " << r.blockedNs
           << ", \"gallop_ns\": " << r.gallopNs
           << ", \"bitmap_ns\": " << r.bitmapNs
           << ", \"simd_merge_ns\": " << r.simdMergeNs
           << ", \"simd_gallop_ns\": " << r.simdGallopNs
           << ", \"auto_ns\": " << r.autoNs
           << ", \"speedup_auto_vs_merge\": "
           << (r.autoNs > 0 ? r.mergeNs / r.autoNs : 0)
           << ", \"speedup_auto_vs_best\": "
           << (r.autoNs > 0 ? r.bestSingleNs() / r.autoNs : 0) << "}";
    }
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_kernels.json";
    bool check = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0)
            check = true;
        else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            out_path = argv[++i];
    }

    bench::banner("Set-kernel suite",
                  "kernel dispatch microarchitecture (DESIGN.md 5.6)");
    std::printf("SIMD tier: %s\n",
                core::simdAvailable()        ? "avx2"
                    : core::simdCompiled()   ? "compiled, CPU lacks avx2"
                                             : "compiled out");

    // --- 1. Synthetic pair sweeps across size ratios -------------
    const std::size_t kSmall = 256;
    const VertexId kUniverse = 1 << 20;
    std::vector<SweepRow> sweeps;
    bench::TablePrinter table({"ratio", "merge", "gallop", "simd_mrg",
                               "simd_gal", "auto", "speedup"},
                              {6, 10, 10, 10, 10, 10, 8});
    table.printHeader();
    const auto fmtMaybe = [](double ns) {
        return ns > 0 ? bench::fmtTime(ns) : std::string("n/a");
    };
    for (const std::size_t ratio : {1ull, 4ull, 16ull, 64ull, 256ull}) {
        const SweepRow row = racePair(
            sortedRandomList(kSmall, kUniverse, 11),
            sortedRandomList(kSmall * ratio, kUniverse, 12 + ratio),
            nullptr, kInvalidVertex);
        sweeps.push_back(row);
        char speedup[32];
        std::snprintf(speedup, sizeof speedup, "%.2fx",
                      row.mergeNs / row.autoNs);
        table.printRow({std::to_string(ratio),
                        bench::fmtTime(row.mergeNs),
                        bench::fmtTime(row.gallopNs),
                        fmtMaybe(row.simdMergeNs),
                        fmtMaybe(row.simdGallopNs),
                        bench::fmtTime(row.autoNs), speedup});
    }
    table.printRule();

    // --- 1b. 4k x 4k equal-size SIMD sweep -----------------------
    // The AVX2 block merge's home turf: near-equal lists too big for
    // galloping to help.  Gated at >= 1.5x the scalar merge.
    std::vector<SweepRow> simd_sweeps;
    std::printf("\nsimd merge, 4k x 4k equal-size lists:\n");
    for (const std::uint64_t seed : {21ull, 22ull, 23ull}) {
        const SweepRow row = racePair(
            sortedRandomList(4096, kUniverse, seed),
            sortedRandomList(4096, kUniverse, 100 + seed), nullptr,
            kInvalidVertex);
        std::printf("  merge %-10s simd %-10s (%.2fx)\n",
                    bench::fmtTime(row.mergeNs).c_str(),
                    (row.simdMergeNs > 0
                         ? bench::fmtTime(row.simdMergeNs)
                         : std::string("n/a"))
                        .c_str(),
                    row.simdMergeNs > 0 ? row.mergeNs / row.simdMergeNs
                                        : 0.0);
        simd_sweeps.push_back(row);
    }

    // --- 2. Hub-bitmap sweep on a stand-in graph -----------------
    const datasets::Dataset &uk = datasets::byName("uk");
    const Graph &g = uk.graph;
    g.buildHubBitmaps(32, 32ull << 20);
    VertexId hub = 0;
    for (VertexId v = 1; v < g.numVertices(); ++v)
        if (g.degree(v) > g.degree(hub))
            hub = v;
    std::printf("\nhub bitmaps on standin:uk — %zu rows, %s "
                "+ %s rank directories "
                "(graph %s; hottest hub degree %llu)\n",
                g.hubBitmapCount(),
                formatBytes(g.hubBitmapBytes()).c_str(),
                formatBytes(g.hubRankDirectoryBytes()).c_str(),
                formatBytes(g.sizeBytes()).c_str(),
                static_cast<unsigned long long>(g.degree(hub)));
    std::vector<SweepRow> hub_sweeps;
    for (const std::size_t size : {16u, 64u, 256u})
        hub_sweeps.push_back(
            racePair(sortedRandomList(size, g.numVertices(), 13 + size),
                     g.neighbors(hub), &g, hub));

    // --- 3. Engine A/B across --kernel modes ---------------------
    const datasets::Dataset &mc = datasets::byName("mc");
    std::vector<EngineRow> engine_rows;
    const core::KernelMode modes[] = {
        core::KernelMode::Auto, core::KernelMode::Merge,
        core::KernelMode::Gallop, core::KernelMode::Bitmap,
        core::KernelMode::Simd};
    std::printf("\nengine A/B (standin:mc, 4-CC, graphpi plan):\n");
    for (const core::KernelMode mode : modes) {
        engine_rows.push_back(
            runEngine("standin:mc", mc.graph, Pattern::clique(4), mode));
        const EngineRow &r = engine_rows.back();
        std::printf("  %-6s count %-12s makespan %-10s wall %s\n",
                    r.mode.c_str(), formatCount(r.count).c_str(),
                    bench::fmtTime(r.makespanNs).c_str(),
                    formatTime(r.wallNs).c_str());
    }
    for (const EngineRow &r : engine_rows) {
        if (r.count != engine_rows[0].count)
            fail("engine count differs across kernel modes");
        if (r.makespanNs != engine_rows[0].makespanNs)
            fail("modeled makespan differs across kernel modes");
    }

    // --- 5. contains() linear/binary crossover -------------------
    // Half the probes are members, half uniform (almost all misses).
    std::vector<ContainsRow> contains_rows;
    std::printf("\ncontains() per probe (linear up to %zu):\n",
                core::kContainsLinearCutoff);
    for (const std::size_t size : {8u, 16u, 32u, 64u, 128u}) {
        const auto list = sortedRandomList(size, kUniverse, 31 + size);
        Rng rng(32);
        std::vector<VertexId> probes(256);
        for (std::size_t i = 0; i < probes.size(); ++i)
            probes[i] = i % 2 == 0
                ? list[rng.nextBounded(list.size())]
                : static_cast<VertexId>(rng.nextBounded(kUniverse));
        contains_rows.push_back(raceContains(list, probes));
        const ContainsRow &r = contains_rows.back();
        std::printf("  size %-4zu linear %-10s binary %-10s contains %s\n",
                    r.size, bench::fmtTime(r.linearNs).c_str(),
                    bench::fmtTime(r.binaryNs).c_str(),
                    bench::fmtTime(r.dispatchNs).c_str());
    }

    // --- Gates + JSON --------------------------------------------
    // Gate 1: the adaptive dispatcher must hold >= 0.95x the best
    // single kernel on EVERY row (this subsumes the old >3x-vs-merge
    // bound — merge is one of the single kernels), compared on
    // per-kernel medians.
    double best_skewed_speedup = 0;
    double worst_auto_vs_best = 1e30;
    struct Section
    {
        const std::vector<SweepRow> *rows;
        const char *name;
    };
    for (const Section s : {Section{&sweeps, "pair"},
                            Section{&simd_sweeps, "simd"},
                            Section{&hub_sweeps, "hub"}}) {
        for (const SweepRow &r : *s.rows) {
            if (r.ratio >= core::kGallopRatio)
                best_skewed_speedup = std::max(best_skewed_speedup,
                                               r.mergeNs / r.autoNs);
            const double vs_best = r.bestSingleNs() / r.autoNs;
            worst_auto_vs_best = std::min(worst_auto_vs_best, vs_best);
            if (vs_best < 0.95)
                fail(std::string(s.name) + " sweep: auto only "
                     + std::to_string(vs_best)
                     + "x of the best single kernel (ratio "
                     + std::to_string(r.ratio) + ")");
        }
    }
    std::printf("\nbest skewed-sweep speedup (auto vs merge): %.2fx\n",
                best_skewed_speedup);
    std::printf("worst auto vs best single kernel: %.2fx\n",
                worst_auto_vs_best);

    // Gate 2: with AVX2 live, the SIMD merge must clear 1.5x the
    // scalar merge somewhere on its 4k x 4k home-turf sweep.
    double simd_speedup_4k = 0;
    if (core::simdAvailable()) {
        for (const SweepRow &r : simd_sweeps)
            if (r.simdMergeNs > 0)
                simd_speedup_4k = std::max(simd_speedup_4k,
                                           r.mergeNs / r.simdMergeNs);
        std::printf("simd merge vs scalar merge at 4k x 4k: %.2fx\n",
                    simd_speedup_4k);
        if (simd_speedup_4k < 1.5)
            fail("simd merge below 1.5x scalar merge on the 4k x 4k "
                 "sweep");
    }

    std::ofstream out(out_path);
    if (!out.is_open()) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    out.precision(15);
    out << "{\n  \"simd_available\": "
        << (core::simdAvailable() ? "true" : "false")
        << ",\n  \"pair_sweeps\": [\n" << sweepJson(sweeps)
        << "\n  ],\n  \"simd_sweeps\": [\n" << sweepJson(simd_sweeps)
        << "\n  ],\n  \"hub_sweeps\": [\n" << sweepJson(hub_sweeps)
        << "\n  ],\n  \"hub_bitmap\": {\"graph\": \"standin:uk\", "
        << "\"rows\": " << g.hubBitmapCount()
        << ", \"bytes\": " << g.hubBitmapBytes()
        << ", \"rank_directory_bytes\": " << g.hubRankDirectoryBytes()
        << ", \"degree_threshold\": " << g.hubBitmapDegreeThreshold()
        << ", \"graph_bytes\": " << g.sizeBytes()
        << ", \"overhead_vs_graph\": "
        << (static_cast<double>(g.hubBitmapBytes())
            / static_cast<double>(g.sizeBytes()))
        << "},\n  \"engine_ab\": [\n";
    for (std::size_t i = 0; i < engine_rows.size(); ++i) {
        const EngineRow &r = engine_rows[i];
        out << (i == 0 ? "" : ",\n")
            << "    {\"graph\": \"" << r.graph << "\", \"pattern\": \""
            << r.pattern << "\", \"mode\": \"" << r.mode
            << "\", \"count\": " << r.count
            << ", \"makespan_ns\": " << r.makespanNs
            << ", \"wall_ns\": " << r.wallNs << ", \"kernel_calls\": {";
        for (std::size_t k = 0; k < r.kernelCalls.size(); ++k)
            out << (k == 0 ? "" : ", ") << "\""
                << core::kernelKindName(
                       static_cast<core::KernelKind>(k))
                << "\": " << r.kernelCalls[k];
        out << "}}";
    }
    out << "\n  ],\n  \"contains_sweep\": [\n";
    for (std::size_t i = 0; i < contains_rows.size(); ++i) {
        const ContainsRow &r = contains_rows[i];
        out << (i == 0 ? "" : ",\n") << "    {\"size\": " << r.size
            << ", \"linear_ns\": " << r.linearNs
            << ", \"binary_ns\": " << r.binaryNs
            << ", \"contains_ns\": " << r.dispatchNs << "}";
    }
    out << "\n  ],\n  \"best_skewed_speedup\": " << best_skewed_speedup
        << ",\n  \"worst_auto_vs_best\": " << worst_auto_vs_best
        << ",\n  \"simd_speedup_4k\": " << simd_speedup_4k
        << ",\n  \"check_passed\": " << (failed ? "false" : "true")
        << "\n}\n";
    std::printf("wrote %s\n", out_path.c_str());

    if (check && failed)
        return 1;
    if (failed)
        std::fprintf(stderr,
                     "(invariance failures above; not gating "
                     "without --check)\n");
    return failed ? 1 : 0;
}
