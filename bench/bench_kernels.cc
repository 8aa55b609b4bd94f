/**
 * @file
 * Set-kernel benchmark harness (BENCH_kernels.json).
 *
 * Six sections:
 *   1. Pair sweeps — one small list against larger lists across a
 *      size-ratio sweep, wall-clocking every kernel (merge, gallop,
 *      SIMD merge, adaptive dispatcher) on identical inputs and
 *      checking outputs and canonical charges agree.
 *   2. SIMD sweep — 4k x 4k equal-size races isolating the AVX2
 *      block merge against the scalar reference.
 *   3. Hub-bitmap sweep — the same race against a real hub vertex's
 *      neighbor list with its precomputed bitset and rank directory,
 *      plus the memory accounting of the bitmap index.
 *   4. Wedge sweep — real operand pairs: N(a) and N(b) for random
 *      wedges a - c - b of the mc and lj stand-ins whose probed list
 *      N(b) has a hub row, bucketed by size ratio |N(b)| / |N(a)|.
 *      Intersections (the hot operation of cycle4) drive with the
 *      smaller list: buckets [1, 1.5), [1.5, 2), [2, 3), [3, 4) and
 *      >= 4.  Subtractions N(a) minus N(b) (induced patterns, motif
 *      census) keep the drawn order, so their buckets add < 0.5 and
 *      [0.5, 1), a base larger than the hub list.  Each bucket's
 *      pairs are raced as one batch; the numbers are ns per pair.
 *      The evidence for Auto's "bitmap wherever the probe has a row"
 *      rule.  Each bucket also races the kernels' scalar bitmap
 *      filter (a push_back loop) against a branch-free candidate,
 *      over all pairs and over drives below kSimdMinSize
 *      (scalar_filter_sweeps; a record, ungated).
 *   5. Engine A/B — full `count` runs per --kernel mode, asserting
 *      counts and modeled makespans are mode-invariant while
 *      reporting host wall-clock per mode.
 *   6. Membership probes — contains() against its linear and binary
 *      variants at list sizes 8-128, the sweep kContainsLinearCutoff
 *      is read from.  Ungated on speed; the three must agree.
 *
 * Every sweep row times its kernels in interleaved rounds, rotating
 * which kernel runs first, and reports each kernel's median round:
 * a scheduler hiccup then costs one sample, not the row.  Rows with
 * a hub row also time the bitmap kernel with the SIMD tier killed
 * (bitmap_scalar_ns: its scalar filter against the gather); that is
 * a record, not a kernel Auto can pick, so it is not part of the bar
 * below.
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
#include <limits>
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
    double gallopNs = 0;
    double bitmapNs = -1; ///< -1 = no hub row for this input
    /** The bitmap kernel with the SIMD tier killed; -1 = no hub row
     *  or no tier to kill. */
    double bitmapScalarNs = -1;
    double simdMergeNs = -1; ///< -1 = SIMD tier unavailable
    double autoNs = 0;

    /** Fastest single kernel on this row (the bar `auto` must hold). */
    double
    bestSingleNs() const
    {
        double best = std::min(mergeNs, gallopNs);
        if (bitmapNs > 0)
            best = std::min(best, bitmapNs);
        if (simdMergeNs > 0)
            best = std::min(best, simdMergeNs);
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

/** The set operation a race runs. */
enum class SetOp
{
    Intersect,
    Subtract,
};

const char *
setOpName(SetOp op)
{
    return op == SetOp::Subtract ? "subtract" : "intersect";
}

/** One operation to race: @p drive is scanned and @p probe searched,
 *  through its hub row when @p hubSource has one.  An intersection
 *  drives with its smaller list; a subtraction (drive minus probe)
 *  drives with its base, whatever its size. */
struct Operands
{
    std::span<const VertexId> drive;
    std::span<const VertexId> probe;
    VertexId hubSource = kInvalidVertex;
};

/**
 * Race every kernel of @p op over @p batch: verify each pair's output
 * and charge against the reference merge, then time each kernel's
 * pass over the whole batch (medians of interleaved rounds) and
 * report ns per pair.  The bitmap columns are timed when every probe
 * has a hub row (the dispatcher's own row and rank directory); only
 * intersections have a SIMD merge.  A single-pair batch reports that
 * pair's sizes, a larger one the mean sizes (small = drive, large =
 * probe).
 */
SweepRow
raceBatch(const std::vector<Operands> &batch, const Graph *graph,
          SetOp op = SetOp::Intersect)
{
    const bool subtract = op == SetOp::Subtract;
    SweepRow row;
    std::vector<HubRow> hubs;
    for (const Operands &p : batch) {
        row.small += p.drive.size();
        row.large += p.probe.size();
        hubs.push_back(graph && p.hubSource != kInvalidVertex
                           ? graph->hubRow(p.hubSource)
                           : HubRow{});
    }
    row.ratio = row.small == 0 ? 0 : row.large / row.small;
    row.small /= batch.size();
    row.large /= batch.size();
    row.bitmap_backed = std::all_of(hubs.begin(), hubs.end(),
                                    [](const HubRow &h) { return !!h; });

    core::KernelDispatcher dispatcher(core::KernelMode::Auto, graph);
    std::vector<VertexId> ref;
    std::vector<VertexId> out;
    // Each kernel on pair i, writing to `out`.
    const auto merge = [&](std::size_t i) {
        const Operands &p = batch[i];
        return subtract ? core::subtractInto(p.drive, p.probe, out)
                        : core::intersectInto(p.drive, p.probe, out);
    };
    const auto gallop = [&](std::size_t i) {
        const Operands &p = batch[i];
        return subtract
            ? core::gallopSubtractInto(p.drive, p.probe, out)
            : core::gallopIntersectInto(p.drive, p.probe, out);
    };
    const auto simdMerge = [&](std::size_t i) {
        return core::simdMergeIntersectInto(batch[i].drive,
                                            batch[i].probe, out);
    };
    const auto bitmap = [&](std::size_t i) {
        const Operands &p = batch[i];
        return subtract
            ? core::bitmapSubtractInto(p.drive, hubs[i].bits,
                                       hubs[i].ranks, out)
            : core::bitmapIntersectInto(p.drive, p.probe, hubs[i].bits,
                                        hubs[i].ranks, out);
    };
    const auto dispatched = [&](std::size_t i) {
        const core::ListRef drive(batch[i].drive);
        const core::ListRef probe(batch[i].probe, batch[i].hubSource);
        return subtract ? dispatcher.subtractInto(drive, probe, out)
                        : dispatcher.intersectInto(drive, probe, out);
    };

    for (std::size_t i = 0; i < batch.size(); ++i) {
        const core::WorkItems ref_work = merge(i);
        ref = out;
        const auto check = [&](const char *kernel,
                               core::WorkItems work) {
            if (out != ref)
                fail(std::string(kernel) + " output mismatch");
            if (work != ref_work)
                fail(std::string(kernel) + " charge mismatch");
        };
        const core::WorkItems canonical = subtract
            ? core::canonicalSubtractWork(batch[i].drive, batch[i].probe)
            : core::canonicalIntersectWork(batch[i].drive,
                                           batch[i].probe);
        if (canonical != ref_work)
            fail("canonical work formula disagrees with merge loop");
        check("gallop", gallop(i));
        if (!subtract)
            check("simd_merge", simdMerge(i));
        if (hubs[i]) {
            check("bitmap", bitmap(i));
            core::setSimdEnabled(false);
            check("bitmap_scalar", bitmap(i));
            core::setSimdEnabled(true);
        }
        check("dispatcher", dispatched(i));
    }

    // One timed pass of @p kernel over the batch.
    const auto pass = [&batch](auto kernel) {
        return [&batch, kernel] {
            for (std::size_t i = 0; i < batch.size(); ++i)
                kernel(i);
        };
    };
    std::vector<TimedKernel> kernels = {
        timed(row.mergeNs, pass(merge)),
        timed(row.gallopNs, pass(gallop)),
    };
    if (!subtract && core::simdAvailable())
        kernels.push_back(timed(row.simdMergeNs, pass(simdMerge)));
    if (row.bitmap_backed) {
        kernels.push_back(timed(row.bitmapNs, pass(bitmap)));
        if (core::simdAvailable())
            kernels.push_back(
                timed(row.bitmapScalarNs, [bitmap_pass = pass(bitmap)] {
                    core::setSimdEnabled(false);
                    bitmap_pass();
                    core::setSimdEnabled(true);
                }));
    }
    kernels.push_back(timed(row.autoNs, pass(dispatched)));
    timeInterleaved(kernels);
    for (double *ns : {&row.mergeNs, &row.gallopNs, &row.bitmapNs,
                       &row.bitmapScalarNs, &row.simdMergeNs,
                       &row.autoNs})
        if (*ns > 0)
            *ns /= static_cast<double>(batch.size());
    return row;
}

/** Size-ratio bucket [lo, hi) of the wedge sweep (probe / drive). */
struct WedgeBucket
{
    const char *label;
    double lo;
    double hi;
};

/** An intersection's drive is its smaller list, so its ratio is at
 *  least 1; a subtraction's base may be the larger list. */
constexpr WedgeBucket kIntersectBuckets[] = {
    {"[1, 1.5)", 1.0, 1.5}, {"[1.5, 2)", 1.5, 2.0}, {"[2, 3)", 2.0, 3.0},
    {"[3, 4)", 3.0, 4.0},
    {">= 4", 4.0, std::numeric_limits<double>::infinity()},
};
constexpr WedgeBucket kSubtractBuckets[] = {
    {"< 0.5", 0.0, 0.5},    {"[0.5, 1)", 0.5, 1.0},
    {"[1, 1.5)", 1.0, 1.5}, {"[1.5, 2)", 1.5, 2.0},
    {"[2, 3)", 2.0, 3.0},   {"[3, 4)", 3.0, 4.0},
    {">= 4", 4.0, std::numeric_limits<double>::infinity()},
};

std::span<const WedgeBucket>
wedgeBuckets(SetOp op)
{
    if (op == SetOp::Subtract)
        return kSubtractBuckets;
    return kIntersectBuckets;
}

/** Pairs raced per bucket, and the sampling budget that fills them. */
constexpr std::size_t kWedgePairsPerBucket = 256;
constexpr std::uint64_t kWedgeDraws = 1ull << 22;

/**
 * Uniformly random wedges a - c - b of @p g (a centre drawn with
 * weight deg(c) * (deg(c) - 1) / 2, then two distinct neighbours)
 * whose probed list N(b) has a hub row, as (N(a), N(b)) operand
 * pairs, up to kWedgePairsPerBucket per bucket of wedgeBuckets(@p
 * op).  An intersection first orders the pair so that a has the
 * smaller list; a subtraction N(a) minus N(b) keeps the drawn order.
 * Deterministic in the graph and @p seed.
 */
std::vector<std::vector<Operands>>
sampleWedges(const Graph &g, std::uint64_t seed, SetOp op)
{
    const std::span<const WedgeBucket> ranges = wedgeBuckets(op);
    std::vector<std::uint64_t> wedges_below(g.numVertices() + 1, 0);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        const std::uint64_t d = g.degree(v);
        wedges_below[v + 1] =
            wedges_below[v] + (d == 0 ? 0 : d * (d - 1) / 2);
    }
    std::vector<std::vector<Operands>> buckets(ranges.size());
    if (wedges_below.back() == 0)
        return buckets;
    Rng rng(seed);
    std::size_t full = 0;
    for (std::uint64_t draw = 0;
         draw < kWedgeDraws && full < ranges.size(); ++draw) {
        const std::uint64_t w = rng.nextBounded(wedges_below.back());
        const VertexId c = static_cast<VertexId>(
            std::upper_bound(wedges_below.begin(), wedges_below.end(),
                             w)
            - wedges_below.begin() - 1);
        const auto around = g.neighbors(c);
        VertexId a = around[rng.nextBounded(around.size())];
        VertexId b = around[rng.nextBounded(around.size())];
        if (a == b)
            continue;
        if (op == SetOp::Intersect
            && (g.degree(a) > g.degree(b)
                || (g.degree(a) == g.degree(b) && g.hubRow(a))))
            std::swap(a, b);
        if (!g.hubRow(b))
            continue;
        const double ratio = static_cast<double>(g.degree(b))
            / static_cast<double>(g.degree(a));
        for (std::size_t k = 0; k < ranges.size(); ++k) {
            if (ratio < ranges[k].lo || ratio >= ranges[k].hi)
                continue;
            if (buckets[k].size() < kWedgePairsPerBucket) {
                buckets[k].push_back({g.neighbors(a), g.neighbors(b), b});
                full += buckets[k].size() == kWedgePairsPerBucket;
            }
            break;
        }
    }
    return buckets;
}

/**
 * A branch-free candidate for detail::scalarBitmapFilter: store every
 * id and advance the cursor by its bit.  It races the kernels' branchy
 * push_back loop per bucket; the kernels keep the loop (see
 * detail::scalarBitmapFilter).
 */
void
branchFreeFilter(std::span<const VertexId> a, const std::uint64_t *row,
                 bool keep_members, std::vector<VertexId> &out)
{
    out.resize(a.size());
    VertexId *op = out.data();
    for (const VertexId x : a) {
        *op = x;
        op += core::detail::testBit(row, x) == keep_members;
    }
    out.resize(static_cast<std::size_t>(op - out.data()));
}

/** push_back against branch-free scalar filtering on one bucket. */
struct FilterRow
{
    std::size_t pairs = 0;
    /** Pairs whose drive is below kSimdMinSize: the only ones the
     *  scalar filter serves while the SIMD tier is live. */
    std::size_t shortPairs = 0;
    double pushBackNs = 0;
    double branchFreeNs = 0;
    double shortPushBackNs = -1; ///< -1 = no short drive
    double shortBranchFreeNs = -1;
};

/**
 * Time detail::scalarBitmapFilter (push_back) and branchFreeFilter
 * over @p batch (ns per pair, medians of interleaved rounds), once
 * over every pair and once over its short drives; the two must agree
 * on every pair.
 */
FilterRow
raceFilters(const std::vector<Operands> &batch, const Graph &g,
            SetOp op)
{
    const bool keep = op == SetOp::Intersect;
    const auto race = [&](const std::vector<Operands> &pairs,
                          double &push_ns, double &free_ns) {
        std::vector<const std::uint64_t *> rows;
        for (const Operands &p : pairs)
            rows.push_back(g.hubRow(p.hubSource).bits);
        std::vector<VertexId> ref;
        std::vector<VertexId> out;
        for (std::size_t i = 0; i < pairs.size(); ++i) {
            core::detail::scalarBitmapFilter(pairs[i].drive, rows[i],
                                             keep, ref);
            branchFreeFilter(pairs[i].drive, rows[i], keep, out);
            if (out != ref)
                fail("branch-free filter output mismatch");
        }
        timeInterleaved({
            timed(push_ns,
                  [&] {
                      for (std::size_t i = 0; i < pairs.size(); ++i)
                          core::detail::scalarBitmapFilter(
                              pairs[i].drive, rows[i], keep, out);
                  }),
            timed(free_ns,
                  [&] {
                      for (std::size_t i = 0; i < pairs.size(); ++i)
                          branchFreeFilter(pairs[i].drive, rows[i], keep,
                                           out);
                  }),
        });
        push_ns /= static_cast<double>(pairs.size());
        free_ns /= static_cast<double>(pairs.size());
    };
    FilterRow row;
    row.pairs = batch.size();
    race(batch, row.pushBackNs, row.branchFreeNs);
    std::vector<Operands> short_drives;
    for (const Operands &p : batch)
        if (p.drive.size() < core::kSimdMinSize)
            short_drives.push_back(p);
    row.shortPairs = short_drives.size();
    if (!short_drives.empty())
        race(short_drives, row.shortPushBackNs, row.shortBranchFreeNs);
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

/** @p rows as JSON objects, each led by its entry of @p labels
 *  (pre-formatted members ending in ", "; none when empty). */
std::string
sweepJson(const std::vector<SweepRow> &rows,
          const std::vector<std::string> &labels = {})
{
    std::ostringstream os;
    os.precision(15);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SweepRow &r = rows[i];
        os << (i == 0 ? "" : ",\n") << "    {"
           << (labels.empty() ? "" : labels[i])
           << "\"small\": " << r.small << ", \"large\": " << r.large
           << ", \"ratio\": " << r.ratio
           << ", \"bitmap_backed\": " << (r.bitmap_backed ? "true"
                                                          : "false")
           << ", \"merge_ns\": " << r.mergeNs
           << ", \"gallop_ns\": " << r.gallopNs
           << ", \"bitmap_ns\": " << r.bitmapNs
           << ", \"bitmap_scalar_ns\": " << r.bitmapScalarNs
           << ", \"simd_merge_ns\": " << r.simdMergeNs
           << ", \"auto_ns\": " << r.autoNs
           << ", \"speedup_auto_vs_merge\": "
           << (r.autoNs > 0 ? r.mergeNs / r.autoNs : 0)
           << ", \"speedup_auto_vs_best\": "
           << (r.autoNs > 0 ? r.bestSingleNs() / r.autoNs : 0) << "}";
    }
    return os.str();
}

/** @p rows as JSON objects, each led by its entry of @p labels. */
std::string
filterJson(const std::vector<FilterRow> &rows,
           const std::vector<std::string> &labels)
{
    std::ostringstream os;
    os.precision(15);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const FilterRow &r = rows[i];
        os << (i == 0 ? "" : ",\n") << "    {" << labels[i]
           << "\"short_pairs\": " << r.shortPairs
           << ", \"push_back_ns\": " << r.pushBackNs
           << ", \"branch_free_ns\": " << r.branchFreeNs
           << ", \"short_push_back_ns\": " << r.shortPushBackNs
           << ", \"short_branch_free_ns\": " << r.shortBranchFreeNs
           << "}";
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
                               "auto", "speedup"},
                              {6, 10, 10, 10, 10, 8});
    table.printHeader();
    const auto fmtMaybe = [](double ns) {
        return ns > 0 ? bench::fmtTime(ns) : std::string("n/a");
    };
    for (const std::size_t ratio : {1ull, 4ull, 16ull, 64ull, 256ull}) {
        const std::vector<VertexId> small =
            sortedRandomList(kSmall, kUniverse, 11);
        const std::vector<VertexId> large =
            sortedRandomList(kSmall * ratio, kUniverse, 12 + ratio);
        const SweepRow row = raceBatch({{small, large}}, nullptr);
        sweeps.push_back(row);
        char speedup[32];
        std::snprintf(speedup, sizeof speedup, "%.2fx",
                      row.mergeNs / row.autoNs);
        table.printRow({std::to_string(ratio),
                        bench::fmtTime(row.mergeNs),
                        bench::fmtTime(row.gallopNs),
                        fmtMaybe(row.simdMergeNs),
                        bench::fmtTime(row.autoNs), speedup});
    }
    table.printRule();

    // --- 1b. 4k x 4k equal-size SIMD sweep -----------------------
    // The AVX2 block merge's home turf: near-equal lists too big for
    // galloping to help.  Gated at >= 1.5x the scalar merge.
    std::vector<SweepRow> simd_sweeps;
    std::printf("\nsimd merge, 4k x 4k equal-size lists:\n");
    for (const std::uint64_t seed : {21ull, 22ull, 23ull}) {
        const std::vector<VertexId> a =
            sortedRandomList(4096, kUniverse, seed);
        const std::vector<VertexId> b =
            sortedRandomList(4096, kUniverse, 100 + seed);
        const SweepRow row = raceBatch({{a, b}}, nullptr);
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
    for (const std::size_t size : {16u, 64u, 256u}) {
        const std::vector<VertexId> small =
            sortedRandomList(size, g.numVertices(), 13 + size);
        hub_sweeps.push_back(
            raceBatch({{small, g.neighbors(hub), hub}}, &g));
    }

    // --- 2b. Real wedge pairs by size ratio ----------------------
    std::vector<SweepRow> wedge_sweeps;
    std::vector<std::string> wedge_labels;
    std::vector<FilterRow> filter_rows;
    std::printf("\nwedge pairs with a hub row on the probed list "
                "(ns per pair):\n");
    bench::TablePrinter wedge_table(
        {"graph", "op", "ratio", "pairs", "merge", "gallop", "bitmap",
         "bm_scalar", "simd_mrg", "auto", "push_back", "branchfree"},
        {6, 10, 10, 6, 10, 10, 10, 10, 10, 10, 10, 10});
    wedge_table.printHeader();
    for (const char *abbr : {"mc", "lj"}) {
        const Graph &wg = datasets::byName(abbr).graph;
        wg.buildHubBitmaps(32, 32ull << 20);
        for (const SetOp op : {SetOp::Intersect, SetOp::Subtract}) {
            const auto buckets = sampleWedges(wg, 41, op);
            for (std::size_t k = 0; k < buckets.size(); ++k) {
                if (buckets[k].empty())
                    continue;
                const SweepRow row = raceBatch(buckets[k], &wg, op);
                wedge_sweeps.push_back(row);
                filter_rows.push_back(raceFilters(buckets[k], wg, op));
                const FilterRow &f = filter_rows.back();
                std::ostringstream label;
                label << "\"graph\": \"standin:" << abbr
                      << "\", \"op\": \"" << setOpName(op)
                      << "\", \"bucket\": \""
                      << wedgeBuckets(op)[k].label << "\", \"pairs\": "
                      << buckets[k].size() << ", ";
                wedge_labels.push_back(label.str());
                wedge_table.printRow(
                    {abbr, setOpName(op), wedgeBuckets(op)[k].label,
                     std::to_string(buckets[k].size()),
                     bench::fmtTime(row.mergeNs),
                     bench::fmtTime(row.gallopNs),
                     fmtMaybe(row.bitmapNs),
                     fmtMaybe(row.bitmapScalarNs),
                     fmtMaybe(row.simdMergeNs),
                     bench::fmtTime(row.autoNs),
                     bench::fmtTime(f.pushBackNs),
                     bench::fmtTime(f.branchFreeNs)});
            }
        }
    }
    wedge_table.printRule();

    // --- 3. Engine A/B across --kernel modes ---------------------
    const datasets::Dataset &mc = datasets::byName("mc");
    std::vector<EngineRow> engine_rows;
    const core::KernelMode modes[] = {
        core::KernelMode::Auto, core::KernelMode::Merge,
        core::KernelMode::Gallop};
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
                            Section{&hub_sweeps, "hub"},
                            Section{&wedge_sweeps, "wedge"}}) {
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
        << "\n  ],\n  \"wedge_sweeps\": [\n"
        << sweepJson(wedge_sweeps, wedge_labels)
        << "\n  ],\n  \"scalar_filter_sweeps\": [\n"
        << filterJson(filter_rows, wedge_labels)
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
