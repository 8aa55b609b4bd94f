/**
 * @file
 * perfbench: the end-to-end and per-layer benchmark of the engine.
 *
 * Runs one named workload for a fixed time and prints, as its last
 * stdout line, one JSON object {correct, attempted, failed, metrics}.
 * Untraced runs report the end-to-end metrics; `--trace 1` runs the
 * same workload with spans around every call into the engine and
 * reports the per-layer metrics instead.  README.md documents the
 * workloads, the metrics and the layer -> metric map.
 *
 * The benchmark drives only stable public entry points:
 * datasets::byName, GraphContext, compileGraphPi, core::Engine,
 * core::runPlanDfs (via countWithPlan) and core::QueryService.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/context.hh"
#include "core/engine.hh"
#include "core/kernels/kernels.hh"
#include "core/plan_runner.hh"
#include "core/service/service.hh"
#include "graph/datasets.hh"
#include "graph/generators.hh"
#include "pattern/planner.hh"
#include "sim/trace.hh"
#include "spans.hh"
#include "support/rng.hh"
#include "support/timer.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace
{

using namespace khuzdul;
using perfbench::kNoParent;
using perfbench::Span;
using perfbench::SpanRecorder;

/** Host threads of every workload (engine units or service pool). */
constexpr unsigned kHostThreads = 4;

/** Set-up repetitions per run; setup_s is their median. */
constexpr unsigned kSetupReps = 15;

/** serve-mix: each round serves every shape this often, in a seeded
 *  order, so the seed moves the interleaving but not the work. */
constexpr std::size_t kServeRepeats = 12;

/** serve-mix: outstanding window of the generator, admission bound. */
constexpr std::size_t kServeOutstanding = 4;
constexpr unsigned kServeMaxInFlight = 2;

/** Smoke mode divides both graph dimensions by this. */
constexpr unsigned kSmokeShrink = 8;

/** An R-MAT stand-in recipe, copied from graph/datasets.cc. */
struct GraphRecipe
{
    const char *abbr;
    VertexId vertices;
    EdgeId edges;
    double a;
    double b;
    double c;
    std::uint64_t seed;
};

const GraphRecipe kMc{"mc", 4'000, 55'000, 0.45, 0.2, 0.2, 1001};
const GraphRecipe kLj{"lj", 16'000, 110'000, 0.55, 0.2, 0.2, 1003};

/** bench_service's eight query shapes, the serve-mix vocabulary. */
const std::vector<std::string> kServeShapes = {
    "triangle", "path3", "cycle4", "diamond",
    "tailed",   "clique4", "star4", "path4"};

/** Patterns that have an engine.run_s.<pattern> metric. */
const std::vector<std::string> kRunPatterns = {
    "clique4", "clique5", "clique6", "cycle4", "house"};

struct Workload
{
    std::string name;
    const GraphRecipe *graph;
    /** Count workloads: patterns counted once per iteration, in
     *  order.  serve-mix: the shapes queries are drawn from. */
    std::vector<std::string> patterns;
    bool serve = false;
    core::SessionConfig session;
};

std::vector<std::string>
workloadNames()
{
    return {"clique-lj", "house-mc", "chunked-lj", "serve-mix"};
}

Workload
workloadByName(const std::string &name)
{
    Workload w;
    w.name = name;
    // The CLI defaults: 1 MB chunks, 15% static cache, 8 nodes x 2
    // sockets (the GraphSetup of buildSetup).
    w.session.chunkBytes = 1 << 20;
    w.session.hostThreads = kHostThreads;
    if (name == "clique-lj") {
        w.graph = &kLj;
        w.patterns = {"clique4", "clique5", "clique6"};
    } else if (name == "house-mc") {
        w.graph = &kMc;
        w.patterns = {"house"};
    } else if (name == "chunked-lj") {
        w.graph = &kLj;
        w.patterns = {"cycle4", "clique5"};
        w.session.chunkBytes = 4 << 10;
        w.session.stealEnabled = true;
        w.session.faults.add("degrade:3-*:factor=4");
        w.session.faults.maxRetries = 3;
        w.session.checkpointEnabled = true;
    } else if (name == "serve-mix") {
        w.graph = &kMc;
        w.patterns = kServeShapes;
        w.serve = true;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

Pattern
patternByName(const std::string &name)
{
    const auto sized = [&name](const char *prefix) {
        const std::size_t n = std::strlen(prefix);
        return name.compare(0, n, prefix) == 0
            ? std::stoi(name.substr(n)) : -1;
    };
    if (name == "triangle")
        return Pattern::triangle();
    if (name == "diamond")
        return Pattern::diamond();
    if (name == "tailed")
        return Pattern::tailedTriangle();
    if (name == "house") // the CLI's `--pattern house`
        return Pattern(5, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 4},
                           {1, 4}});
    if (int k = sized("clique"); k > 0)
        return Pattern::clique(k);
    if (int k = sized("cycle"); k > 0)
        return Pattern::cycleOf(k);
    if (int k = sized("path"); k > 0)
        return Pattern::pathOf(k);
    if (int k = sized("star"); k > 0)
        return Pattern::starOf(k);
    throw std::invalid_argument("unknown pattern '" + name + "'");
}

/**
 * What --seed and --smoke select.  The graph is always the stand-in:
 * varying it by seed (fresh R-MAT seeds, or a seeded relabeling of
 * the stand-in) moved the work itself, by up to 25% in house-mc and
 * 60% in chunked-lj wall time, which is wider than the metrics'
 * bounds.  The seed orders the operations of each iteration instead.
 */
struct Inputs
{
    std::string scale = "full";
    unsigned shrink = 1;
    std::uint64_t seed = 0;
};

Inputs
makeInputs(std::uint64_t seed, bool smoke)
{
    Inputs in;
    in.seed = seed;
    if (smoke) {
        in.scale = "smoke";
        in.shrink = kSmokeShrink;
    }
    return in;
}

/** Golden counts keyed by "workload scale pattern". */
class Goldens
{
  public:
    explicit Goldens(const std::string &path)
    {
        std::ifstream in(path);
        if (!in)
            throw std::runtime_error("cannot read goldens " + path);
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream fields(line);
            std::string workload, scale, pattern;
            Count count = 0;
            if (!(fields >> workload >> scale >> pattern >> count))
                throw std::runtime_error("bad golden line: " + line);
            counts_[workload + " " + scale + " " + pattern] = count;
        }
    }

    Count
    at(const Workload &w, const Inputs &in,
       const std::string &pattern) const
    {
        const std::string key = w.name + " " + in.scale + " " + pattern;
        const auto it = counts_.find(key);
        if (it == counts_.end())
            throw std::runtime_error("no golden for " + key);
        return it->second;
    }

  private:
    std::map<std::string, Count> counts_;
};

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Linear-interpolated quantile (q in [0, 1]) of @p values. */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo])
        * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

double
ratio(double num, double den)
{
    return den == 0 ? 0.0 : num / den;
}

// --------------------------------------------------------------------
// Set-up
// --------------------------------------------------------------------

/** Everything built before the first timed query. */
struct Setup
{
    std::unique_ptr<Graph> graph;
    std::unique_ptr<core::GraphContext> context;
    std::vector<ExtendPlan> plans;
    /** serve-mix only; declared last so it is destroyed first. */
    std::unique_ptr<core::QueryService> service;
};

/** Build the graph, its context and the plans; lazy builds (hub
 *  bitmaps, planner profile) are forced here, not in a query. */
Setup
buildSetup(const Workload &w, const Inputs &in, SpanRecorder *rec)
{
    Setup s;
    Span root(rec, "setup");
    {
        Span span(rec, "graph.build", root.id());
        const GraphRecipe &r = *w.graph;
        s.graph = std::make_unique<Graph>(
            gen::rmat(r.vertices / in.shrink, r.edges / in.shrink, r.a,
                      r.b, r.c, r.seed));
    }
    {
        Span span(rec, "context.build", root.id());
        core::GraphSetup graph_setup;
        graph_setup.cluster = sim::ClusterConfig::paperDefault(8);
        s.context =
            std::make_unique<core::GraphContext>(*s.graph, graph_setup);
        s.context->profile();
    }
    {
        Span span(rec, "context.hub_bitmaps", root.id());
        s.context->ensureHubBitmaps();
    }
    for (const std::string &name : w.patterns) {
        Span span(rec, "planner.compile", root.id());
        s.plans.push_back(compileGraphPi(patternByName(name),
                                         s.context->profile(), {}));
    }
    if (w.serve) {
        Span span(rec, "service.build", root.id());
        core::ServiceOptions options;
        options.maxInFlight = kServeMaxInFlight;
        options.hostThreads = kHostThreads;
        s.service =
            std::make_unique<core::QueryService>(*s.context, options);
    }
    return s;
}

// --------------------------------------------------------------------
// Per-layer tallies
// --------------------------------------------------------------------

std::vector<std::uint64_t>
traceTallies(const sim::CountingTraceSink &sink)
{
    std::vector<std::uint64_t> counts;
    for (std::size_t e = 0; e < sim::kNumPhaseEvents; ++e)
        counts.push_back(sink.count(static_cast<sim::PhaseEvent>(e)));
    return counts;
}

/** Engine counters summed over the operations of one iteration. */
struct Tally
{
    std::uint64_t chunks = 0;
    std::uint64_t embeddings = 0;
    std::uint64_t peakChunkBytes = 0;
    std::uint64_t intersectionItems = 0;
    std::uint64_t verticalReuses = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t horizontalHits = 0;
    std::uint64_t remoteLists = 0;
    std::uint64_t localLists = 0;
    std::uint64_t batches = 0;
    std::uint64_t messages = 0;
    std::uint64_t bytesSent = 0;
    std::uint64_t chunksStolen = 0;
    std::uint64_t stealBytes = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t events = 0;
    std::uint64_t cacheEvents = 0;
    /** Most events one run() buffered (unit sinks flush per run). */
    std::uint64_t peakRunEvents = 0;
    std::array<std::uint64_t, core::kNumKernelKinds> kernelCalls{};
    double makespanNs = 0;

    void
    add(const sim::RunStats &stats,
        const std::vector<std::uint64_t> &trace)
    {
        for (const sim::NodeStats &n : stats.nodes) {
            chunks += n.chunksProcessed;
            peakChunkBytes = std::max(peakChunkBytes, n.peakChunkBytes);
            intersectionItems += n.intersectionItems;
            verticalReuses += n.verticalReuses;
            cacheHits += n.staticCacheHits;
            cacheMisses += n.staticCacheMisses;
            horizontalHits += n.horizontalHits;
            remoteLists += n.listsFetchedRemote;
            localLists += n.listsServedLocal;
            for (std::size_t k = 0; k < kernelCalls.size(); ++k)
                kernelCalls[k] += n.kernelCalls[k];
        }
        embeddings += stats.totalEmbeddings();
        messages += stats.totalMessages();
        bytesSent += stats.totalBytesSent();
        chunksStolen += stats.totalChunksStolen();
        stealBytes += stats.totalStealBytes();
        checkpoints += stats.totalCheckpoints();
        makespanNs += stats.makespanNs();
        const auto at = [&trace](sim::PhaseEvent e) {
            return trace[static_cast<std::size_t>(e)];
        };
        batches += at(sim::PhaseEvent::FetchBatchIssued);
        cacheEvents += at(sim::PhaseEvent::CacheHit)
            + at(sim::PhaseEvent::CacheMiss);
        const std::uint64_t run_events =
            std::accumulate(trace.begin(), trace.end(), std::uint64_t{0});
        events += run_events;
        peakRunEvents = std::max(peakRunEvents, run_events);
    }
};

// --------------------------------------------------------------------
// The benchmark proper
// --------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Samples of one timed phase (a phase repeats iterations). */
struct Phase
{
    std::vector<double> walls;         ///< one per iteration (s)
    std::vector<double> embeddingRates; ///< embeddings/s per iteration
    std::vector<double> queryRates;    ///< operations/s per iteration
    std::vector<double> latenciesMs;   ///< one per operation
    /** serve-mix: the shape index of each latency sample. */
    std::vector<std::size_t> latencyShapes;
    /** engine.run_s.<pattern> samples. */
    std::map<std::string, std::vector<double>> runSeconds;
    Tally tally; ///< first iteration only
};

class Bench
{
  public:
    Bench(const Workload &w, const Inputs &in, const Goldens &goldens,
          SpanRecorder *rec)
        : w_(w), in_(in), goldens_(goldens), rec_(rec), orderRng_(in.seed)
    {
        for (std::size_t r = 0; r < (w.serve ? kServeRepeats : 1); ++r) {
            for (std::size_t p = 0; p < w.patterns.size(); ++p)
                order_.push_back(p);
        }
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /** Median wall of kSetupReps set-ups; keeps the last one. */
    double
    setUp()
    {
        std::vector<double> walls;
        for (unsigned rep = 0; rep < kSetupReps; ++rep) {
            setup_ = Setup{}; // free the previous rep first
            Timer timer;
            setup_ = buildSetup(w_, in_, rec_);
            walls.push_back(timer.elapsedSeconds());
        }
        return median(walls);
    }

    Setup &setup() { return setup_; }

    /**
     * Repeat whole iterations until @p budget_s is used (>= 1).  The
     * process's first iteration is a checked but unrecorded warm-up:
     * it pays the first-touch page faults of the trace buffers and
     * allocator arenas, which would otherwise land in one sample.
     */
    Phase
    timedPhase(double budget_s, bool traced)
    {
        Phase phase;
        SpanRecorder *rec = traced ? rec_ : nullptr;
        Timer timer;
        if (!warmedUp_) {
            Phase warm_up;
            iterate(warm_up, nullptr);
            warmedUp_ = true;
        }
        do {
            iterate(phase, rec);
        } while (timer.elapsedSeconds() + 0.5 * phase.walls.back()
                 < budget_s);
        std::fprintf(stderr, "perfbench: %s%s iterations (s):",
                     w_.name.c_str(), traced ? " traced" : "");
        for (const double wall : phase.walls)
            std::fprintf(stderr, " %.3f", wall);
        std::fprintf(stderr, "\n");
        return phase;
    }

    /** One plain Engine session per pattern; checks counts and the
     *  modeled dump against earlier runs.  Returns seconds. */
    double
    runEach(unsigned host_threads, Phase *phase, SpanRecorder *rec,
            std::size_t parent)
    {
        core::SessionConfig session = w_.session;
        session.hostThreads = host_threads;
        double total = 0;
        for (std::size_t i = 0; i < setup_.plans.size(); ++i) {
            const Op op = countOnce(i, session, rec, parent, phase);
            total += op.seconds;
        }
        return total;
    }

    /** runPlanDfs over every root for each plan (one thread);
     *  counts must match the goldens.  Returns seconds. */
    double
    dfsEach()
    {
        double total = 0;
        for (std::size_t i = 0; i < setup_.plans.size(); ++i) {
            Span span(rec_, "plan_runner.dfs." + w_.patterns[i]);
            Timer timer;
            Count count = 0;
            ++attempted_;
            try {
                count = core::countWithPlan(*setup_.graph,
                                            setup_.plans[i]);
            } catch (const std::exception &e) {
                fail("dfs " + w_.patterns[i], e.what());
                continue;
            }
            total += timer.elapsedSeconds();
            check(w_.patterns[i], count, "dfs");
        }
        return total;
    }

    /** At full scale the recipe copied into this file must reproduce
     *  datasets::byName's stand-in exactly. */
    void
    checkStandIn()
    {
        if (in_.shrink != 1)
            return;
        ++attempted_;
        const Graph &expected = datasets::byName(w_.graph->abbr).graph;
        const Graph &actual = *setup_.graph;
        bool same = expected.numVertices() == actual.numVertices()
            && expected.numArcs() == actual.numArcs();
        for (VertexId v = 0; same && v < actual.numVertices(); ++v) {
            const auto a = expected.neighbors(v);
            const auto b = actual.neighbors(v);
            same = std::equal(a.begin(), a.end(), b.begin(), b.end());
        }
        if (!same)
            fail("stand-in", "recipe differs from datasets::byName");
    }

  private:
    struct Op
    {
        bool ok = false;
        Count count = 0;
        double seconds = 0;
    };

    void
    fail(const std::string &what, const std::string &why)
    {
        ++failed_;
        std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(),
                     why.c_str());
    }

    /** Compare against the golden; false (and counted) on mismatch. */
    bool
    check(const std::string &pattern, Count count, const char *who)
    {
        const Count golden = goldens_.at(w_, in_, pattern);
        if (count == golden)
            return true;
        fail(std::string(who) + " " + pattern,
             "count " + std::to_string(count) + " != golden "
                 + std::to_string(golden));
        return false;
    }

    /** The modeled dump of a pattern must repeat exactly across
     *  iterations, thread counts and serve mixes. */
    bool
    checkModeled(const std::string &pattern, const std::string &json)
    {
        const auto [it, first] = modeled_.emplace(pattern, json);
        if (first || it->second == json)
            return true;
        fail(pattern, "modeled dump differs from an earlier run");
        return false;
    }

    Op
    countOnce(std::size_t i, const core::SessionConfig &session,
              SpanRecorder *rec, std::size_t parent, Phase *phase)
    {
        const std::string &pattern = w_.patterns[i];
        Op op;
        ++attempted_;
        sim::RunStats stats;
        std::vector<std::uint64_t> trace;
        Timer timer;
        {
            Span span(rec, "engine.run." + pattern, parent);
            try {
                std::optional<core::Engine> engine;
                {
                    Span ctor(rec, "engine.session", span.id());
                    engine.emplace(*setup_.context, session);
                }
                op.count = engine->run(setup_.plans[i]);
                stats = engine->stats();
                trace = traceTallies(engine->traceCounts());
                op.ok = true;
            } catch (const std::exception &e) {
                fail(pattern, e.what());
            }
        }
        op.seconds = timer.elapsedSeconds();
        if (!op.ok)
            return op;
        op.ok = check(pattern, op.count, "engine")
            && checkModeled(pattern, stats.toJson(false));
        if (!op.ok)
            return op;
        if (phase) {
            phase->runSeconds[pattern].push_back(op.seconds);
            if (phase->walls.empty())
                phase->tally.add(stats, trace);
        }
        return op;
    }

    /** Operations of the next iteration, in a fresh seeded order:
     *  every pattern once, or every shape kServeRepeats times.
     *  Averaging over orders keeps serve-mix latencies steady. */
    const std::vector<std::size_t> &
    nextOrder()
    {
        for (std::size_t i = order_.size() - 1; i > 0; --i)
            std::swap(order_[i], order_[orderRng_.nextBounded(i + 1)]);
        return order_;
    }

    void
    iterate(Phase &phase, SpanRecorder *rec)
    {
        if (w_.serve)
            serveRound(phase, rec);
        else
            countIteration(phase, rec);
    }

    void
    countIteration(Phase &phase, SpanRecorder *rec)
    {
        Span span(rec, "iteration");
        Timer timer;
        Count embeddings = 0;
        std::vector<double> latencies;
        for (const std::size_t i : nextOrder()) {
            const Op op = countOnce(i, w_.session, rec, span.id(),
                                    &phase);
            embeddings += op.count;
            latencies.push_back(op.seconds * 1e3);
        }
        recordIteration(phase, timer.elapsedSeconds(), embeddings,
                        latencies);
    }

    void
    recordIteration(Phase &phase, double wall, Count embeddings,
                    const std::vector<double> &latencies)
    {
        phase.walls.push_back(wall);
        phase.embeddingRates.push_back(
            static_cast<double>(embeddings) / wall);
        phase.queryRates.push_back(
            static_cast<double>(latencies.size()) / wall);
        phase.latenciesMs.insert(phase.latenciesMs.end(),
                                 latencies.begin(), latencies.end());
    }

    /**
     * One closed-loop round: a single generator (this thread) keeps
     * kServeOutstanding queries submitted against the service's
     * admission bound and submits the next as soon as one finishes.
     * Latency runs from submit() until the query is seen finished.
     */
    void
    serveRound(Phase &phase, SpanRecorder *rec)
    {
        core::QueryService &service = *setup_.service;
        struct Outstanding
        {
            std::size_t id;
            std::size_t shape;
            Timer timer;
            std::size_t span;
        };
        Span round(rec, "serve.round");
        Timer timer;
        std::vector<Outstanding> outstanding;
        std::vector<double> latencies;
        Count embeddings = 0;
        std::size_t next = 0;
        const std::vector<std::size_t> &order = nextOrder();
        while (next < order.size() || !outstanding.empty()) {
            while (next < order.size()
                   && outstanding.size() < kServeOutstanding) {
                const std::size_t shape = order[next++];
                Outstanding o{0, shape, Timer(), kNoParent};
                if (rec)
                    o.span = rec->begin("service.query", round.id(),
                                        service.submitted());
                o.id = service.submit(setup_.plans[shape], w_.session);
                ++attempted_;
                outstanding.push_back(o);
            }
            bool progressed = false;
            for (auto it = outstanding.begin();
                 it != outstanding.end();) {
                if (!service.finished(it->id)) {
                    ++it;
                    continue;
                }
                const double latency_ms =
                    static_cast<double>(it->timer.elapsedNs()) * 1e-6;
                if (rec)
                    rec->end(it->span);
                // result() returns a reference into a vector that the
                // next submit() may reallocate: copy it first.
                const core::QueryResult result = service.result(it->id);
                const std::string &shape = kServeShapes[it->shape];
                if (result.failed) {
                    fail("query " + shape, result.error);
                } else if (check(shape, result.count, "service")
                           && checkModeled(shape, result.modeledJson)) {
                    embeddings += result.count;
                    latencies.push_back(latency_ms);
                    phase.latencyShapes.push_back(it->shape);
                    if (phase.walls.empty())
                        phase.tally.add(result.stats, result.traceCounts);
                }
                it = outstanding.erase(it);
                progressed = true;
            }
            if (!progressed)
                std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
        recordIteration(phase, timer.elapsedSeconds(), embeddings,
                        latencies);
    }

    const Workload &w_;
    const Inputs &in_;
    const Goldens &goldens_;
    SpanRecorder *rec_;
    Setup setup_;
    Rng orderRng_;
    std::vector<std::size_t> order_;
    std::map<std::string, std::string> modeled_;
    bool warmedUp_ = false;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

std::vector<Metric>
endToEndMetrics(double setup_s, const Phase &phase)
{
    return {
        {"setup_s", setup_s, "s"},
        {"wall_s", median(phase.walls), "s"},
        {"embeddings_per_s", median(phase.embeddingRates), "1/s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"queries_per_s", median(phase.queryRates), "1/s"},
        {"query_p50_ms", quantile(phase.latenciesMs, 0.5), "ms"},
        {"query_p90_ms", quantile(phase.latenciesMs, 0.9), "ms"},
    };
}

/** Durations (s) of every span named @p name. */
std::vector<double>
spanSeconds(const std::vector<perfbench::SpanRecord> &spans,
            const std::string &name)
{
    std::vector<double> seconds;
    for (const auto &s : spans) {
        if (s.name == name)
            seconds.push_back(static_cast<double>(s.durationNs()) * 1e-9);
    }
    return seconds;
}

/** Mean per set-up rep of the named spans' total duration (s). */
double
setupSpanSeconds(const std::vector<perfbench::SpanRecord> &spans,
                 const std::string &name)
{
    const std::vector<double> seconds = spanSeconds(spans, name);
    return std::accumulate(seconds.begin(), seconds.end(), 0.0)
        / kSetupReps;
}

std::vector<Metric>
perLayerMetrics(Bench &bench, const Workload &w, SpanRecorder &rec,
                double rss_setup_mb, double untraced_wall,
                const Phase &traced, double run_1t_s, double dfs_s,
                const Phase &solo, double solo_4t_s)
{
    const std::vector<perfbench::SpanRecord> spans = rec.spans();
    const Tally &t = traced.tally;
    const double traced_wall = median(traced.walls);
    // Engine time of the same plans on 4 threads: the whole iteration
    // for count workloads, the sum of solo runs for serve-mix.
    const double wall_4t = w.serve ? solo_4t_s : untraced_wall;

    std::vector<Metric> m = {
        {"graph.build_s", setupSpanSeconds(spans, "graph.build"), "s"},
        {"context.build_s", setupSpanSeconds(spans, "context.build"),
         "s"},
        {"context.hub_bitmaps_s",
         setupSpanSeconds(spans, "context.hub_bitmaps"), "s"},
        {"planner.compile_s",
         setupSpanSeconds(spans, "planner.compile"), "s"},
        {"rss.setup_mb", rss_setup_mb, "MB"},
    };
    const Phase &runs = w.serve ? solo : traced;
    for (const std::string &p : kRunPatterns) {
        const auto it = runs.runSeconds.find(p);
        m.push_back({"engine.run_s." + p,
                     it == runs.runSeconds.end() ? 0.0
                                                 : median(it->second),
                     "s"});
    }
    const double set_ops = static_cast<double>(std::accumulate(
        t.kernelCalls.begin(), t.kernelCalls.end(), std::uint64_t{0}));
    m.insert(m.end(), {
        {"engine.chunks", static_cast<double>(t.chunks), "count"},
        {"engine.embeddings", static_cast<double>(t.embeddings), "count"},
        {"engine.peak_chunk_bytes", static_cast<double>(t.peakChunkBytes),
         "bytes"},
        {"engine.runtime_overhead", ratio(run_1t_s, dfs_s), "ratio"},
        {"plan_runner.dfs_s", dfs_s, "s"},
        {"kernels.set_ops", set_ops, "count"},
    });
    for (std::size_t k = 0; k < core::kNumKernelKinds; ++k)
        m.push_back({std::string("kernels.calls.")
                         + core::kernelKindName(
                             static_cast<core::KernelKind>(k)),
                     static_cast<double>(t.kernelCalls[k]), "count"});
    const double hits = static_cast<double>(t.cacheHits);
    const double misses = static_cast<double>(t.cacheMisses);
    m.insert(m.end(), {
        {"extender.intersection_items",
         static_cast<double>(t.intersectionItems), "count"},
        {"extender.vertical_reuses", static_cast<double>(t.verticalReuses),
         "count"},
        {"provider.cache_hits", hits, "count"},
        {"provider.cache_misses", misses, "count"},
        {"provider.cache_hit_ratio", ratio(hits, hits + misses), "ratio"},
        {"provider.horizontal_hits", static_cast<double>(t.horizontalHits),
         "count"},
        {"provider.remote_lists", static_cast<double>(t.remoteLists),
         "count"},
        {"provider.local_lists", static_cast<double>(t.localLists),
         "count"},
        {"circulant.batches", static_cast<double>(t.batches), "count"},
        {"circulant.messages", static_cast<double>(t.messages), "count"},
        {"circulant.bytes", static_cast<double>(t.bytesSent), "bytes"},
        {"steal.chunks_stolen", static_cast<double>(t.chunksStolen),
         "count"},
        {"steal.bytes", static_cast<double>(t.stealBytes), "bytes"},
        {"recovery.checkpoints", static_cast<double>(t.checkpoints),
         "count"},
        {"trace.events", static_cast<double>(t.events), "count"},
        {"trace.cache_events", static_cast<double>(t.cacheEvents),
         "count"},
        {"trace.events_per_embedding",
         ratio(static_cast<double>(t.events),
               static_cast<double>(t.embeddings)),
         "ratio"},
        {"trace.buffer_mb",
         static_cast<double>(t.peakRunEvents * sizeof(sim::TraceRecord))
             / (1024.0 * 1024.0),
         "MB"},
        {"trace.overhead_ratio", ratio(traced_wall, untraced_wall),
         "ratio"},
        {"engine.run_1t_s", run_1t_s, "s"},
        {"parallel.efficiency", ratio(run_1t_s, kHostThreads * wall_4t),
         "ratio"},
    });

    // core/service: solo times per shape, and what serving adds.
    std::map<std::size_t, double> solo_ms;
    for (std::size_t s = 0; s < kServeShapes.size(); ++s) {
        const auto it = solo.runSeconds.find(kServeShapes[s]);
        if (w.serve && it != solo.runSeconds.end())
            solo_ms[s] = median(it->second) * 1e3;
    }
    std::vector<double> overheads;
    for (std::size_t q = 0; w.serve && q < traced.latenciesMs.size(); ++q)
        overheads.push_back(traced.latenciesMs[q]
                            - solo_ms[traced.latencyShapes[q]]);
    m.push_back({"service.session_build_ms",
                 median(spanSeconds(spans, "engine.session")) * 1e3,
                 "ms"});
    for (std::size_t s = 0; s < kServeShapes.size(); ++s)
        m.push_back({"service.solo_ms." + kServeShapes[s],
                     w.serve ? solo_ms[s] : 0.0, "ms"});
    core::GraphContext &context = *bench.setup().context;
    m.insert(m.end(), {
        {"service.overhead_ms", median(overheads), "ms"},
        {"service.peak_in_flight",
         w.serve ? static_cast<double>(
                       bench.setup().service->peakInFlight())
                 : 0.0,
         "count"},
        {"service.cross_query_hit_ratio",
         w.serve ? ratio(static_cast<double>(context.crossQueryHits()),
                         static_cast<double>(context.crossQueryProbes()))
                 : 0.0,
         "ratio"},
        {"modeled.makespan_ns", t.makespanNs, "ns"},
        {"modeled.bytes_sent", static_cast<double>(t.bytesSent), "bytes"},
    });
    return m;
}

unsigned
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return std::thread::hardware_concurrency();
    return static_cast<unsigned>(CPU_COUNT(&set));
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** The host fingerprint line printed with every result: the kernel
 *  split is host-dependent, so AVX2 and scalar rows never compare. */
void
printFingerprint(const Workload &w, std::uint64_t seed,
                 const Inputs &in)
{
    std::printf("{\"fingerprint\": {\"nproc\": %u, \"simd\": %s, "
                "\"build_type\": %s, \"compiler\": %s, "
                "\"workload\": %s, \"seed\": %llu, \"scale\": %s, "
                "\"host_threads\": %u}}\n",
                onlineCpus(), core::simdAvailable() ? "true" : "false",
                jsonString(PERFBENCH_BUILD_TYPE).c_str(),
                jsonString(PERFBENCH_COMPILER).c_str(),
                jsonString(w.name).c_str(),
                static_cast<unsigned long long>(seed),
                jsonString(in.scale).c_str(), kHostThreads);
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    std::printf("}}\n");
    std::fflush(stdout);
}

/**
 * Generate the goldens: for every workload, count each pattern on
 * the stand-in with the workload's engine configuration and with
 * runPlanDfs, and emit the count only if the two agree.
 */
int
makeGoldens(bool smoke)
{
    for (const std::string &name : workloadNames()) {
        const Workload w = workloadByName(name);
        const Inputs in = makeInputs(0, smoke);
        const Setup s = buildSetup(w, in, nullptr);
        for (std::size_t i = 0; i < s.plans.size(); ++i) {
            core::Engine engine(*s.context, w.session);
            const Count engine_count = engine.run(s.plans[i]);
            const Count dfs_count =
                core::countWithPlan(*s.graph, s.plans[i]);
            if (engine_count != dfs_count) {
                std::fprintf(stderr, "%s %s: engine %llu != dfs %llu\n",
                             name.c_str(), w.patterns[i].c_str(),
                             static_cast<unsigned long long>(engine_count),
                             static_cast<unsigned long long>(dfs_count));
                return 1;
            }
            std::printf("%s %s %s %llu\n", name.c_str(), in.scale.c_str(),
                        w.patterns[i].c_str(),
                        static_cast<unsigned long long>(engine_count));
            std::fflush(stdout);
        }
    }
    return 0;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;
    bool makeGoldens = false;
    std::string goldens;
    std::string spans;
};

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(key + " needs a value");
            return argv[++i];
        };
        if (key == "--workload")
            o.workload = value();
        else if (key == "--seed")
            o.seed = std::stoull(value());
        else if (key == "--seconds")
            o.seconds = std::stod(value());
        else if (key == "--trace")
            o.trace = value() != "0";
        else if (key == "--goldens")
            o.goldens = value();
        else if (key == "--spans")
            o.spans = value();
        else if (key == "--smoke")
            o.smoke = true;
        else if (key == "--make-goldens")
            o.makeGoldens = true;
        else
            throw std::invalid_argument("unknown option " + key);
    }
    if (!o.makeGoldens && (o.workload.empty() || o.goldens.empty()))
        throw std::invalid_argument("--workload and --goldens are required");
    if (o.seconds <= 0)
        throw std::invalid_argument("--seconds must be positive");
    return o;
}

int
runBenchmark(const Options &o)
{
    const Workload w = workloadByName(o.workload);
    const Inputs in = makeInputs(o.seed, o.smoke);
    const Goldens goldens(o.goldens);
    printFingerprint(w, o.seed, in);

    SpanRecorder recorder;
    SpanRecorder *rec = o.trace ? &recorder : nullptr;
    Bench bench(w, in, goldens, rec);
    const double setup_s = bench.setUp();
    const double rss_setup_mb = peakRssMb();

    std::vector<Metric> metrics;
    if (!o.trace) {
        const Phase phase = bench.timedPhase(o.seconds, false);
        metrics = endToEndMetrics(setup_s, phase);
    } else {
        // A quarter of the budget untraced, a quarter traced; the
        // rest goes to the 1-thread and runPlanDfs reference runs.
        bench.checkStandIn();
        const Phase untraced = bench.timedPhase(o.seconds / 4, false);
        const Phase traced = bench.timedPhase(o.seconds / 4, true);
        Phase solo;
        double solo_4t_s = 0;
        if (w.serve) {
            Span span(rec, "service.solo");
            solo_4t_s = bench.runEach(kHostThreads, &solo, rec, span.id());
        }
        double run_1t_s = 0;
        {
            Span span(rec, "engine.run_1t");
            run_1t_s = bench.runEach(1, nullptr, rec, span.id());
        }
        const double dfs_s = bench.dfsEach();
        metrics = perLayerMetrics(bench, w, recorder, rss_setup_mb,
                                  median(untraced.walls), traced,
                                  run_1t_s, dfs_s, solo, solo_4t_s);
        metrics.push_back(
            {"fail_ratio",
             ratio(static_cast<double>(bench.failed()),
                   static_cast<double>(bench.attempted())),
             "ratio"});
        if (!o.spans.empty() && !recorder.writeJsonLines(o.spans))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         o.spans.c_str());
    }
    printResult(bench.failed() == 0, bench.attempted(), bench.failed(),
                metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options o = parseOptions(argc, argv);
        if (o.makeGoldens)
            return makeGoldens(o.smoke);
        return runBenchmark(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
