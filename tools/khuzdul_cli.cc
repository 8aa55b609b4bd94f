/**
 * @file
 * The `khuzdul` command-line tool: generate / inspect / convert
 * graphs, compile and inspect plans, and run the GPM applications
 * on the simulated cluster without writing any C++.
 *
 * Subcommands:
 *   generate  synthesize a graph to an edge-list or binary file
 *   info      print graph statistics
 *   convert   edge-list <-> binary
 *   plan      show the compiled EXTEND plan of a pattern
 *   count     count a pattern's embeddings
 *   motifs    k-motif census
 *   fsm       frequent subgraph mining on a labeled graph
 *   serve     run many queries concurrently through QueryService
 *
 * Run `khuzdul help` or `khuzdul help <subcommand>` for usage.
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "apps/fsm.hh"
#include "apps/gpm_apps.hh"
#include "core/extender.hh"
#include "core/kernels/kernels.hh"
#include "engines/khuzdul_system.hh"
#include "graph/datasets.hh"
#include "graph/generators.hh"
#include "graph/io.hh"
#include "graph/orientation.hh"
#include "pattern/planner.hh"
#include "sim/faults.hh"
#include "sim/trace.hh"
#include "support/check.hh"
#include "support/format.hh"
#include "support/timer.hh"

namespace
{

using namespace khuzdul;

/**
 * Parse @p text as a non-negative decimal integer that fits in @p T.
 * A sign, surrounding characters and out-of-range values are fatal;
 * @p what names the flag or spec field in the message.
 */
template <typename T>
T
parseInteger(const std::string &text, const std::string &what)
{
    static_assert(std::is_integral_v<T>);
    constexpr auto max = static_cast<std::uint64_t>(
        std::numeric_limits<T>::max());
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error == std::errc::invalid_argument || stop != end)
        KHUZDUL_FATAL(what << " must be a non-negative integer, got '"
                      << text << "'");
    if (error == std::errc::result_out_of_range || value > max)
        KHUZDUL_FATAL(what << " must be at most " << max << ", got '"
                      << text << "'");
    return static_cast<T>(value);
}

/**
 * Parse @p text as a finite decimal number.  Surrounding characters,
 * inf/nan, out-of-range values and — with @p non_negative — values
 * below zero are fatal; @p what names the flag or spec field.
 */
double
parseDouble(const std::string &text, const std::string &what,
            bool non_negative = false)
{
    double value = 0;
    const char *end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc() || stop != end || !std::isfinite(value))
        KHUZDUL_FATAL(what << " must be a finite number, got '" << text
                      << "'");
    if (non_negative && value < 0)
        KHUZDUL_FATAL(what << " must be non-negative, got '" << text
                      << "'");
    return value;
}

/**
 * Minimal --key value / --flag argument map.  It records which keys
 * the subcommand read, so rejectUnread() can refuse the rest.
 */
class Args
{
  public:
    Args(int argc, char **argv, int first) : command_(argv[first - 1])
    {
        for (int i = first; i < argc; ++i) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0)
                KHUZDUL_FATAL("unexpected argument '" << key
                              << "' (options start with --)");
            key = key.substr(2);
            // Both --key value and --key=value are accepted.
            std::string value;
            if (const std::size_t eq = key.find('=');
                eq != std::string::npos) {
                value = key.substr(eq + 1);
                key = key.substr(0, eq);
            } else if (i + 1 < argc
                       && std::string(argv[i + 1]).rfind("--", 0)
                           != 0) {
                value = argv[++i];
            }
            values_[key] = value;
            // Repeatable options (--fault) read every occurrence.
            occurrences_[key].push_back(value);
        }
    }

    bool
    has(const std::string &key) const
    {
        read_.insert(key);
        return values_.count(key);
    }

    std::string
    get(const std::string &key, const std::string &fallback = "") const
    {
        read_.insert(key);
        auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }

    /** Integer option, range-checked against @p T. */
    template <typename T>
    T
    getInteger(const std::string &key, T fallback) const
    {
        read_.insert(key);
        auto it = values_.find(key);
        return it == values_.end()
            ? fallback : parseInteger<T>(it->second, "--" + key);
    }

    /** Floating-point option (see parseDouble). */
    double
    getDouble(const std::string &key, double fallback,
              bool non_negative = false) const
    {
        read_.insert(key);
        auto it = values_.find(key);
        return it == values_.end()
            ? fallback
            : parseDouble(it->second, "--" + key, non_negative);
    }

    /** Every value of a repeatable option, in command-line order. */
    std::vector<std::string>
    getList(const std::string &key) const
    {
        read_.insert(key);
        auto it = occurrences_.find(key);
        return it == occurrences_.end() ? std::vector<std::string>{}
                                        : it->second;
    }

    /** Fail on an option the subcommand never read: a typo or
     *  another subcommand's flag.  Called once every option is read,
     *  before any work starts. */
    void
    rejectUnread() const
    {
        for (const auto &[key, value] : values_)
            if (!read_.count(key))
                KHUZDUL_FATAL("unknown option --"
                              << key << " for '" << command_
                              << "' (see `khuzdul help " << command_
                              << "`)");
    }

  private:
    std::string command_;
    std::map<std::string, std::string> values_;
    std::map<std::string, std::vector<std::string>> occurrences_;
    mutable std::set<std::string> read_;
};

/**
 * Parse a pattern spec: named patterns ("triangle", "clique4",
 * "path3", "cycle5", "star4", "diamond", "tailed", "house") or an
 * explicit edge list like "0-1,1-2,2-0".
 */
Pattern
parsePattern(const std::string &spec)
{
    const auto sized = [&spec](const std::string &prefix) -> int {
        if (spec.rfind(prefix, 0) != 0)
            return -1;
        return std::atoi(spec.c_str() + prefix.size());
    };
    if (spec == "triangle")
        return Pattern::triangle();
    if (spec == "diamond")
        return Pattern::diamond();
    if (spec == "tailed")
        return Pattern::tailedTriangle();
    if (spec == "house")
        return Pattern::house();
    if (int k = sized("clique"); k > 0)
        return Pattern::clique(k);
    if (int k = sized("path"); k > 0)
        return Pattern::pathOf(k);
    if (int k = sized("cycle"); k > 0)
        return Pattern::cycleOf(k);
    if (int k = sized("star"); k > 0)
        return Pattern::starOf(k);

    // Edge-list form: "0-1,1-2,...".
    std::vector<std::pair<int, int>> edges;
    int max_vertex = -1;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        int u = 0;
        int v = 0;
        if (std::sscanf(spec.c_str() + pos, "%d-%d", &u, &v) != 2)
            KHUZDUL_FATAL("cannot parse pattern spec '" << spec << "'");
        edges.emplace_back(u, v);
        max_vertex = std::max({max_vertex, u, v});
        pos = spec.find(',', pos);
        if (pos == std::string::npos)
            break;
        ++pos;
    }
    KHUZDUL_REQUIRE(!edges.empty(), "empty pattern spec");
    return Pattern(max_vertex + 1, edges);
}

/**
 * Load a graph.  Accepted forms:
 *  - "standin:<abbr>"   one of the paper's stand-in datasets
 *  - "rmat:V:E[:a[:seed]]", "er:V:E[:seed]", "sw:V:k:beta[:seed]"
 *  - a file path (binary if it has the Khuzdul magic, else text)
 */
Graph
loadGraph(const std::string &spec)
{
    const auto split = [](const std::string &s) {
        std::vector<std::string> parts;
        std::size_t start = 0;
        while (true) {
            const std::size_t colon = s.find(':', start);
            parts.push_back(s.substr(start, colon - start));
            if (colon == std::string::npos)
                break;
            start = colon + 1;
        }
        return parts;
    };
    const auto parts = split(spec);
    const std::string &kind = parts[0];
    // A spec has min..max fields, its kind included.
    const auto fields = [&parts, &spec](std::size_t min,
                                        std::size_t max,
                                        const char *grammar) {
        KHUZDUL_REQUIRE(parts.size() >= min && parts.size() <= max,
                        "graph spec '" << spec << "' has "
                            << parts.size() << " fields; expected "
                            << grammar);
    };
    if (kind == "standin") {
        fields(2, 2, "standin:<abbr>");
        return datasets::byName(parts[1]).graph;
    }
    if (kind == "rmat") {
        fields(3, 5, "rmat:V:E[:a[:seed]]");
        const auto v = parseInteger<VertexId>(parts[1], "rmat V");
        const auto e = parseInteger<EdgeId>(parts[2], "rmat E");
        const double a =
            parts.size() > 3 ? parseDouble(parts[3], "rmat a") : 0.55;
        const auto seed = parts.size() > 4
            ? parseInteger<std::uint64_t>(parts[4], "rmat seed") : 1;
        const double rest = (1.0 - a) / 3.0;
        return gen::rmat(v, e, a, rest, rest, seed);
    }
    if (kind == "er") {
        fields(3, 4, "er:V:E[:seed]");
        return gen::erdosRenyi(
            parseInteger<VertexId>(parts[1], "er V"),
            parseInteger<EdgeId>(parts[2], "er E"),
            parts.size() > 3
                ? parseInteger<std::uint64_t>(parts[3], "er seed") : 1);
    }
    if (kind == "sw") {
        fields(4, 5, "sw:V:k:beta[:seed]");
        return gen::smallWorld(
            parseInteger<VertexId>(parts[1], "sw V"),
            parseInteger<unsigned>(parts[2], "sw k"),
            parseDouble(parts[3], "sw beta"),
            parts.size() > 4
                ? parseInteger<std::uint64_t>(parts[4], "sw seed") : 1);
    }
    // A file: sniff the binary magic.
    std::ifstream in(spec, std::ios::binary);
    KHUZDUL_REQUIRE(in.is_open(), "cannot open graph file " << spec);
    char magic[8] = {};
    in.read(magic, 8);
    in.clear();
    in.seekg(0);
    std::uint64_t head = 0;
    std::memcpy(&head, magic, sizeof(head));
    if (head == 0x4b48555a44554c31ULL) // the binary format magic
        return io::readBinary(in);
    return io::readEdgeList(in);
}

/** `--system automine|graphpi` (default graphpi). */
std::string
systemStyle(const Args &args)
{
    const std::string style = args.get("system", "graphpi");
    KHUZDUL_REQUIRE(style == "automine" || style == "graphpi",
                    "--system must be automine or graphpi");
    return style;
}

core::EngineConfig
engineConfigFromArgs(const Args &args)
{
    core::EngineConfig config;
    config.graph.cluster = sim::ClusterConfig::paperDefault(
        args.getInteger<NodeId>("nodes", 8));
    config.graph.cluster.socketsPerNode =
        args.getInteger<unsigned>("sockets", 2);
    config.session.chunkBytes =
        args.getInteger<std::uint64_t>("chunk-bytes", 1 << 20);
    // The range check lives with the context (a cache fraction
    // outside [0, 1] is a bad config however it is built).
    config.graph.cacheFraction = args.getDouble("cache-fraction", 0.15);
    if (args.has("no-cache"))
        config.graph.cachePolicy = core::CachePolicy::None;
    if (args.has("no-hds"))
        config.graph.horizontalSharing = false;
    if (args.has("no-numa"))
        config.graph.numaAware = false;
    config.session.kernelMode = core::parseKernelMode(
        args.get("kernel", "auto"));
    // Host-side only: results are bit-identical for every value.
    config.session.hostThreads = args.getInteger<unsigned>("threads", 0);
    // Deterministic fault schedule (repeatable --fault, §9).
    for (const std::string &spec : args.getList("fault"))
        config.session.faults.add(spec);
    config.session.faults.maxRetries =
        args.getInteger<unsigned>("fault-retries", 3);
    // Deterministic post-barrier work stealing (DESIGN.md §11).
    const std::string steal = args.get("steal", "off");
    KHUZDUL_REQUIRE(steal == "on" || steal == "off",
                    "--steal must be 'on' or 'off', got '"
                        << steal << "'");
    config.session.stealEnabled = steal == "on";
    config.session.stealBacklogThresholdNs =
        args.getDouble("steal-threshold", 1.0e5, true);
    // Crash recovery and query resilience (DESIGN.md §9).
    config.session.checkpointEnabled = args.has("checkpoint");
    config.session.deadlineNs = args.getDouble("deadline", 0.0, true);
    config.session.maxQueryRetries =
        args.getInteger<unsigned>("query-retries", 0);
    return config;
}

/** The options count, motifs and fsm share. */
struct RunOptions
{
    std::string system;
    core::EngineConfig config;
    std::string tracePath; ///< `--trace FILE` (empty: none)
    std::string statsPath; ///< `--stats-json FILE` (empty: none)
};

RunOptions
runOptionsFromArgs(const Args &args)
{
    return {systemStyle(args), engineConfigFromArgs(args),
            args.get("trace"), args.get("stats-json")};
}

std::unique_ptr<engines::KhuzdulSystem>
makeSystem(const Graph &g, const RunOptions &run)
{
    return run.system == "automine"
        ? engines::KhuzdulSystem::kAutomine(g, run.config)
        : engines::KhuzdulSystem::kGraphPi(g, run.config);
}

/**
 * Optional `--trace FILE` wiring: an open stream plus the JSON-lines
 * sink attached to the engine.  Kept alive until the command
 * returns; both live on the heap so the sink's stream reference
 * survives the return from attachTrace.
 */
struct TraceOutput
{
    std::unique_ptr<std::ofstream> file;
    std::unique_ptr<sim::JsonLinesTraceSink> sink;
};

TraceOutput
attachTrace(engines::KhuzdulSystem &system, const RunOptions &run)
{
    TraceOutput out;
    if (run.tracePath.empty())
        return out;
    out.file = std::make_unique<std::ofstream>(run.tracePath);
    KHUZDUL_REQUIRE(out.file->is_open(),
                    "cannot write " << run.tracePath);
    out.sink = std::make_unique<sim::JsonLinesTraceSink>(*out.file);
    system.engine().setTraceSink(out.sink.get());
    return out;
}

/** Optional `--stats-json FILE`: dump RunStats machine-readably. */
void
writeStatsJson(const sim::RunStats &stats, const RunOptions &run)
{
    if (run.statsPath.empty())
        return;
    std::ofstream out(run.statsPath);
    KHUZDUL_REQUIRE(out.is_open(), "cannot write " << run.statsPath);
    out << stats.toJson();
}

void
printStats(const sim::RunStats &stats)
{
    std::printf("modeled cluster time: %s\n",
                formatTime(static_cast<std::uint64_t>(
                    stats.makespanNs())).c_str());
    std::printf("network traffic:      %s in %s messages\n",
                formatBytes(stats.totalBytesSent()).c_str(),
                formatCount(stats.totalMessages()).c_str());
    if (stats.staticCacheHitRate() > 0)
        std::printf("static cache hits:    %s\n",
                    formatPercent(stats.staticCacheHitRate()).c_str());
}

// Each subcommand reads every option it accepts, then calls
// rejectUnread() before it does any work.

int
cmdGenerate(const Args &args)
{
    const std::string spec = args.get("spec", "rmat:10000:80000");
    const std::string out = args.get("out", "graph.el");
    const bool binary = args.get("format", "text") == "binary";
    args.rejectUnread();
    const Graph g = loadGraph(spec);
    std::ofstream file(out, std::ios::binary);
    KHUZDUL_REQUIRE(file.is_open(), "cannot write " << out);
    if (binary)
        io::writeBinary(g, file);
    else
        io::writeEdgeList(g, file);
    std::printf("wrote %u vertices / %llu edges to %s\n",
                g.numVertices(),
                static_cast<unsigned long long>(g.numEdges()),
                out.c_str());
    return 0;
}

int
cmdInfo(const Args &args)
{
    const std::string spec = args.get("graph", "");
    args.rejectUnread();
    const Graph g = loadGraph(spec);
    std::printf("vertices:    %s\n",
                formatCount(g.numVertices()).c_str());
    std::printf("edges:       %s\n", formatCount(g.numEdges()).c_str());
    std::printf("max degree:  %s\n",
                formatCount(g.maxDegree()).c_str());
    std::printf("avg degree:  %.2f\n",
                g.numVertices() == 0
                    ? 0.0
                    : static_cast<double>(g.numArcs())
                        / g.numVertices());
    std::printf("size:        %s\n", formatBytes(g.sizeBytes()).c_str());
    std::printf("labeled:     %s\n", g.labeled() ? "yes" : "no");
    // Log-scale degree histogram.
    std::map<int, Count> histogram;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        int bucket = 0;
        while ((1ull << bucket) < g.degree(v))
            ++bucket;
        ++histogram[bucket];
    }
    std::printf("degree histogram (bucket = degree <= 2^k):\n");
    for (const auto &[bucket, count] : histogram)
        std::printf("  2^%-2d %10s\n", bucket,
                    formatCount(count).c_str());
    return 0;
}

int
cmdConvert(const Args &args)
{
    const std::string in = args.get("in", "");
    const std::string out = args.get("out", "");
    const bool binary = args.get("format", "binary") == "binary";
    args.rejectUnread();
    KHUZDUL_REQUIRE(!out.empty(), "--out is required");
    const Graph g = loadGraph(in);
    std::ofstream file(out, std::ios::binary);
    KHUZDUL_REQUIRE(file.is_open(), "cannot write " << out);
    if (binary)
        io::writeBinary(g, file);
    else
        io::writeEdgeList(g, file);
    std::printf("converted to %s\n", out.c_str());
    return 0;
}

int
cmdPlan(const Args &args)
{
    const Pattern p = parsePattern(args.get("pattern", "triangle"));
    const std::string style = systemStyle(args);
    PlanOptions options;
    options.induced = args.has("induced");
    // With a graph, compile against its degree profile exactly as
    // `count` does, so this is the plan `count` runs.
    GraphProfile profile{
        args.getDouble("profile-vertices", 100000.0, true),
        args.getDouble("profile-degree", 16.0, true)};
    const bool from_graph = args.has("graph");
    if (from_graph)
        KHUZDUL_REQUIRE(!args.has("profile-vertices")
                            && !args.has("profile-degree"),
                        "--profile-vertices and --profile-degree "
                        "apply only without --graph");
    args.rejectUnread();
    if (from_graph)
        profile = GraphProfile::fromGraph(loadGraph(args.get("graph")));
    const ExtendPlan plan = style == "automine"
        ? compileAutomine(p, options)
        : compileGraphPi(p, profile, options);
    std::printf("%s", plan.toString().c_str());
    for (int t = 1; t < plan.pattern.size(); ++t) {
        const PositionMask key = core::candidateMemoKey(plan, t);
        if (key == 0)
            continue;
        std::string positions;
        for (int j = 0; j < t; ++j)
            if ((key >> j) & 1u)
                positions += (positions.empty() ? "" : ",")
                    + std::to_string(j);
        std::printf("  memo: L%d key={%s}\n", t, positions.c_str());
    }
    return 0;
}

int
cmdCount(const Args &args)
{
    const std::string spec = args.get("graph", "");
    const Pattern p = parsePattern(args.get("pattern", "triangle"));
    const RunOptions run = runOptionsFromArgs(args);
    PlanOptions options;
    options.induced = args.has("induced");
    args.rejectUnread();
    const Graph g = loadGraph(spec);
    auto system = makeSystem(g, run);
    const TraceOutput trace = attachTrace(*system, run);
    Timer timer;
    const Count count = system->count(p, options);
    std::printf("%s embeddings of %s\n", formatCount(count).c_str(),
                p.toString().c_str());
    printStats(system->stats());
    writeStatsJson(system->stats(), run);
    std::printf("host wall time:       %s\n",
                formatTime(timer.elapsedNs()).c_str());
    return 0;
}

int
cmdMotifs(const Args &args)
{
    const std::string spec = args.get("graph", "");
    const RunOptions run = runOptionsFromArgs(args);
    const int k = args.getInteger<int>("size", 3);
    args.rejectUnread();
    const Graph g = loadGraph(spec);
    auto system = makeSystem(g, run);
    const TraceOutput trace = attachTrace(*system, run);
    const auto census = apps::motifCount(*system, k);
    for (const auto &motif : census)
        std::printf("%-28s %16s\n", motif.pattern.toString().c_str(),
                    formatCount(motif.count).c_str());
    printStats(system->stats());
    writeStatsJson(system->stats(), run);
    return 0;
}

int
cmdFsm(const Args &args)
{
    const std::string spec = args.get("graph", "");
    // Read even when the graph turns out to be labeled already.
    const auto labels = args.getInteger<Label>("labels", 3);
    const auto label_seed =
        args.getInteger<std::uint64_t>("label-seed", 1);
    const RunOptions run = runOptionsFromArgs(args);
    apps::FsmConfig config;
    config.minSupport = args.getInteger<Count>("support", 100);
    config.maxEdges = args.getInteger<int>("max-edges", 3);
    args.rejectUnread();
    Graph g = loadGraph(spec);
    if (!g.labeled())
        gen::randomizeLabels(g, labels, label_seed);
    auto system = makeSystem(g, run);
    const TraceOutput trace = attachTrace(*system, run);
    apps::KhuzdulFsmBackend backend(*system);
    const auto result = apps::mineFrequentSubgraphs(backend, g, config);
    std::printf("%zu frequent patterns (of %s candidates):\n",
                result.frequent.size(),
                formatCount(result.patternsEvaluated).c_str());
    for (const auto &fp : result.frequent)
        std::printf("%-34s support %12s\n",
                    fp.pattern.toString().c_str(),
                    formatCount(fp.support).c_str());
    printStats(system->stats());
    writeStatsJson(system->stats(), run);
    return 0;
}

/**
 * Multi-query mode: submit every --query to one QueryService over a
 * shared resident graph.  Per-query modeled results are printed in
 * submission order (they are deterministic regardless of the mix);
 * the footer reports what concurrency and sharing the service saw.
 */
int
cmdServe(const Args &args)
{
    const std::string spec = args.get("graph", "");
    const core::EngineConfig config = engineConfigFromArgs(args);
    core::ServiceOptions options;
    options.maxInFlight = args.getInteger<unsigned>("max-in-flight", 4);
    options.hostThreads = config.session.hostThreads;
    const std::string style = systemStyle(args);
    PlanOptions plan_options;
    plan_options.induced = args.has("induced");
    const std::vector<std::string> specs = args.getList("query");
    args.rejectUnread();
    KHUZDUL_REQUIRE(!specs.empty(),
                    "at least one --query PATTERN is required");
    std::vector<Pattern> patterns;
    for (const std::string &query : specs)
        patterns.push_back(parsePattern(query));

    const Graph g = loadGraph(spec);
    core::GraphContext context(g, config.graph);
    core::QueryService service(context, options);
    for (const Pattern &p : patterns) {
        const ExtendPlan plan = style == "automine"
            ? compileAutomine(p, plan_options)
            : compileGraphPi(p, context.profile(), plan_options);
        service.submit(plan, config.session);
    }
    Timer timer;
    service.wait();

    std::size_t failures = 0;
    for (std::size_t id = 0; id < patterns.size(); ++id) {
        const core::QueryResult &query = service.result(id);
        if (query.failed) {
            ++failures;
            std::printf("query %zu  %-28s FAILED: %s\n", id,
                        patterns[id].toString().c_str(),
                        query.error.c_str());
            continue;
        }
        std::printf("query %zu  %-28s %16s embeddings  modeled %s\n",
                    id, patterns[id].toString().c_str(),
                    formatCount(query.count).c_str(),
                    formatTime(static_cast<std::uint64_t>(
                        query.stats.makespanNs())).c_str());
    }
    std::printf("\n%zu queries, peak %u in flight "
                "(admission bound %u)\n",
                service.completed(), service.peakInFlight(),
                options.maxInFlight);
    std::printf("cross-query shared-cache hits: %s of %s probes\n",
                formatCount(context.crossQueryHits()).c_str(),
                formatCount(context.crossQueryProbes()).c_str());
    std::printf("shared fabric traffic: %s\n",
                formatBytes(context.sharedTotalBytes()).c_str());
    std::printf("host wall time:        %s\n",
                formatTime(timer.elapsedNs()).c_str());
    if (failures > 0) {
        std::fprintf(stderr, "%zu of %zu queries failed\n", failures,
                     patterns.size());
        return 1;
    }
    return 0;
}

int
cmdHelp(const std::string &topic)
{
    if (topic == "generate") {
        std::puts("khuzdul generate --spec <graph-spec> --out FILE "
                  "[--format text|binary]");
    } else if (topic == "plan") {
        std::puts("khuzdul plan --pattern SPEC [--system "
                  "automine|graphpi] [--induced]\n"
                  "  [--graph <graph-spec>]  compile against this "
                  "graph's degree profile,\n"
                  "      as `count` does: the plan `count` runs on "
                  "that graph\n"
                  "  [--profile-vertices N] [--profile-degree D]  the "
                  "profile to compile\n"
                  "      against without --graph (default 100000 "
                  "vertices, degree 16)\n"
                  "Prints one line per level (dep/anti/gt/active "
                  "position masks in hex),\n"
                  "the IEP block when GraphPi folds the suffix, and "
                  "one \"memo:\" line per\n"
                  "level served from the host-side candidate memo, "
                  "with its key positions.");
    } else if (topic == "count") {
        std::puts("khuzdul count --graph <graph-spec> --pattern SPEC\n"
                  "  [--system automine|graphpi] [--induced]\n"
                  "  [--nodes N] [--sockets S] [--chunk-bytes B]\n"
                  "  [--cache-fraction F] [--no-cache] [--no-hds] "
                  "[--no-numa]\n"
                  "  [--kernel auto|merge|gallop|bitmap]\n"
                  "  [--threads N]  host threads running simulated "
                  "units (0 = all;\n"
                  "                 modeled results identical for "
                  "every N)\n"
                  "  [--fault SPEC]...  inject a deterministic fabric "
                  "fault; SPEC is\n"
                  "      drop:SRC-DST:msg=N[:count=K]\n"
                  "      timeout:SRC-DST:msg=N[:count=K]\n"
                  "      degrade:SRC-DST:factor=F[:from=NS][:until=NS]"
                  "\n"
                  "      down:node=D[:from=NS][:until=NS]  (no until "
                  "= permanent)\n"
                  "      crash:UNIT:level=L[:chunk=K]  kill execution "
                  "unit UNIT at its\n"
                  "          K-th chunk of level L (default K = 1); "
                  "survivors adopt\n"
                  "          its chunks from the last checkpoint\n"
                  "      (SRC/DST node ids or *; counts are exact "
                  "under any plan)\n"
                  "  [--fault-retries N]  per-batch retry budget "
                  "(default 3)\n"
                  "  [--checkpoint]  take level-barrier checkpoints "
                  "even without a\n"
                  "      crash plan (charged via CostModel::"
                  "checkpointNs)\n"
                  "  [--deadline NS]  fail the query with a typed "
                  "DeadlineExceeded\n"
                  "      error once its modeled time passes NS "
                  "(0 = none)\n"
                  "  [--steal on|off]  deterministic inter-unit work "
                  "stealing\n"
                  "      (default off): idle units take backlogged "
                  "peers' chunks,\n"
                  "      paying the column transfer + handshake; "
                  "counts and modeled\n"
                  "      results stay bit-identical at every "
                  "--threads value\n"
                  "  [--steal-threshold NS]  min modeled backlog "
                  "before a unit\n"
                  "      donates (default 100000)\n"
                  "  [--stats-json FILE] [--trace FILE]\n"
                  "exit codes: 0 ok, 1 bad invocation or failed "
                  "query, 2 unrecoverable\n"
                  "  modeled fault (fault-retry budget exhausted, "
                  "crash with no survivors)");
    } else if (topic == "motifs") {
        std::puts("khuzdul motifs --graph <graph-spec> [--size K]\n"
                  "  [--system automine|graphpi]\n"
                  "  [--nodes N] [--sockets S] [--chunk-bytes B]\n"
                  "  [--cache-fraction F] [--no-cache] [--no-hds] "
                  "[--no-numa]\n"
                  "  [--kernel auto|merge|gallop|bitmap]\n"
                  "  [--threads N]  host threads (modeled results "
                  "identical for every N)\n"
                  "  [--fault SPEC]...  deterministic fabric faults, "
                  "including\n"
                  "      crash:UNIT:level=L[:chunk=K] (grammar: help "
                  "count)\n"
                  "  [--fault-retries N] [--steal on|off] "
                  "[--steal-threshold NS]\n"
                  "  [--checkpoint] [--deadline NS]  crash recovery "
                  "and modeled\n"
                  "      deadline (details: help count)\n"
                  "  [--stats-json FILE] [--trace FILE]\n"
                  "Counts every induced K-vertex motif (default "
                  "K = 3).");
    } else if (topic == "fsm") {
        std::puts("khuzdul fsm --graph <graph-spec> [--support N] "
                  "[--max-edges K]\n"
                  "  [--labels L] [--label-seed S]  label an "
                  "unlabeled input graph\n"
                  "  [--system automine|graphpi]\n"
                  "  [--nodes N] [--sockets S] [--chunk-bytes B]\n"
                  "  [--cache-fraction F] [--no-cache] [--no-hds] "
                  "[--no-numa]\n"
                  "  [--kernel auto|merge|gallop|bitmap]\n"
                  "  [--threads N]  host threads (modeled results "
                  "identical for every N)\n"
                  "  [--fault SPEC]...  deterministic fabric faults, "
                  "including\n"
                  "      crash:UNIT:level=L[:chunk=K] (grammar: help "
                  "count)\n"
                  "  [--fault-retries N] [--steal on|off] "
                  "[--steal-threshold NS]\n"
                  "  [--checkpoint] [--deadline NS]  crash recovery "
                  "and modeled\n"
                  "      deadline (details: help count)\n"
                  "  [--stats-json FILE] [--trace FILE]\n"
                  "Mines frequent subgraphs up to K edges under MNI "
                  "support.");
    } else if (topic == "serve") {
        std::puts("khuzdul serve --graph <graph-spec> "
                  "--query SPEC [--query SPEC]...\n"
                  "  [--system automine|graphpi] [--induced]\n"
                  "  [--max-in-flight N]  queries executing "
                  "concurrently (default 4;\n"
                  "                       later submissions queue "
                  "FIFO)\n"
                  "  [--threads N]  workers of the shared unit pool "
                  "(0 = all)\n"
                  "  [--query-retries N]  re-run a failed query up "
                  "to N times with\n"
                  "      modeled exponential backoff (default 0; "
                  "cancellations are\n"
                  "      never retried)\n"
                  "  [--deadline NS]  per-query modeled deadline "
                  "(typed\n"
                  "      DeadlineExceeded error; 0 = none)\n"
                  "  plus the cluster options of `count` (--nodes, "
                  "--sockets,\n"
                  "  --fault, --checkpoint, ...)\n"
                  "Per-query modeled results are bit-identical to "
                  "running each\n"
                  "query alone; the footer shows concurrency and "
                  "cross-query\n"
                  "shared-cache hits (host-side observability only).\n"
                  "Exits nonzero when any query failed.");
    } else {
        std::puts(
            "khuzdul — distributed graph pattern mining "
            "(paper reproduction)\n\n"
            "subcommands:\n"
            "  generate   synthesize a graph to a file\n"
            "  info       print graph statistics\n"
            "  convert    convert between text and binary formats\n"
            "  plan       show a pattern's compiled EXTEND plan\n"
            "  count      count embeddings of a pattern\n"
            "  motifs     k-motif census (induced counts)\n"
            "  fsm        frequent subgraph mining (MNI support)\n"
            "  serve      run many queries concurrently "
            "(QueryService)\n"
            "  help       this text / help <subcommand>\n\n"
            "graph specs: a file path, standin:<mc|pt|lj|uk|tw|fr|...>,\n"
            "  rmat:V:E[:a[:seed]], er:V:E[:seed], sw:V:k:beta[:seed]\n"
            "pattern specs: triangle, cliqueK, pathK, cycleK, starK,\n"
            "  diamond, tailed, house, or an edge list like "
            "0-1,1-2,2-0");
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return cmdHelp("");
    const std::string command = argv[1];
    // Dispatch help before option parsing: its topic operand is not
    // a --option and must not be rejected as one.
    if (command == "help")
        return cmdHelp(argc > 2 ? argv[2] : "");
    try {
        const Args args(argc, argv, 2);
        if (command == "generate")
            return cmdGenerate(args);
        if (command == "info")
            return cmdInfo(args);
        if (command == "convert")
            return cmdConvert(args);
        if (command == "plan")
            return cmdPlan(args);
        if (command == "count")
            return cmdCount(args);
        if (command == "motifs")
            return cmdMotifs(args);
        if (command == "fsm")
            return cmdFsm(args);
        if (command == "serve")
            return cmdServe(args);
        std::fprintf(stderr, "unknown subcommand '%s'\n",
                     command.c_str());
        cmdHelp("");
        return 1;
    } catch (const sim::FabricFault &e) {
        // An unrecoverable modeled fault (retry budget exhausted, a
        // crash plan with no survivors, ...) is its own exit code so
        // scripts can tell "the modeled cluster failed" (2) apart
        // from "the invocation was wrong" (1).
        std::fprintf(stderr, "unrecoverable modeled fault: %s\n",
                     e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
