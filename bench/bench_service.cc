/**
 * @file
 * Multi-query serving harness (BENCH_service.json).
 *
 * Runs a mixed 100-query workload (eight pattern shapes, cycled)
 * through one QueryService over a shared resident graph, twice:
 * serial (admission bound 1, one host thread) and concurrent
 * (admission bound 4, all host threads).  Reports throughput
 * (queries/sec) of both runs, the concurrency lift, and the
 * cross-query shared-cache hit rate the residency directory
 * observed — the operational win of serving from one GraphContext
 * instead of one engine per query.
 *
 * `--check` turns the harness into a CI gate: the service
 * determinism contract (per-query modeled dumps identical between
 * the serial and concurrent runs) always gates; the throughput
 * floor (concurrent >= serial) is only enforced when the host has
 * >= 4 hardware threads.
 * `--out FILE` overrides the JSON path.
 */

#include <cstring>
#include <fstream>
#include <thread>

#include "bench_common.hh"
#include "core/service/service.hh"
#include "graph/generators.hh"
#include "pattern/planner.hh"
#include "support/timer.hh"

namespace
{

using namespace khuzdul;

constexpr std::size_t kQueries = 100;

bool failed = false;

void
fail(const std::string &why)
{
    std::fprintf(stderr, "FAIL: %s\n", why.c_str());
    failed = true;
}

/** The mixed workload: eight shapes, cycled to kQueries entries. */
std::vector<Pattern>
workload()
{
    const std::vector<Pattern> shapes = {
        Pattern::triangle(),       Pattern::pathOf(3),
        Pattern::cycleOf(4),       Pattern::diamond(),
        Pattern::tailedTriangle(), Pattern::clique(4),
        Pattern::starOf(4),        Pattern::pathOf(4)};
    std::vector<Pattern> queries;
    for (std::size_t i = 0; i < kQueries; ++i)
        queries.push_back(shapes[i % shapes.size()]);
    return queries;
}

struct ServeRow
{
    std::string mode;
    std::uint64_t wallNs = 0;
    double qps = 0;
    std::uint64_t crossHits = 0;
    std::uint64_t crossProbes = 0;
    std::vector<Count> counts;
    std::vector<std::string> modeledJson;
};

ServeRow
serveAll(const Graph &g, const core::GraphSetup &setup,
         const std::vector<ExtendPlan> &plans, unsigned in_flight,
         unsigned host_threads, const std::string &mode)
{
    ServeRow row;
    row.mode = mode;
    core::GraphContext context(g, setup);
    core::ServiceOptions options;
    options.maxInFlight = in_flight;
    options.hostThreads = host_threads;
    core::QueryService service(context, options);
    Timer timer;
    for (const ExtendPlan &plan : plans)
        service.submit(plan);
    service.wait();
    row.wallNs = timer.elapsedNs();
    row.qps = row.wallNs == 0
        ? 0.0
        : static_cast<double>(plans.size()) * 1e9
            / static_cast<double>(row.wallNs);
    row.crossHits = context.crossQueryHits();
    row.crossProbes = context.crossQueryProbes();
    for (const auto &query : service.results()) {
        if (query.failed)
            fail(mode + ": query " + std::to_string(query.id)
                 + " failed: " + query.error);
        row.counts.push_back(query.count);
        row.modeledJson.push_back(query.modeledJson);
    }
    return row;
}

double
hitRate(const ServeRow &row)
{
    return row.crossProbes == 0
        ? 0.0
        : static_cast<double>(row.crossHits)
            / static_cast<double>(row.crossProbes);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_service.json";
    bool check = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0)
            check = true;
        else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            out_path = argv[++i];
    }

    bench::banner("Multi-query service throughput",
                  "one resident GraphContext serving a mixed "
                  "workload (DESIGN.md 10); per-query modeled "
                  "results are mix-invariant by construction");

    const unsigned hw = std::thread::hardware_concurrency();
    const Graph g = gen::rmat(1'500, 9'000, 0.57, 0.19, 0.19, 11);
    core::GraphSetup setup;
    setup.cluster = sim::ClusterConfig::paperDefault(8);
    setup.cacheDegreeThreshold = 8;
    std::printf("workload: %zu queries (8 shapes, cycled) on an "
                "rmat graph (%u vertices); host has %u hardware "
                "threads\n\n",
                kQueries, g.numVertices(), hw);

    std::vector<ExtendPlan> plans;
    for (const Pattern &p : workload())
        plans.push_back(compileAutomine(p, {}));

    const ServeRow serial =
        serveAll(g, setup, plans, 1, 1, "serial");
    const ServeRow concurrent =
        serveAll(g, setup, plans, 4, 0, "concurrent");

    // --- Determinism: modeled results are mix-invariant ----------
    for (std::size_t id = 0; id < plans.size(); ++id) {
        if (concurrent.counts[id] != serial.counts[id])
            fail("query " + std::to_string(id)
                 + ": count differs between serial and concurrent");
        if (concurrent.modeledJson[id] != serial.modeledJson[id])
            fail("query " + std::to_string(id)
                 + ": modeled dump differs between serial and "
                   "concurrent");
    }
    // The directory sees the same probe stream either way; only
    // interleaving (and so the hit split) may differ.
    if (concurrent.crossProbes != serial.crossProbes)
        fail("cross-query probe totals differ between runs");

    // --- Table ---------------------------------------------------
    bench::TablePrinter table(
        {"mode", "wall", "queries/s", "xq hits", "xq probes",
         "hit rate"},
        {12, 9, 10, 10, 10, 9});
    table.printHeader();
    for (const ServeRow *row : {&serial, &concurrent}) {
        char qps[32];
        std::snprintf(qps, sizeof qps, "%.1f", row->qps);
        table.printRow({row->mode, formatTime(row->wallNs), qps,
                        formatCount(row->crossHits),
                        formatCount(row->crossProbes),
                        formatPercent(hitRate(*row))});
    }
    table.printRule();

    const double lift = serial.qps == 0
        ? 0.0 : concurrent.qps / serial.qps;
    std::printf("concurrency throughput lift: %.2fx\n", lift);

    // --- Gate ----------------------------------------------------
    const bool gate_throughput = hw >= 4;
    if (gate_throughput) {
        if (concurrent.qps < serial.qps)
            fail("concurrent throughput below serial ("
                 + std::to_string(concurrent.qps) + " < "
                 + std::to_string(serial.qps) + " queries/s)");
    } else {
        std::printf("(throughput floor skipped: host has %u < 4 "
                    "hardware threads; determinism still "
                    "enforced)\n", hw);
    }
    if (serial.crossHits == 0)
        fail("mixed workload produced no cross-query cache hits");

    std::ofstream out(out_path);
    if (!out.is_open()) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    out.precision(15);
    out << "{\n  \"queries\": " << kQueries << ",\n"
        << "  \"hardware_threads\": " << hw << ",\n  \"modes\": [\n";
    bool first = true;
    for (const ServeRow *row : {&serial, &concurrent}) {
        out << (first ? "" : ",\n") << "    {\"mode\": \""
            << row->mode << "\", \"wall_ns\": " << row->wallNs
            << ", \"queries_per_sec\": " << row->qps
            << ", \"cross_query_hits\": " << row->crossHits
            << ", \"cross_query_probes\": " << row->crossProbes
            << ", \"hit_rate\": " << hitRate(*row) << "}";
        first = false;
    }
    out << "\n  ],\n  \"throughput_lift\": " << lift
        << ",\n  \"throughput_gate_enforced\": "
        << (gate_throughput ? "true" : "false")
        << ",\n  \"check_passed\": " << (failed ? "false" : "true")
        << "\n}\n";
    std::printf("wrote %s\n", out_path.c_str());

    if (check && failed)
        return 1;
    if (failed)
        std::fprintf(stderr, "(failures above; not gating without "
                             "--check)\n");
    return failed ? 1 : 0;
}
