/**
 * @file
 * Host-parallel scaling harness (BENCH_parallel.json).
 *
 * Runs the Table-2 application set (TC / 3-MC / 4-CC / 5-CC) on an
 * 18-unit simulated cluster (9 nodes x 2 sockets) while sweeping the
 * host thread count {1, 2, 4, 8}, wall-clocking each app and
 * verifying the determinism contract of the parallel unit runtime
 * (DESIGN.md §6): counts, modeled makespans and the full modeled
 * RunStats dump must be byte-identical for every thread count.
 *
 * `--check` turns the harness into a CI gate: determinism failures
 * always fail it; the speedup floor (>= 1.5x at 4 threads) is only
 * enforced when the host actually has >= 4 hardware threads, so the
 * gate is meaningful on CI runners and silent on starved boxes.
 * `--out FILE` overrides the JSON path.
 */

#include <cstring>
#include <fstream>
#include <thread>

#include "bench_common.hh"
#include "support/timer.hh"

namespace
{

using namespace khuzdul;

struct AppRow
{
    std::string app;
    Count count = 0;
    double makespanNs = 0;
    std::uint64_t wallNs = 0;
    std::string modeledJson; ///< toJson(false), the determinism key
};

struct SweepRow
{
    unsigned threads = 0;
    std::vector<AppRow> apps;
    std::uint64_t totalWallNs = 0;
};

bool failed = false;

void
fail(const std::string &why)
{
    std::fprintf(stderr, "FAIL: %s\n", why.c_str());
    failed = true;
}

SweepRow
runSweep(const Graph &g, unsigned threads)
{
    SweepRow row;
    row.threads = threads;
    core::EngineConfig config = bench::standInEngineConfig(9);
    config.session.hostThreads = threads;
    auto system = engines::KhuzdulSystem::kGraphPi(g, config);
    for (const bench::App &app : bench::paperApps()) {
        Timer timer;
        bench::Cell cell = bench::runOnKhuzdul(*system, app);
        AppRow r;
        r.app = app.name;
        r.count = cell.count;
        r.makespanNs = cell.makespanNs;
        r.wallNs = timer.elapsedNs();
        r.modeledJson = cell.stats.toJson(false);
        row.totalWallNs += r.wallNs;
        row.apps.push_back(std::move(r));
    }
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_parallel.json";
    bool check = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0)
            check = true;
        else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            out_path = argv[++i];
    }

    bench::banner("Host-parallel unit runtime scaling",
                  "host-side scaling of the simulation itself "
                  "(DESIGN.md 6); modeled results are thread-count "
                  "invariant by construction");

    const unsigned hw = std::thread::hardware_concurrency();
    const datasets::Dataset &mc = datasets::byName("mc");
    std::printf("workload: standin:mc, 18 execution units "
                "(9 nodes x 2 sockets); host has %u hardware "
                "threads\n\n", hw);

    std::vector<SweepRow> sweep;
    for (const unsigned threads : {1u, 2u, 4u, 8u})
        sweep.push_back(runSweep(mc.graph, threads));
    const SweepRow &reference = sweep.front();

    // --- Determinism: every modeled result matches threads=1 -----
    for (const SweepRow &row : sweep) {
        for (std::size_t a = 0; a < row.apps.size(); ++a) {
            const AppRow &r = row.apps[a];
            const AppRow &ref = reference.apps[a];
            if (r.count != ref.count)
                fail(r.app + ": count differs at "
                     + std::to_string(row.threads) + " threads");
            if (r.makespanNs != ref.makespanNs)
                fail(r.app + ": modeled makespan differs at "
                     + std::to_string(row.threads) + " threads");
            if (r.modeledJson != ref.modeledJson)
                fail(r.app + ": modeled stats dump differs at "
                     + std::to_string(row.threads) + " threads");
        }
    }

    // --- Scaling table -------------------------------------------
    bench::TablePrinter table({"threads", "TC", "3-MC", "4-CC", "5-CC",
                               "total", "speedup"},
                              {7, 9, 9, 9, 9, 9, 8});
    table.printHeader();
    const auto speedup_of = [&](const SweepRow &row) {
        return row.totalWallNs == 0
            ? 0.0
            : static_cast<double>(reference.totalWallNs)
                / static_cast<double>(row.totalWallNs);
    };
    for (const SweepRow &row : sweep) {
        std::vector<std::string> cells{std::to_string(row.threads)};
        for (const AppRow &r : row.apps)
            cells.push_back(formatTime(r.wallNs));
        cells.push_back(formatTime(row.totalWallNs));
        char speedup[32];
        std::snprintf(speedup, sizeof speedup, "%.2fx",
                      speedup_of(row));
        cells.push_back(speedup);
        table.printRow(cells);
    }
    table.printRule();

    // --- Gate ----------------------------------------------------
    double speedup_at4 = 0;
    for (const SweepRow &row : sweep)
        if (row.threads == 4)
            speedup_at4 = speedup_of(row);
    const bool gate_speedup = hw >= 4;
    if (gate_speedup) {
        if (speedup_at4 < 1.5)
            fail("speedup at 4 threads "
                 + std::to_string(speedup_at4) + "x < 1.5x");
    } else {
        std::printf("\n(speedup floor skipped: host has %u < 4 "
                    "hardware threads; determinism still "
                    "enforced)\n", hw);
    }

    std::ofstream out(out_path);
    if (!out.is_open()) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    out.precision(15);
    out << "{\n  \"workload\": \"standin:mc\",\n"
        << "  \"units\": 18,\n"
        << "  \"hardware_threads\": " << hw << ",\n"
        << "  \"sweep\": [\n";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const SweepRow &row = sweep[i];
        out << (i == 0 ? "" : ",\n") << "    {\"threads\": "
            << row.threads << ", \"total_wall_ns\": "
            << row.totalWallNs << ", \"speedup_vs_1\": "
            << speedup_of(row) << ", \"apps\": [";
        for (std::size_t a = 0; a < row.apps.size(); ++a) {
            const AppRow &r = row.apps[a];
            out << (a == 0 ? "" : ", ") << "{\"app\": \"" << r.app
                << "\", \"count\": " << r.count
                << ", \"wall_ns\": " << r.wallNs
                << ", \"makespan_ns\": " << r.makespanNs << "}";
        }
        out << "]}";
    }
    out << "\n  ],\n  \"speedup_at_4_threads\": " << speedup_at4
        << ",\n  \"speedup_gate_enforced\": "
        << (gate_speedup ? "true" : "false")
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
