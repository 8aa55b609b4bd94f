/**
 * @file
 * Work-stealing straggler-mitigation harness (BENCH_steal.json).
 *
 * Runs the Table-2 application set (TC / 3-MC / 4-CC / 5-CC) on a
 * 16-unit simulated cluster (8 nodes x 2 sockets) in four
 * configurations: {healthy, one node degraded} x {--steal off, on}.
 * The degraded scenario reuses the PR-5 deterministic degrade fault
 * — every link touching node 7 runs at 1/6 bandwidth — so two of
 * the sixteen units straggle and the steal pass (DESIGN.md §11) can
 * rebalance their tail chunks onto healthy peers at fault-free
 * prices.
 *
 * `--check` turns the harness into a CI gate:
 *   - counts must be identical across all four configurations
 *     (stealing moves modeled time, never work);
 *   - under the degraded plan, stealing must win the makespan by
 *     >= 1.3x (straggler mitigation must actually mitigate);
 *   - on the healthy baseline, stealing must never lose (the
 *     planner only accepts strictly profitable migrations);
 *   - the degraded steal-on run must actually steal (no vacuous
 *     pass).
 * `--out FILE` overrides the JSON path.
 */

#include <cstring>
#include <fstream>

#include "bench_common.hh"

namespace
{

using namespace khuzdul;

/** One node of eight degraded to 1/6 bandwidth, both directions,
 *  for the whole run (factor >= 4 per the straggler scenario). */
std::vector<std::string>
degradedPlan()
{
    return {"degrade:7-*:factor=6:from=0",
            "degrade:*-7:factor=6:from=0"};
}

core::EngineConfig
stealBenchConfig(bool steal, bool degraded)
{
    core::EngineConfig config = bench::standInEngineConfig(8);
    // Smaller chunks than the stand-in default: chunk migration is
    // the unit of rebalancing, so the ledger needs enough entries
    // per unit for the greedy pass to shave the stragglers close.
    config.session.chunkBytes = 64ull << 10;
    config.session.stealEnabled = steal;
    if (degraded)
        for (const std::string &spec : degradedPlan())
            config.session.faults.add(spec);
    return config;
}

struct AppRow
{
    std::string app;
    Count count = 0;
    double makespanNs = 0;
    std::uint64_t chunksStolen = 0;
    std::uint64_t stealBytes = 0;
    double stealOverheadNs = 0;
    double recoveryNs = 0;
};

struct ConfigRow
{
    std::string name;
    bool steal = false;
    bool degraded = false;
    std::vector<AppRow> apps;
};

bool failed = false;

void
fail(const std::string &why)
{
    std::fprintf(stderr, "FAIL: %s\n", why.c_str());
    failed = true;
}

ConfigRow
runConfig(const Graph &g, const std::string &name, bool steal,
          bool degraded)
{
    ConfigRow row;
    row.name = name;
    row.steal = steal;
    row.degraded = degraded;
    auto system = engines::KhuzdulSystem::kGraphPi(
        g, stealBenchConfig(steal, degraded));
    for (const bench::App &app : bench::paperApps()) {
        bench::Cell cell = bench::runOnKhuzdul(*system, app);
        AppRow r;
        r.app = app.name;
        if (!cell.ok) {
            fail(app.name + " under '" + name + "': " + cell.error);
            row.apps.push_back(std::move(r));
            continue;
        }
        r.count = cell.count;
        r.makespanNs = cell.makespanNs;
        r.chunksStolen = cell.stats.totalChunksStolen();
        r.stealBytes = cell.stats.totalStealBytes();
        r.stealOverheadNs = cell.stats.totalStealOverheadNs();
        r.recoveryNs = cell.stats.totalRecoveryNs();
        row.apps.push_back(std::move(r));
    }
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_steal.json";
    bool check = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0)
            check = true;
        else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            out_path = argv[++i];
    }

    bench::banner("Work stealing under a straggling node",
                  "deterministic chunk donation (DESIGN.md 11) vs. "
                  "a node degraded to 1/6 bandwidth; counts stay "
                  "exact, the makespan fold prices steal traffic");

    const datasets::Dataset &mc = datasets::byName("mc");
    std::printf("workload: standin:mc, 16 execution units "
                "(8 nodes x 2 sockets), node 7 degraded x6 in the "
                "skewed scenario\n\n");

    std::vector<ConfigRow> rows;
    rows.push_back(runConfig(mc.graph, "healthy/off", false, false));
    rows.push_back(runConfig(mc.graph, "healthy/on", true, false));
    rows.push_back(runConfig(mc.graph, "degraded/off", false, true));
    rows.push_back(runConfig(mc.graph, "degraded/on", true, true));
    const ConfigRow &healthy_off = rows[0];
    const ConfigRow &healthy_on = rows[1];
    const ConfigRow &degraded_off = rows[2];
    const ConfigRow &degraded_on = rows[3];

    // --- Exactness: stealing and faults never change counts ------
    for (const ConfigRow &row : rows)
        for (std::size_t a = 0; a < row.apps.size(); ++a)
            if (row.apps[a].count != healthy_off.apps[a].count)
                fail(row.apps[a].app + ": count under '" + row.name
                     + "' differs from healthy/off");

    // --- Table ---------------------------------------------------
    bench::TablePrinter table(
        {"app", "healthy off", "healthy on", "degraded off",
         "degraded on", "steal win", "steals"},
        {5, 12, 12, 12, 12, 9, 7});
    table.printHeader();
    for (std::size_t a = 0; a < healthy_off.apps.size(); ++a) {
        const double off = degraded_off.apps[a].makespanNs;
        const double on = degraded_on.apps[a].makespanNs;
        char win[32];
        std::snprintf(win, sizeof win, "%.2fx",
                      on > 0 ? off / on : 0.0);
        table.printRow(
            {healthy_off.apps[a].app,
             bench::fmtTime(healthy_off.apps[a].makespanNs),
             bench::fmtTime(healthy_on.apps[a].makespanNs),
             bench::fmtTime(off), bench::fmtTime(on), win,
             std::to_string(degraded_on.apps[a].chunksStolen)});
    }
    table.printRule();

    // --- Gates ---------------------------------------------------
    std::uint64_t total_steals = 0;
    for (std::size_t a = 0; a < healthy_off.apps.size(); ++a) {
        const AppRow &h_off = healthy_off.apps[a];
        const AppRow &h_on = healthy_on.apps[a];
        const AppRow &d_off = degraded_off.apps[a];
        const AppRow &d_on = degraded_on.apps[a];

        // Stealing must never lose on the unskewed baseline: the
        // planner only accepts migrations that bound both parties
        // by the victim's old finish.
        if (h_on.makespanNs > h_off.makespanNs)
            fail(h_on.app + ": stealing loses on the healthy "
                 "baseline ("
                 + std::to_string(h_on.makespanNs) + " > "
                 + std::to_string(h_off.makespanNs) + ")");

        // Straggler mitigation: >= 1.3x makespan win under the
        // degraded node.
        if (d_on.makespanNs <= 0
            || d_off.makespanNs < 1.3 * d_on.makespanNs)
            fail(d_on.app + ": steal win under degrade is "
                 + std::to_string(d_on.makespanNs > 0
                                      ? d_off.makespanNs
                                          / d_on.makespanNs
                                      : 0.0)
                 + "x < 1.3x");

        total_steals += d_on.chunksStolen;
    }
    if (total_steals == 0)
        fail("degraded steal-on run stole nothing; the gate is "
             "vacuous");

    std::ofstream out(out_path);
    if (!out.is_open()) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    out.precision(15);
    out << "{\n  \"workload\": \"standin:mc\",\n"
        << "  \"units\": 16,\n"
        << "  \"degrade_factor\": 6,\n"
        << "  \"configs\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ConfigRow &row = rows[i];
        out << (i == 0 ? "" : ",\n") << "    {\"config\": \""
            << row.name << "\", \"steal\": "
            << (row.steal ? "true" : "false") << ", \"degraded\": "
            << (row.degraded ? "true" : "false") << ", \"apps\": [";
        for (std::size_t a = 0; a < row.apps.size(); ++a) {
            const AppRow &r = row.apps[a];
            out << (a == 0 ? "" : ", ") << "{\"app\": \"" << r.app
                << "\", \"count\": " << r.count
                << ", \"makespan_ns\": " << r.makespanNs
                << ", \"chunks_stolen\": " << r.chunksStolen
                << ", \"steal_bytes\": " << r.stealBytes
                << ", \"steal_overhead_ns\": " << r.stealOverheadNs
                << ", \"recovery_ns\": " << r.recoveryNs << "}";
        }
        out << "]}";
    }
    out << "\n  ],\n  \"check_passed\": "
        << (failed ? "false" : "true") << "\n}\n";
    std::printf("wrote %s\n", out_path.c_str());

    if (check && failed)
        return 1;
    if (failed)
        std::fprintf(stderr, "(failures above; not gating without "
                             "--check)\n");
    return failed ? 1 : 0;
}
