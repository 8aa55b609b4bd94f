/**
 * @file
 * Regenerates Table 2: k-Automine / k-GraphPi (Khuzdul, partitioned
 * graph) vs. GraphPi (replicated graph) vs. G-thinker (partitioned)
 * on the 8-node cluster, for TC / 3-MC / 4-CC / 5-CC.
 *
 * Expected shape (paper): Khuzdul systems beat G-thinker by one to
 * two orders of magnitude (average ~19x), and match or beat
 * replicated GraphPi; the win over G-thinker is largest on the
 * low-skew Patents graph where its cache/scheduler overhead cannot
 * be amortized.  G-thinker is run single-socket like the paper's
 * parenthesised numbers (its shared structures degrade on two
 * sockets).
 */

#include <cstdio>

#include "bench_common.hh"
#include "engines/graphpi_rep.hh"
#include "engines/gthinker.hh"

namespace
{

using namespace khuzdul;

struct Row
{
    std::string app;
    std::string graph;
    double kAutomineNs = 0;
    double kGraphPiNs = 0;
    double graphPiNs = 0;
    double gthinkerNs = 0;
    Count count = 0;
};

} // namespace

int
main()
{
    bench::banner("Table 2: comparison with distributed GPM systems",
                  "Table 2 (8 nodes; G-thinker single-socket like the "
                  "paper's parentheses)");

    const std::vector<std::pair<std::string, std::vector<std::string>>>
        workloads = {
            {"TC", {"mc", "pt", "lj", "uk", "tw", "fr"}},
            {"3-MC", {"mc", "pt", "lj", "uk", "tw", "fr"}},
            {"4-CC", {"mc", "pt", "lj", "uk", "tw", "fr"}},
            {"5-CC", {"mc", "pt", "lj", "fr"}},
        };

    bench::TablePrinter table(
        {"App", "Graph", "k-Automine", "k-GraphPi", "GraphPi(rep)",
         "G-thinker", "speedup vs G-t", "embeddings"},
        {5, 5, 11, 11, 12, 11, 14, 16});
    table.printHeader();

    double sum_speedup = 0;
    double max_speedup = 0;
    int speedup_rows = 0;

    for (const auto &[app_name, graphs] : workloads) {
        const bench::App app = bench::appByName(app_name);
        for (const std::string &graph_name : graphs) {
            const auto &dataset = datasets::byName(graph_name);
            Row row;
            row.app = app_name;
            row.graph = graph_name;

            auto automine = engines::KhuzdulSystem::kAutomine(
                dataset.graph, bench::standInEngineConfig(8));
            const auto a = bench::runOnKhuzdul(*automine, app);
            row.kAutomineNs = a.makespanNs;
            row.count = a.count;

            auto graphpi = engines::KhuzdulSystem::kGraphPi(
                dataset.graph, bench::standInEngineConfig(8));
            const auto g = bench::runOnKhuzdul(*graphpi, app);
            row.kGraphPiNs = g.makespanNs;

            std::string rep_cell;
            {
                // The paper's replication wall: nodes have 64 GB and
                // graphs up to 14 GB; scaled stand-ins mirror the
                // ratio, so mid-size graphs still fit.
                engines::GraphPiRepEngine engine(
                    dataset.graph, sim::ClusterConfig::paperDefault(8));
                double total = 0;
                Count count = 0;
                try {
                    PlanOptions options;
                    options.induced = app.induced;
                    for (const Pattern &p : app.patterns) {
                        const auto result = engine.count(p, options);
                        total += result.makespanNs;
                        count += result.count;
                    }
                    KHUZDUL_CHECK(count == row.count,
                                  "count mismatch GraphPi(rep)");
                    row.graphPiNs = total;
                    rep_cell = bench::fmtTime(total);
                } catch (const FatalError &) {
                    rep_cell = "OOM";
                }
            }

            // The public G-thinker crashes on the larger graphs
            // (uk/tw/fr, and lj for 5-CC) due to an internal bug
            // the paper reports; mirror those cells.
            const bool gthinker_crashes =
                graph_name == "uk" || graph_name == "tw"
                || graph_name == "fr"
                || (app_name == "5-CC" && graph_name == "lj");
            std::string gt_cell;
            if (gthinker_crashes) {
                gt_cell = "CRASHED";
            } else {
                engines::GThinkerEngine engine(
                    dataset.graph, sim::ClusterConfig::singleSocket(8));
                double total = 0;
                Count count = 0;
                PlanOptions options;
                options.induced = app.induced;
                for (const Pattern &p : app.patterns) {
                    const auto result = engine.count(p, options);
                    total += result.makespanNs;
                    count += result.count;
                }
                KHUZDUL_CHECK(count == row.count,
                              "count mismatch G-thinker");
                row.gthinkerNs = total;
                gt_cell = bench::fmtTime(total);
            }

            std::string speedup_cell = "-";
            if (!gthinker_crashes) {
                const double best_khuzdul =
                    std::min(row.kAutomineNs, row.kGraphPiNs);
                const double speedup = row.gthinkerNs / best_khuzdul;
                sum_speedup += speedup;
                max_speedup = std::max(max_speedup, speedup);
                ++speedup_rows;
                speedup_cell = formatRatio(speedup);
            }

            table.printRow({row.app, row.graph,
                            bench::fmtTime(row.kAutomineNs),
                            bench::fmtTime(row.kGraphPiNs), rep_cell,
                            gt_cell, speedup_cell,
                            formatCount(row.count)});
        }
        table.printRule();
    }

    std::printf("\nKhuzdul vs G-thinker speedup: average %s, max %s "
                "(paper: avg 17.7-20.3x, max 75.5x)\n",
                formatRatio(sum_speedup / speedup_rows).c_str(),
                formatRatio(max_speedup).c_str());
    return 0;
}
