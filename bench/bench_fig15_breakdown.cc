/**
 * @file
 * Regenerates Figure 15: runtime breakdown of G-thinker vs.
 * k-Automine (network / compute / scheduler / cache shares) on the
 * MiCo, Patents and LiveJournal stand-ins.
 *
 * Expected shape (paper): G-thinker spends ~41% in cache
 * maintenance and ~45% in its scheduler with only ~9% compute;
 * k-Automine is compute-dominated (~59% average) except on Patents,
 * whose light extensions cannot amortize scheduling or hide
 * communication.
 */

#include <cstdio>

#include "bench_common.hh"
#include "engines/gthinker.hh"

namespace
{

using namespace khuzdul;

void
printBreakdownRow(bench::TablePrinter &table, const std::string &system,
                  const std::string &app, const std::string &graph,
                  const sim::RunStats &stats)
{
    const double compute = stats.totalComputeNs();
    const double network = stats.totalCommExposedNs();
    const double scheduler = stats.totalSchedulerNs();
    const double cache = stats.totalCacheNs();
    const double total = compute + network + scheduler + cache;
    table.printRow({system, app, graph,
                    formatPercent(compute / total),
                    formatPercent(network / total),
                    formatPercent(scheduler / total),
                    formatPercent(cache / total)});
}

} // namespace

int
main()
{
    bench::banner("Figure 15: runtime breakdown, G-thinker vs "
                  "k-Automine",
                  "Fig 15 (8 nodes, single socket like the paper's "
                  "G-thinker runs)");

    bench::TablePrinter table(
        {"System", "App", "Graph", "compute", "network", "scheduler",
         "cache"},
        {10, 5, 5, 8, 8, 9, 7});
    table.printHeader();

    const std::vector<std::pair<std::string, std::vector<std::string>>>
        workloads = {
            {"TC", {"mc", "pt", "lj"}},
            {"3-MC", {"mc", "pt", "lj"}},
            {"4-CC", {"mc", "pt", "lj"}},
            {"5-CC", {"mc", "pt"}}, // 5-CC on lj: G-thinker crashes
                                    // in the paper; we follow suit
        };

    double gt_overhead_sum = 0;
    double ka_compute_sum = 0;
    int rows = 0;

    for (const auto &[app_name, graphs] : workloads) {
        const bench::App app = bench::appByName(app_name);
        for (const std::string &graph_name : graphs) {
            const auto &dataset = datasets::byName(graph_name);

            engines::GThinkerEngine gthinker(
                dataset.graph, sim::ClusterConfig::singleSocket(8));
            sim::RunStats gt_stats;
            PlanOptions options;
            options.induced = app.induced;
            Count gt_count = 0;
            for (const Pattern &p : app.patterns) {
                const auto result = gthinker.count(p, options);
                gt_stats.accumulate(result.stats);
                gt_count += result.count;
            }
            printBreakdownRow(table, "G-thinker", app_name, graph_name,
                              gt_stats);

            auto config = bench::standInEngineConfig(8);
            config.graph.cluster = sim::ClusterConfig::singleSocket(8);
            auto system = engines::KhuzdulSystem::kAutomine(
                dataset.graph, config);
            const auto cell = bench::runOnKhuzdul(*system, app);
            KHUZDUL_CHECK(cell.count == gt_count, "count mismatch");
            printBreakdownRow(table, "k-Automine", app_name,
                              graph_name, cell.stats);

            const double gt_total = gt_stats.totalComputeNs()
                + gt_stats.totalCommExposedNs()
                + gt_stats.totalSchedulerNs()
                + gt_stats.totalCacheNs();
            gt_overhead_sum += (gt_stats.totalSchedulerNs()
                                + gt_stats.totalCacheNs())
                / gt_total;
            const double ka_total = cell.stats.totalComputeNs()
                + cell.stats.totalCommExposedNs()
                + cell.stats.totalSchedulerNs()
                + cell.stats.totalCacheNs();
            ka_compute_sum += cell.stats.totalComputeNs() / ka_total;
            ++rows;
        }
        table.printRule();
    }
    std::printf("\nAverages: G-thinker scheduler+cache %s of runtime "
                "(paper: 86.5%%); k-Automine compute %s (paper: "
                "59.5%%).\n",
                formatPercent(gt_overhead_sum / rows).c_str(),
                formatPercent(ka_compute_sum / rows).c_str());
    return 0;
}
