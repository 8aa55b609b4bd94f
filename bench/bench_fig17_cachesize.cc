/**
 * @file
 * Regenerates Figure 17: sweeping the static cache size from 1% to
 * 50% of the graph size (k-GraphPi) and reporting normalized
 * traffic, hit rate and normalized runtime.
 *
 * Expected shape (paper): traffic falls and hit rate rises with
 * cache size, with a point of diminishing returns once
 * communication is fully hidden.
 */

#include <cstdio>

#include "bench_common.hh"

namespace
{

using namespace khuzdul;

} // namespace

int
main()
{
    bench::banner("Figure 17: varying the cache size",
                  "Fig 17 (k-GraphPi, 8 nodes; normalized to the "
                  "1% cache)");

    const std::vector<double> fractions = {0.01, 0.05, 0.10, 0.20,
                                           0.30, 0.50};
    const std::vector<std::pair<std::string, std::string>> workloads = {
        {"lj", "TC"},  {"lj", "4-CC"}, {"fr", "TC"},
        {"fr", "4-CC"}, {"uk", "TC"},
    };

    bench::TablePrinter table(
        {"Workload", "cache/graph", "norm. traffic", "hit rate",
         "norm. runtime"},
        {9, 11, 13, 8, 13});
    table.printHeader();

    for (const auto &[graph_name, app_name] : workloads) {
        const auto &dataset = datasets::byName(graph_name);
        const bench::App app = bench::appByName(app_name);
        double base_traffic = 0;
        double base_time = 0;
        for (const double fraction : fractions) {
            auto config = bench::cacheRegimeConfig(8);
            config.graph.cacheFraction = fraction;
            // Small caches should still prefer hot lists; keep the
            // paper's threshold.
            auto system = engines::KhuzdulSystem::kGraphPi(
                dataset.graph, config);
            const auto cell = bench::runOnKhuzdul(*system, app);
            if (fraction == fractions.front()) {
                base_traffic =
                    static_cast<double>(cell.stats.totalBytesSent());
                base_time = cell.makespanNs;
            }
            table.printRow(
                {graph_name + "-" + app_name,
                 formatPercent(fraction),
                 formatPercent(
                     static_cast<double>(cell.stats.totalBytesSent())
                     / base_traffic),
                 formatPercent(cell.stats.staticCacheHitRate()),
                 formatPercent(cell.makespanNs / base_time)});
        }
        table.printRule();
    }
    std::printf("\nExpected shape: monotone traffic cuts and hit-rate "
                "growth; runtime flattens at the point of "
                "diminishing returns (paper: ~10%% for uk-TC).\n");
    return 0;
}
