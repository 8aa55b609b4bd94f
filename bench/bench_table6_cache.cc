/**
 * @file
 * Regenerates Table 6: the static data cache's effect on network
 * traffic and runtime (k-GraphPi, cache on vs. off).
 *
 * Expected shape (paper): large traffic reductions everywhere,
 * dramatic on highly skewed graphs (uk TC: >99% traffic cut, 3.7x
 * runtime); little runtime change where communication was already
 * hidden by computation (4-CC on lj).
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
    bench::banner("Table 6: analyzing the static data cache",
                  "Table 6 (k-GraphPi, 8 nodes)");

    const std::vector<std::pair<std::string, std::vector<std::string>>>
        workloads = {
            {"TC", {"pt", "lj", "uk", "fr"}},
            {"4-CC", {"pt", "lj", "fr"}},
            {"5-CC", {"pt", "lj", "fr"}},
        };

    bench::TablePrinter table(
        {"App", "Graph", "traffic(cache)", "traffic(none)",
         "time(cache)", "time(none)", "traffic cut"},
        {5, 5, 14, 13, 11, 10, 11});
    table.printHeader();

    for (const auto &[app_name, graphs] : workloads) {
        const bench::App app = bench::appByName(app_name);
        for (const std::string &graph_name : graphs) {
            const auto &dataset = datasets::byName(graph_name);

            auto with_config = bench::cacheRegimeConfig(8);
            auto system =
                engines::KhuzdulSystem::kGraphPi(dataset.graph,
                                                 with_config);
            const auto cached = bench::runOnKhuzdul(*system, app);

            auto without_config = with_config;
            without_config.graph.cachePolicy = core::CachePolicy::None;
            auto bare = engines::KhuzdulSystem::kGraphPi(
                dataset.graph, without_config);
            const auto uncached = bench::runOnKhuzdul(*bare, app);
            KHUZDUL_CHECK(cached.count == uncached.count,
                          "cache changed counts");

            const auto t_with = cached.stats.totalBytesSent();
            const auto t_without = uncached.stats.totalBytesSent();
            table.printRow(
                {app_name, graph_name, formatBytes(t_with),
                 formatBytes(t_without),
                 bench::fmtTime(cached.makespanNs),
                 bench::fmtTime(uncached.makespanNs),
                 formatPercent(1.0
                               - static_cast<double>(t_with)
                                   / static_cast<double>(t_without))});
        }
        table.printRule();
    }
    std::printf("\nExpected shape: traffic drops everywhere, most on "
                "the skewed uk stand-in (paper: 57.7TB -> 487GB); "
                "runtime follows only where comm was exposed.\n");
    return 0;
}
