/**
 * @file
 * Regenerates Figure 19: network bandwidth utilization of
 * k-GraphPi across applications and graphs.
 *
 * Expected shape (paper): the system is compute-bound nearly
 * everywhere, so utilization stays below ~50%; Patents is the
 * outlier whose many small poorly-batched requests keep the
 * network busy on copies yet underutilized on payload.
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
    bench::banner("Figure 19: network bandwidth utilization",
                  "Fig 19 (k-GraphPi, 8 nodes)");

    bench::TablePrinter table(
        {"App", "Graph", "traffic", "makespan", "utilization"},
        {5, 5, 10, 10, 11});
    table.printHeader();

    for (const std::string app_name : {"TC", "3-MC", "4-CC", "5-CC"}) {
        const bench::App app = bench::appByName(app_name);
        for (const std::string graph_name : {"mc", "pt", "lj", "fr"}) {
            const auto &dataset = datasets::byName(graph_name);
            auto system = engines::KhuzdulSystem::kGraphPi(
                dataset.graph, bench::standInEngineConfig(8));
            const auto cell = bench::runOnKhuzdul(*system, app);
            table.printRow(
                {app_name, graph_name,
                 formatBytes(cell.stats.totalBytesSent()),
                 bench::fmtTime(cell.makespanNs),
                 formatPercent(cell.stats.networkUtilization())});
        }
        table.printRule();
    }
    std::printf("\nExpected shape: compute-bound workloads leave the "
                "network well under saturation (paper: < 50%% "
                "everywhere).\n");
    return 0;
}
