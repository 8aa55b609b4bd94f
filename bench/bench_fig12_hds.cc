/**
 * @file
 * Regenerates Figure 12: the effect of horizontal data sharing on
 * network traffic and critical-path communication time (k-GraphPi,
 * 4-CC and 5-CC, with vs. without the per-chunk dedup table).
 *
 * Expected shape (paper): ~70% traffic and ~68% comm-time cuts on
 * average (up to 99%+); moderate on the low-skew Patents graph
 * (fewer hot vertices repeat within a chunk).
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
    bench::banner("Figure 12: effect of horizontal data sharing",
                  "Fig 12 (k-GraphPi, 8 nodes; normalized to the "
                  "no-HDS run)");

    bench::TablePrinter table(
        {"App", "Graph", "norm. traffic", "norm. comm time",
         "HDS hits", "drops"},
        {5, 5, 13, 15, 12, 8});
    table.printHeader();

    for (const std::string app_name : {"4-CC", "5-CC"}) {
        const bench::App app = bench::appByName(app_name);
        for (const std::string graph_name : {"mc", "pt", "lj", "fr"}) {
            const auto &dataset = datasets::byName(graph_name);

            // Cache off isolates the HDS effect, mirroring the
            // figure's normalized deltas.
            auto config = bench::standInEngineConfig(8);
            config.graph.cachePolicy = core::CachePolicy::None;
            auto with_hds = engines::KhuzdulSystem::kGraphPi(
                dataset.graph, config);
            const auto with_cell =
                bench::runOnKhuzdul(*with_hds, app);
            std::uint64_t hits = 0;
            std::uint64_t drops = 0;
            for (const auto &node : with_cell.stats.nodes) {
                hits += node.horizontalHits;
                drops += node.horizontalDrops;
            }

            auto bare_config = config;
            bare_config.graph.horizontalSharing = false;
            auto without_hds = engines::KhuzdulSystem::kGraphPi(
                dataset.graph, bare_config);
            const auto without_cell =
                bench::runOnKhuzdul(*without_hds, app);
            KHUZDUL_CHECK(with_cell.count == without_cell.count,
                          "HDS changed counts");

            const double traffic_ratio =
                static_cast<double>(with_cell.stats.totalBytesSent())
                / static_cast<double>(
                    without_cell.stats.totalBytesSent());
            const double comm_ratio =
                with_cell.stats.totalCommExposedNs()
                / std::max(1.0,
                           without_cell.stats.totalCommExposedNs());
            table.printRow({app_name, graph_name,
                            formatPercent(traffic_ratio),
                            formatPercent(comm_ratio),
                            formatCount(hits), formatCount(drops)});
        }
        table.printRule();
    }
    std::printf("\nExpected shape: large cuts everywhere; the pt "
                "stand-in keeps the most traffic (paper: only "
                "20-24%% reduction there).\n");
    return 0;
}
