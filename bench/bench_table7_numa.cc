/**
 * @file
 * Regenerates Table 7: NUMA-aware support (k-GraphPi, one node,
 * two sockets; per-socket sub-partitions + split cache vs. a
 * NUMA-oblivious single partition).
 *
 * Expected shape (paper): 1.0-1.5x gains from NUMA awareness,
 * larger where extension work is heavier.
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
    bench::banner("Table 7: NUMA-aware support",
                  "Table 7 (k-GraphPi, single dual-socket node)");

    const std::vector<std::pair<std::string, std::vector<std::string>>>
        workloads = {
            {"4-CC", {"pt", "lj", "fr"}},
            {"5-CC", {"pt", "lj", "fr"}},
        };

    bench::TablePrinter table(
        {"App", "Graph", "NUMA-aware", "oblivious", "gain"},
        {5, 5, 11, 11, 6});
    table.printHeader();

    for (const auto &[app_name, graphs] : workloads) {
        const bench::App app = bench::appByName(app_name);
        for (const std::string &graph_name : graphs) {
            const auto &dataset = datasets::byName(graph_name);

            auto aware_config = bench::standInEngineConfig(1);
            aware_config.graph.numaAware = true;
            auto aware = engines::KhuzdulSystem::kGraphPi(
                dataset.graph, aware_config);
            const auto with_numa = bench::runOnKhuzdul(*aware, app);

            auto oblivious_config = bench::standInEngineConfig(1);
            oblivious_config.graph.numaAware = false;
            auto oblivious = engines::KhuzdulSystem::kGraphPi(
                dataset.graph, oblivious_config);
            const auto without_numa =
                bench::runOnKhuzdul(*oblivious, app);
            KHUZDUL_CHECK(with_numa.count == without_numa.count,
                          "NUMA mode changed counts");

            table.printRow(
                {app_name, graph_name,
                 bench::fmtTime(with_numa.makespanNs),
                 bench::fmtTime(without_numa.makespanNs),
                 formatRatio(without_numa.makespanNs
                             / with_numa.makespanNs)});
        }
        table.printRule();
    }
    std::printf("\nExpected shape: NUMA awareness gains 1.0-1.5x "
                "(paper average: 1.26x).\n");
    return 0;
}
