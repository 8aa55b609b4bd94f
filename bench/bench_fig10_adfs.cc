/**
 * @file
 * Regenerates Figure 10: triangle counting against the aDFS-like
 * "moving computation to data" engine on the Skitter / Orkut /
 * Friendster stand-ins.
 *
 * Expected shape (paper): k-Automine and k-GraphPi beat aDFS by up
 * to an order of magnitude even with fewer cores, because shipping
 * embeddings plus their active edge lists wastes bandwidth and
 * forfeits data reuse.
 */

#include <cstdio>

#include "bench_common.hh"
#include "engines/move_computation.hh"

namespace
{

using namespace khuzdul;

} // namespace

int
main()
{
    bench::banner("Figure 10: comparison with aDFS",
                  "Fig 10 (TC; aDFS-like moving-computation engine "
                  "on 8 nodes)");

    bench::TablePrinter table(
        {"Graph", "aDFS~", "k-Automine", "k-GraphPi", "with stealing",
         "aDFS traffic", "Khuzdul traffic", "speedup"},
        {9, 9, 11, 11, 13, 12, 15, 8});
    table.printHeader();

    const bench::App tc = bench::appByName("TC");
    for (const std::string graph_name : {"skitter", "orkut", "fr"}) {
        const auto &dataset = datasets::byName(graph_name);

        engines::MoveComputationEngine adfs(
            dataset.graph, sim::ClusterConfig::paperDefault(8));
        const auto moved = adfs.count(Pattern::triangle());

        auto automine = engines::KhuzdulSystem::kAutomine(
            dataset.graph, bench::standInEngineConfig(8));
        const auto a = bench::runOnKhuzdul(*automine, tc);
        KHUZDUL_CHECK(a.count == moved.count, "count mismatch");

        auto graphpi = engines::KhuzdulSystem::kGraphPi(
            dataset.graph, bench::standInEngineConfig(8));
        const auto g = bench::runOnKhuzdul(*graphpi, tc);

        // Same engine with the post-barrier steal pass on
        // (DESIGN.md §11): the planner only accepts strictly
        // profitable migrations, so on this healthy fabric the
        // column must never exceed plain k-GraphPi.
        core::EngineConfig steal_config = bench::standInEngineConfig(8);
        steal_config.session.stealEnabled = true;
        auto stealing = engines::KhuzdulSystem::kGraphPi(
            dataset.graph, steal_config);
        const auto s = bench::runOnKhuzdul(*stealing, tc);
        KHUZDUL_CHECK(s.count == moved.count, "count mismatch");
        KHUZDUL_CHECK(s.makespanNs <= g.makespanNs,
                      "stealing lost on a healthy fabric");

        const double best = std::min({a.makespanNs, g.makespanNs,
                                      s.makespanNs});
        table.printRow({graph_name, bench::fmtTime(moved.makespanNs),
                        bench::fmtTime(a.makespanNs),
                        bench::fmtTime(g.makespanNs),
                        bench::fmtTime(s.makespanNs),
                        formatBytes(moved.stats.totalBytesSent()),
                        formatBytes(a.stats.totalBytesSent()),
                        formatRatio(moved.makespanNs / best)});
    }
    table.printRule();
    std::printf("\nExpected shape: Khuzdul up to ~an order of "
                "magnitude faster than the moving-computation "
                "policy.\n");
    return 0;
}
