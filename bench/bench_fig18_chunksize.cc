/**
 * @file
 * Regenerates Figure 18: sensitivity to the chunk size of the
 * BFS-DFS hybrid exploration (k-GraphPi on lj), sweeping chunk
 * budgets across four orders of magnitude.
 *
 * Expected shape (paper): runtime falls as chunks grow (more
 * parallelism, more horizontal reuse) and then flattens; memory
 * use grows with the chunk budget, which is what eventually forces
 * the paper's 4 GB default.
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
    bench::banner("Figure 18: varying the chunk size (lj)",
                  "Fig 18 (k-GraphPi; the paper sweeps 1MB-16GB on "
                  "~1000x larger data -> 1KB-16MB here)");

    const auto &dataset = datasets::byName("lj");
    const std::vector<std::uint64_t> chunk_sizes = {
        1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20,
        4 << 20, 16 << 20,
    };

    bench::TablePrinter table(
        {"App", "chunk", "runtime", "exposed comm", "HDS hits",
         "peak chunk mem"},
        {5, 7, 10, 12, 12, 14});
    table.printHeader();

    for (const std::string app_name : {"TC", "3-MC", "4-CC", "5-CC"}) {
        const bench::App app = bench::appByName(app_name);
        for (const std::uint64_t chunk : chunk_sizes) {
            auto config = bench::standInEngineConfig(8);
            config.session.chunkBytes = chunk;
            auto system = engines::KhuzdulSystem::kGraphPi(
                dataset.graph, config);
            const auto cell = bench::runOnKhuzdul(*system, app);
            std::uint64_t hits = 0;
            std::uint64_t peak = 0;
            for (const auto &node : cell.stats.nodes) {
                hits += node.horizontalHits;
                peak = std::max(peak, node.peakChunkBytes);
            }
            table.printRow({app_name, formatBytes(chunk),
                            bench::fmtTime(cell.makespanNs),
                            bench::fmtTime(
                                cell.stats.totalCommExposedNs()),
                            formatCount(hits), formatBytes(peak)});
        }
        table.printRule();
    }
    std::printf("\nExpected shape: larger chunks help until the "
                "curve flattens; memory overhead is bounded by "
                "chunk x (levels-1) regardless of graph size.\n");
    return 0;
}
