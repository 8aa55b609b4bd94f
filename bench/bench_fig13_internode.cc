/**
 * @file
 * Regenerates Figure 13: inter-node scalability on the LiveJournal
 * stand-in — k-GraphPi vs. replicated GraphPi over 1/2/4/8 nodes
 * for TC, 3-MC, 4-CC and 5-CC.
 *
 * Expected shape (paper): k-GraphPi scales almost perfectly
 * (average 6.77x at 8 nodes); GraphPi's coarse static task split
 * reaches only ~4x.
 */

#include <cstdio>

#include "bench_common.hh"
#include "engines/graphpi_rep.hh"

namespace
{

using namespace khuzdul;

} // namespace

int
main()
{
    bench::banner("Figure 13: inter-node scalability (lj)",
                  "Fig 13 (1-8 nodes; runtime per app, plus speedup "
                  "vs 1 node)");

    const auto &dataset = datasets::byName("lj");
    const std::vector<unsigned> node_counts = {1, 2, 4, 8};

    bench::TablePrinter table(
        {"App", "System", "1 node", "2 nodes", "4 nodes", "8 nodes",
         "speedup@8"},
        {5, 12, 9, 9, 9, 9, 9});
    table.printHeader();

    double khuzdul_sum = 0;
    double rep_sum = 0;
    int apps_counted = 0;

    for (const std::string app_name : {"TC", "3-MC", "4-CC", "5-CC"}) {
        const bench::App app = bench::appByName(app_name);

        std::vector<std::string> krow = {app_name, "k-GraphPi"};
        std::vector<std::string> grow = {"", "GraphPi(rep)"};
        double k_first = 0;
        double k_last = 0;
        double g_first = 0;
        double g_last = 0;
        for (const unsigned nodes : node_counts) {
            auto system = engines::KhuzdulSystem::kGraphPi(
                dataset.graph, bench::standInEngineConfig(nodes));
            const auto cell = bench::runOnKhuzdul(*system, app);
            krow.push_back(bench::fmtTime(cell.makespanNs));
            if (nodes == 1)
                k_first = cell.makespanNs;
            k_last = cell.makespanNs;

            engines::GraphPiRepEngine rep(
                dataset.graph, sim::ClusterConfig::paperDefault(nodes));
            double total = 0;
            PlanOptions options;
            options.induced = app.induced;
            for (const Pattern &p : app.patterns)
                total += rep.count(p, options).makespanNs;
            grow.push_back(bench::fmtTime(total));
            if (nodes == 1)
                g_first = total;
            g_last = total;
        }
        krow.push_back(formatRatio(k_first / k_last));
        grow.push_back(formatRatio(g_first / g_last));
        table.printRow(krow);
        table.printRow(grow);
        table.printRule();
        khuzdul_sum += k_first / k_last;
        rep_sum += g_first / g_last;
        ++apps_counted;
    }
    std::printf("\nAverage speedup at 8 nodes: k-GraphPi %s, "
                "GraphPi(rep) %s (paper: 6.77x vs 4.04x)\n",
                formatRatio(khuzdul_sum / apps_counted).c_str(),
                formatRatio(rep_sum / apps_counted).c_str());
    return 0;
}
