/**
 * @file
 * Regenerates Figure 14: intra-node scalability and the COST
 * metric — k-Automine on one node with 5..16 total cores (4 always
 * reserved for communication), TC / 3-MC / 4-CC on lj, against the
 * best single-thread reference.
 *
 * Expected shape (paper): near-linear scaling (10.7-11.6x at 16
 * cores over the 1-compute-core point) and COST of 6-8 cores.
 */

#include <cstdio>

#include "bench_common.hh"
#include "engines/single_machine.hh"

namespace
{

using namespace khuzdul;

/** Best single-thread reference runtime (McSherry's COST). */
double
referenceSingleThreadNs(const Graph &g, const bench::App &app)
{
    double best = 0;
    bool have = false;
    engines::SingleMachineConfig config;
    config.cores = 1;
    for (const auto style : {engines::SingleMachineStyle::AutomineIH,
                             engines::SingleMachineStyle::PeregrineLike,
                             engines::SingleMachineStyle::PangolinLike}) {
        engines::SingleMachineEngine engine(g, style, config);
        double total = 0;
        PlanOptions options;
        options.induced = app.induced;
        for (const Pattern &p : app.patterns)
            total += engine.count(p, options).runtimeNs;
        if (!have || total < best) {
            best = total;
            have = true;
        }
    }
    return best;
}

} // namespace

int
main()
{
    bench::banner("Figure 14: intra-node scalability and COST",
                  "Fig 14 (k-Automine, 1 node, cores 5-16 with 4 "
                  "reserved for communication; graph lj)");

    const auto &dataset = datasets::byName("lj");
    const std::vector<unsigned> core_counts = {5, 6, 8, 12, 16};

    bench::TablePrinter table(
        {"App", "5c", "6c", "8c", "12c", "16c", "speedup",
         "ref 1-thread", "COST"},
        {5, 9, 9, 9, 9, 9, 8, 12, 5});
    table.printHeader();

    for (const std::string app_name : {"TC", "3-MC", "4-CC"}) {
        const bench::App app = bench::appByName(app_name);
        std::vector<std::string> row = {app_name};
        const double reference =
            referenceSingleThreadNs(dataset.graph, app);
        double first = 0;
        double last = 0;
        unsigned cost_metric = 0;
        for (const unsigned cores : core_counts) {
            auto config = bench::standInEngineConfig(1);
            // One socket carrying all cores; 4 reserved for comm.
            config.graph.cluster.socketsPerNode = 1;
            config.graph.cluster.coresPerSocket = cores;
            config.graph.cluster.commCoresPerNode = 4;
            auto system = engines::KhuzdulSystem::kAutomine(
                dataset.graph, config);
            const auto cell = bench::runOnKhuzdul(*system, app);
            row.push_back(bench::fmtTime(cell.makespanNs));
            if (cores == core_counts.front())
                first = cell.makespanNs;
            last = cell.makespanNs;
            if (cost_metric == 0 && cell.makespanNs < reference)
                cost_metric = cores;
        }
        row.push_back(formatRatio(first / last * 1.0
                                  * (core_counts.front() - 4)));
        row.push_back(bench::fmtTime(reference));
        row.push_back(cost_metric == 0 ? ">16"
                                       : std::to_string(cost_metric));
        table.printRow(row);
    }
    table.printRule();
    std::printf("\nExpected shape: ~linear scaling in compute cores "
                "(paper: 10.7-11.6x at 16 cores) and COST around "
                "6-8 cores.\n");
    return 0;
}
