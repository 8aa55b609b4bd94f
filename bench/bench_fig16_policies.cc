/**
 * @file
 * Regenerates Figure 16: cache replacement policies (FIFO / LIFO /
 * LRU / MRU / STATIC) compared on traffic and runtime, normalized
 * to STATIC (k-GraphPi).
 *
 * Expected shape (paper): replacement policies sometimes save a
 * little traffic (they adapt to temporal shifts) but lose about an
 * order of magnitude in runtime to bookkeeping and allocator
 * churn; STATIC wins everywhere on time.
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
    bench::banner("Figure 16: comparing cache replacement policies",
                  "Fig 16 (k-GraphPi, 8 nodes; normalized to STATIC)");

    const std::vector<core::CachePolicy> policies = {
        core::CachePolicy::Fifo, core::CachePolicy::Lifo,
        core::CachePolicy::Lru, core::CachePolicy::Mru,
        core::CachePolicy::Static,
    };

    bench::TablePrinter table(
        {"Workload", "Policy", "norm. traffic", "norm. runtime"},
        {9, 7, 13, 13});
    table.printHeader();

    const std::vector<std::pair<std::string, std::string>> workloads = {
        {"lj", "TC"},    {"lj", "3-MC"}, {"lj", "4-CC"},
        {"lj", "5-CC"},  {"fr", "TC"},   {"fr", "3-MC"},
        {"fr", "4-CC"},  {"fr", "5-CC"},
    };

    for (const auto &[graph_name, app_name] : workloads) {
        const auto &dataset = datasets::byName(graph_name);
        const bench::App app = bench::appByName(app_name);

        // STATIC baseline first.
        auto static_config = bench::cacheRegimeConfig(8);
        auto static_system = engines::KhuzdulSystem::kGraphPi(
            dataset.graph, static_config);
        const auto baseline = bench::runOnKhuzdul(*static_system, app);
        const double base_traffic =
            static_cast<double>(baseline.stats.totalBytesSent());
        const double base_time = baseline.makespanNs;

        for (const auto policy : policies) {
            if (policy == core::CachePolicy::Static) {
                table.printRow({graph_name + "-" + app_name, "STATIC",
                                formatPercent(1.0),
                                formatPercent(1.0)});
                continue;
            }
            auto config = bench::cacheRegimeConfig(8);
            config.graph.cachePolicy = policy;
            auto system = engines::KhuzdulSystem::kGraphPi(
                dataset.graph, config);
            const auto cell = bench::runOnKhuzdul(*system, app);
            KHUZDUL_CHECK(cell.count == baseline.count,
                          "policy changed counts");
            table.printRow(
                {graph_name + "-" + app_name,
                 core::cachePolicyName(policy),
                 formatPercent(
                     static_cast<double>(cell.stats.totalBytesSent())
                     / base_traffic),
                 formatPercent(cell.makespanNs / base_time)});
        }
        table.printRule();
    }
    std::printf("\nExpected shape: replacement policies pay ~an order "
                "of magnitude in runtime for at best similar traffic "
                "(paper §7.6).\n");
    return 0;
}
