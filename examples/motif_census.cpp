/**
 * @file
 * Motif census of a social-network-like graph — the classic network
 * analysis workload the paper's introduction motivates (attack
 * detection, biology, software architecture all profile networks by
 * their motif spectra).
 *
 * Counts the induced embeddings of every connected 3- and 4-vertex
 * pattern.  Since PR 6 the census runs through the QueryService:
 * every motif is its own query session sharing one resident
 * GraphContext, so patterns mine concurrently (instead of
 * back-to-back) and later motifs observe the remote lists earlier
 * ones already pulled in (the cross-query shared-cache counters
 * printed at the end).
 */

#include <cstdio>

#include "apps/gpm_apps.hh"
#include "core/service/service.hh"
#include "engines/khuzdul_system.hh"
#include "graph/generators.hh"
#include "support/format.hh"

int
main()
{
    using namespace khuzdul;

    // A skewed "social network": heavy-tailed, clustered enough to
    // have interesting motif structure.
    const Graph graph = gen::rmat(8'000, 70'000, 0.57, 0.19, 0.19,
                                  /*seed=*/7);

    core::EngineConfig config;
    config.graph.cluster = sim::ClusterConfig::paperDefault(4);

    // One resident graph, one service; every motif is a session.
    core::GraphContext context(graph, config.graph);
    core::ServiceOptions options;
    options.maxInFlight = 4;
    core::QueryService service(context, options);

    double modeled_ns = 0;
    for (const int k : {3, 4}) {
        const auto census = apps::motifCount(
            service, engines::CompilerStyle::Automine, k);
        Count total = 0;
        for (const auto &motif : census)
            total += motif.count;
        std::printf("\n=== size-%d motif census (%zu motifs, %s "
                    "induced embeddings) ===\n",
                    k, census.size(), formatCount(total).c_str());
        for (const auto &motif : census) {
            const double share = total == 0 ? 0.0
                : static_cast<double>(motif.count)
                    / static_cast<double>(total);
            std::printf("  %-28s %16s  (%s)\n",
                        motif.pattern.toString().c_str(),
                        formatCount(motif.count).c_str(),
                        formatPercent(share).c_str());
        }
    }

    // Per-query modeled time is deterministic; the census's modeled
    // cluster time is the sum over queries (they model independent
    // runs of the cluster).
    for (const auto &query : service.results())
        modeled_ns += query.stats.makespanNs();

    std::printf("\nmodeled cluster time (all motifs): %s\n",
                formatTime(static_cast<std::uint64_t>(modeled_ns))
                    .c_str());
    std::printf("cross-query shared-cache hits: %s of %s probes\n",
                formatCount(context.crossQueryHits()).c_str(),
                formatCount(context.crossQueryProbes()).c_str());
    return 0;
}
