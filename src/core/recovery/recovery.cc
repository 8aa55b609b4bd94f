#include "core/recovery/recovery.hh"

#include <algorithm>

#include "sim/cost_model.hh"
#include "sim/faults.hh"
#include "support/check.hh"

namespace khuzdul
{
namespace core
{

std::vector<AdoptionDecision>
RecoveryPlanner::plan(const std::vector<CrashReport> &crashes,
                      std::vector<double> finish) const
{
    std::vector<AdoptionDecision> decisions;
    if (crashes.empty())
        return decisions;

    const unsigned units = static_cast<unsigned>(finish.size());
    std::vector<char> crashed(units, 0);
    for (const CrashReport &report : crashes) {
        KHUZDUL_CHECK(report.unit < units,
                      "recovery planner: crash unit out of range");
        crashed[report.unit] = 1;
    }

    unsigned survivors = 0;
    for (unsigned u = 0; u < units; ++u)
        survivors += crashed[u] ? 0u : 1u;
    if (survivors == 0)
        throw sim::FabricFault(
            "crash plan leaves no surviving execution unit to adopt "
            "orphaned chunks");

    const unsigned units_per_node =
        fabric_->partition().socketsPerNode();
    const double handshake = sim::cost::adoptionHandshakeNs;

    // Reports arrive from the merge pass in ascending unit order
    // already; keep a sorted view so the planning order is part of
    // the deterministic contract even if a caller reorders them.
    std::vector<const CrashReport *> ordered;
    ordered.reserve(crashes.size());
    for (const CrashReport &report : crashes)
        ordered.push_back(&report);
    std::sort(ordered.begin(), ordered.end(),
              [](const CrashReport *a, const CrashReport *b) {
                  return a->unit < b->unit;
              });

    for (const CrashReport *report : ordered) {
        const NodeId victim_node = report->unit / units_per_node;
        const auto adopt = [&](const ChunkRecord &rec,
                               bool replayed) {
            // Adopter: earliest running finish among survivors
            // (ties: lowest unit index).  Unlike stealing there is
            // no accept condition — orphans have no owner left, so
            // somebody must run them.
            unsigned adopter = units;
            for (unsigned u = 0; u < units; ++u) {
                if (crashed[u])
                    continue;
                if (adopter == units || finish[u] < finish[adopter])
                    adopter = u;
            }
            const NodeId adopter_node = adopter / units_per_node;
            const double transfer = fabric_->modeledTransferNs(
                adopter_node, victim_node, rec.columnBytes, 1);
            finish[adopter] += handshake + transfer + rec.computeNs
                + rec.baseExposedNs;
            decisions.push_back(
                {adopter, report->unit, replayed, rec, transfer});
        };
        for (const ChunkRecord &rec : report->lost)
            adopt(rec, true);
        for (const ChunkRecord &rec : report->orphans)
            adopt(rec, false);
    }
    return decisions;
}

} // namespace core
} // namespace khuzdul
