#include "core/steal/steal.hh"

#include <algorithm>

#include "sim/cost_model.hh"
#include "support/check.hh"

namespace khuzdul
{
namespace core
{

std::vector<StealDecision>
StealPlanner::plan(std::vector<std::vector<ChunkRecord>> pending,
                   std::vector<double> finish) const
{
    KHUZDUL_CHECK(pending.size() == finish.size(),
                  "steal planner: ledger/finish size mismatch");
    const unsigned units = static_cast<unsigned>(pending.size());
    std::vector<StealDecision> decisions;
    if (units < 2)
        return decisions;

    const unsigned units_per_node =
        fabric_->partition().socketsPerNode();
    const double handshake = sim::cost::stealHandshakeNs;

    // Remaining donatable backlog per unit: the modeled time of the
    // chunks still in its ledger.  Stolen chunks never re-enter a
    // backlog, so every iteration either shrinks a ledger or
    // deactivates a victim and the loop terminates.
    std::vector<double> backlog(units, 0);
    std::vector<char> active(units, 1);
    for (unsigned u = 0; u < units; ++u)
        for (const ChunkRecord &rec : pending[u])
            backlog[u] += rec.computeNs + rec.exposedNs;

    for (;;) {
        // Victim: richest remaining backlog above the threshold
        // (ties: lowest unit index).
        unsigned victim = units;
        for (unsigned u = 0; u < units; ++u) {
            if (!active[u] || pending[u].empty()
                || backlog[u] <= thresholdNs_)
                continue;
            if (victim == units || backlog[u] > backlog[victim])
                victim = u;
        }
        if (victim == units)
            break;

        // Thief: earliest finish (ties: lowest unit index).
        unsigned thief = units;
        for (unsigned u = 0; u < units; ++u) {
            if (u == victim)
                continue;
            if (thief == units || finish[u] < finish[thief])
                thief = u;
        }

        // Candidate: scan the victim's ledger from the tail for the
        // deepest chunk that satisfies both accept conditions — the
        // tail chunks of a level are small residuals, and one
        // unprofitable crumb must not shield the fat backlog behind
        // it.  The scan order is part of the deterministic contract.
        const NodeId thief_node = thief / units_per_node;
        const NodeId victim_node = victim / units_per_node;
        std::vector<ChunkRecord> &ledger = pending[victim];
        bool accepted = false;
        for (std::size_t i = ledger.size(); i-- > 0;) {
            const ChunkRecord rec = ledger[i];
            const double transfer = fabric_->modeledTransferNs(
                thief_node, victim_node, rec.columnBytes, 1);
            const double thief_cost = handshake + transfer
                + rec.computeNs + rec.baseExposedNs;
            const double shed = rec.computeNs + rec.exposedNs;

            // (1) the thief must beat the victim's old finish; (2)
            // the victim must come out ahead of its own handshake.
            // Both hold => the cluster makespan never increases.
            if (finish[thief] + thief_cost >= finish[victim]
                || shed <= handshake)
                continue;

            ledger.erase(ledger.begin()
                         + static_cast<std::ptrdiff_t>(i));
            backlog[victim] -= shed;
            finish[thief] += thief_cost;
            finish[victim] += handshake - shed;
            decisions.push_back({thief, victim, rec, transfer});
            accepted = true;
            break;
        }
        // No chunk fits even the earliest-finishing thief: this
        // victim is done donating.
        if (!accepted)
            active[victim] = 0;
    }
    return decisions;
}

} // namespace core
} // namespace khuzdul
