/**
 * @file
 * Deterministic inter-unit work stealing (DESIGN.md §11).
 *
 * During a run every execution unit keeps a per-chunk ledger of the
 * modeled time its circulant pipelines charged (core/circulant).
 * After the barrier — once the per-unit stats and traffic tallies
 * have been merged in unit order — the StealPlanner replays a donation protocol over
 * those ledgers: while some unit's remaining backlog exceeds a
 * threshold and the least-loaded unit would finish a tail chunk
 * earlier than its owner (including the steal handshake and the
 * fabric transfer of the chunk's embedding columns), the chunk
 * migrates.  The planner is a pure function of merged modeled state
 * — ledger contents, finish times, the cost model and the fabric's
 * timing oracle — so stolen schedules are bit-identical at every
 * host thread count and under every fault plan, exactly like the
 * rest of the modeled machine.
 *
 * The planner only *decides*; the engine commits each decision by
 * moving the chunk's modeled time between NodeStats slots, pricing
 * the column transfer through the fabric ledger and emitting
 * StealIssued/StealCompleted trace events in decision order.
 */

#ifndef KHUZDUL_CORE_STEAL_STEAL_HH
#define KHUZDUL_CORE_STEAL_STEAL_HH

#include <cstdint>
#include <vector>

#include "sim/fabric.hh"
#include "support/types.hh"

namespace khuzdul
{
namespace core
{

/**
 * One processed chunk's entry in a unit's donation ledger: the
 * modeled time its pipeline fold charged, plus the fault-free
 * ("base") prices a healthy thief would pay re-fetching the same
 * lists, and the wire size of the embedding columns a migration
 * ships.
 */
struct ChunkRecord
{
    unsigned unit = 0;          ///< owning execution unit
    int level = 0;              ///< chunk level (tree depth)
    std::uint32_t embeddings = 0; ///< entries in the chunk
    std::uint64_t columnBytes = 0; ///< wire size of the columns

    /** @name As charged to the owner (includes fault surcharges) */
    /// @{
    double computeNs = 0;
    double commNs = 0;
    double exposedNs = 0;
    /// @}

    /** @name Fault-free prices (CirculantScheduler::basePipeline) */
    /// @{
    double baseCommNs = 0;
    double baseExposedNs = 0;
    /// @}
};

/**
 * Wire size of one chunk's embedding columns at @p level: the
 * flattened prefix path (level+1 vertices per embedding, PR-7
 * column layout makes the copy flat) plus one per-entry
 * parent/flag word.
 */
inline std::uint64_t
columnWireBytes(std::uint32_t embeddings, int level)
{
    const std::uint64_t per_entry =
        static_cast<std::uint64_t>(level + 1) * sizeof(VertexId)
        + sizeof(std::uint32_t);
    return embeddings * per_entry;
}

/** One accepted migration, in planning order. */
struct StealDecision
{
    unsigned thief = 0;
    unsigned victim = 0;
    ChunkRecord chunk;
    /** Clean fabric price of shipping the columns thief<-victim. */
    double transferNs = 0;
};

/**
 * Richest-backlog-first greedy donation planner.
 *
 * Inputs are merged modeled state only: per-unit chunk ledgers (in
 * unit order), per-unit finish times (NodeStats::totalNs()), and
 * the fabric's pure timing oracle.  Victims are picked by largest
 * remaining backlog (ties: lowest unit index), thieves by earliest
 * finish (ties: lowest unit index); the candidate is the deepest
 * ledger chunk — scanning from the tail — that is accepted by
 *
 *   finish[thief] + handshake + transfer
 *                 + chunk.computeNs + chunk.baseExposedNs
 *       < finish[victim]                                   (1)
 *   chunk.computeNs + chunk.exposedNs > handshake          (2)
 *
 * (1) bounds the thief's new finish by the victim's old one and (2)
 * bounds the victim's new finish (it sheds the chunk but pays the
 * handshake), so the cluster makespan never increases — stealing
 * can only help, which is what lets the engine enable it on
 * unskewed runs without regressing them.  A victim none of whose
 * chunks fit even the earliest-finishing thief is deactivated, so
 * the loop terminates.
 */
class StealPlanner
{
  public:
    /** @param fabric timing oracle + unit/node geometry
     *  @param backlog_threshold_ns minimum remaining backlog before
     *         a unit is considered a victim */
    StealPlanner(const sim::Fabric &fabric,
                 double backlog_threshold_ns)
        : fabric_(&fabric), thresholdNs_(backlog_threshold_ns)
    {}

    /**
     * Plan migrations over the merged ledgers.  @p pending is
     * indexed by unit (each inner vector in processing order);
     * @p finish is each unit's NodeStats::totalNs().  Pure: mutates
     * neither the fabric nor any engine state.
     */
    std::vector<StealDecision>
    plan(std::vector<std::vector<ChunkRecord>> pending,
         std::vector<double> finish) const;

  private:
    const sim::Fabric *fabric_;
    double thresholdNs_;
};

} // namespace core
} // namespace khuzdul

#endif // KHUZDUL_CORE_STEAL_STEAL_HH
