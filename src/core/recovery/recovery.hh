/**
 * @file
 * Deterministic execution-unit crash recovery (DESIGN.md §9).
 *
 * A `crash:UNIT:level=L[:chunk=K]` fault kills one execution unit
 * the moment it opens its K-th chunk of level L — a trigger read
 * purely from the unit's own modeled chunk ordinals, so the crash
 * point is bit-identical at every host thread count.  Units
 * checkpoint at level-0 barriers (the natural consistent cut of the
 * level-synchronous circulant schedule: the DFS stack is drained and
 * the partial counts are a pure prefix); each snapshot is charged
 * `sim::cost::checkpointNs`.
 *
 * After the PR-3 ordered merge the engine hands the RecoveryPlanner
 * one CrashReport per dead unit: the unit's frozen time categories
 * plus two chunk ledgers — `lost` work the unit had done since its
 * last checkpoint (burned with the unit, must be replayed) and
 * `orphans` it would have processed after the crash point (shed to
 * survivors).  The planner mirrors the PR-8 StealPlanner's pricing
 * path — adoption handshake + fabric-priced column transfer + the
 * chunk's fault-free compute/exposed prices — but adoption is
 * mandatory: orphans have no owner to fall back to, so there is no
 * accept condition, only a deterministic assignment (survivor with
 * the earliest running finish, ties to the lowest unit index).
 *
 * Like the steal planner this type only *decides*; the engine
 * commits each decision by charging the adopter's NodeStats slot,
 * pricing the transfer through the fabric ledger and emitting
 * UnitCrashed/ChunkAdopted trace events in decision order.
 */

#ifndef KHUZDUL_CORE_RECOVERY_RECOVERY_HH
#define KHUZDUL_CORE_RECOVERY_RECOVERY_HH

#include <cstdint>
#include <vector>

#include "core/steal/steal.hh"
#include "sim/fabric.hh"
#include "support/types.hh"

namespace khuzdul
{
namespace core
{

/**
 * Everything the merge pass knows about one crashed unit: where it
 * died, its NodeStats time categories frozen at the crash instant
 * (cumulative values — the engine restores the slot to exactly
 * these), and the two chunk ledgers the survivors must absorb.
 */
struct CrashReport
{
    unsigned unit = 0;          ///< the dead execution unit
    int level = 0;              ///< level of the fatal chunk
    std::uint64_t chunkOrdinal = 0; ///< 1-based ordinal within level

    /** @name Time categories frozen at the crash instant */
    /// @{
    double computeNs = 0;
    double commExposedNs = 0;
    double commTotalNs = 0;
    double schedulerNs = 0;
    double cacheNs = 0;
    /// @}

    /** Chunks the unit closed after its last checkpoint but before
     *  the crash: that work burned with the unit and an adopter
     *  replays it from the checkpointed columns. */
    std::vector<ChunkRecord> lost;

    /** Chunks the unit would have processed after the crash point:
     *  never executed by the dead unit, shed to adopters. */
    std::vector<ChunkRecord> orphans;
};

/** One mandatory adoption, in planning order. */
struct AdoptionDecision
{
    unsigned adopter = 0;
    unsigned victim = 0;  ///< the crashed unit
    bool replayed = false; ///< chunk came from the `lost` ledger
    ChunkRecord chunk;
    /** Clean fabric price of shipping the columns adopter<-victim
     *  (from the victim node's checkpoint store). */
    double transferNs = 0;
};

/**
 * Deterministic orphan-chunk adoption planner.  Pure function of
 * merged modeled state: crash reports (processed in ascending unit
 * order, `lost` before `orphans`, each in processing order),
 * per-unit finish times, and the fabric's timing oracle.  Every
 * chunk is assigned to the survivor with the earliest running
 * finish (ties: lowest unit index) at

 *   finish[adopter] += adoptionHandshakeNs + transfer
 *                    + chunk.computeNs + chunk.baseExposedNs
 *
 * — fault-free prices, because the adopter re-runs the chunk against
 * a healthy fetch path from the checkpointed columns.
 */
class RecoveryPlanner
{
  public:
    explicit RecoveryPlanner(const sim::Fabric &fabric)
        : fabric_(&fabric)
    {}

    /**
     * Plan adoptions for @p crashes over the surviving units.
     * @p finish is each unit's NodeStats::totalNs() after the merge
     * (crashed units' entries are ignored).  Throws sim::FabricFault
     * if every unit crashed — then nothing can adopt and the query
     * has genuinely failed.  Pure: mutates no engine state.
     */
    std::vector<AdoptionDecision>
    plan(const std::vector<CrashReport> &crashes,
         std::vector<double> finish) const;

  private:
    const sim::Fabric *fabric_;
};

} // namespace core
} // namespace khuzdul

#endif // KHUZDUL_CORE_RECOVERY_RECOVERY_HH
