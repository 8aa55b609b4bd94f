/**
 * @file
 * Cross-query residency directory.  A GraphContext shares one of
 * these among every query session mining the same resident graph:
 * it remembers which remote edge lists have *already been fetched
 * by some query* on each execution unit, so concurrent queries can
 * observe how much fetch traffic a long-lived deployment would
 * amortize (the HUGE-style bounded-shared-buffer effect the service
 * layer exists to exploit).
 *
 * The directory is host-side observability ONLY.  Modeled charging
 * — cache probe time, fetch bytes, the per-query fabric ledger —
 * always runs against the session's own deterministic DataCache
 * ledger, never against this directory, so a query's modeled
 * results are bit-identical whether it runs alone or next to any
 * mix of co-runners.  Directory *contents* legitimately depend on
 * admission order across queries; nothing modeled ever reads them.
 */

#ifndef KHUZDUL_CORE_RESIDENCY_HH
#define KHUZDUL_CORE_RESIDENCY_HH

#include <cstdint>
#include <memory>
// khuzdul-lint: allow(thread-primitive) host-side cross-query directory; synchronizes observability state only, never modeled charging
#include <mutex>
#include <unordered_set>
#include <vector>

#include "graph/graph.hh"
#include "support/types.hh"

namespace khuzdul
{
namespace core
{

/**
 * Which remote edge lists are resident per execution unit, across
 * every query of a GraphContext.  Thread-safe: units of concurrent
 * query sessions probe and admit under a per-unit lock.
 */
class SharedResidency
{
  public:
    /**
     * @param g graph (for per-list byte sizes).
     * @param units execution units of the partition.
     * @param capacity_bytes_per_unit byte budget per unit, mirroring
     *        the session caches' geometry (0 disables admission, so
     *        every probe misses).
     * @param degree_threshold static-admission degree floor, same
     *        semantics as the paper's hot-vertex filter (§5.3).
     */
    SharedResidency(const Graph &g, unsigned units,
                    std::uint64_t capacity_bytes_per_unit,
                    EdgeId degree_threshold);

    /**
     * Note that some query is fetching N(@p v) remotely on
     * @p unit.  Returns true when the list was already resident —
     * a *cross-query* hit: a long-lived deployment would have
     * served this fetch from memory.  Otherwise admits the list
     * (static policy: first-fetched-first-resident under the byte
     * budget and degree threshold) and returns false.
     */
    bool noteFetch(unsigned unit, VertexId v);

    /** Cumulative cross-query hits over all units and queries. */
    std::uint64_t hits() const;

    /** Cumulative fetch probes over all units and queries. */
    std::uint64_t probes() const;

    /** Drop all residency state and counters (GraphContext::
     *  clearCaches). */
    void clear();

  private:
    struct UnitDirectory
    {
        // khuzdul-lint: allow(thread-primitive) guards one unit's host-side residency set across concurrent query sessions
        mutable std::mutex mutex;
        // khuzdul-lint: allow(unordered-iter) membership-only set (find/insert/clear); never iterated
        std::unordered_set<VertexId> resident;
        std::uint64_t usedBytes = 0;
        std::uint64_t hits = 0;
        std::uint64_t probes = 0;
    };

    const Graph *graph_;
    std::uint64_t capacityBytes_;
    EdgeId degreeThreshold_;
    std::vector<std::unique_ptr<UnitDirectory>> units_;
};

} // namespace core
} // namespace khuzdul

#endif // KHUZDUL_CORE_RESIDENCY_HH
