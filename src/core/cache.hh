/**
 * @file
 * Software graph-data caches.  The engine's default is the paper's
 * static no-replacement cache (§5.3): first-accessed-first-cached
 * with a degree threshold, never evicting — near-zero bookkeeping.
 * The replacement policies of the Fig 16 ablation (FIFO / LIFO /
 * LRU / MRU) are implemented too; they track recency/insertion
 * order and are charged their (much larger) maintenance costs by
 * the engine.
 */

#ifndef KHUZDUL_CORE_CACHE_HH
#define KHUZDUL_CORE_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/graph.hh"
#include "support/types.hh"

namespace khuzdul
{
namespace core
{

/** Cache management policy (Fig 16). */
enum class CachePolicy
{
    None,   ///< caching disabled (Table 6 "no cache")
    Static, ///< no replacement (the paper's design, §5.3)
    Fifo,
    Lifo,
    Lru,
    Mru,
};

/** Parse/print policy names for bench tables. */
std::string cachePolicyName(CachePolicy policy);

/**
 * Tracks which remote edge lists are notionally resident on one
 * execution unit.  Data reads stay zero-copy against the shared
 * graph; the cache only decides whether a fetch produces network
 * traffic.  Counters for hits/misses/insertions are maintained
 * here; time costs are charged by the engine via the cost model.
 */
class DataCache
{
  public:
    /**
     * @param g graph (for per-vertex sizes).
     * @param policy management policy.
     * @param capacity_bytes byte budget (0 disables).
     * @param degree_threshold Static policy only: minimum degree to
     *        admit (the paper's hot-vertex filter, default 64).
     */
    DataCache(const Graph &g, CachePolicy policy,
              std::uint64_t capacity_bytes, EdgeId degree_threshold);

    CachePolicy policy() const { return policy_; }

    /**
     * Whether N(v) is cached.  Replacement policies also update
     * their recency metadata (that is what makes them expensive).
     */
    bool lookup(VertexId v);

    /**
     * Offer a just-fetched list for admission.
     * @return true when the list was inserted.
     */
    bool insert(VertexId v);

    std::uint64_t usedBytes() const { return usedBytes_; }
    bool fullForever() const { return fullForever_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t insertions() const { return insertions_; }
    std::uint64_t evictions() const { return evictions_; }

    void
    resetCounters()
    {
        hits_ = misses_ = insertions_ = evictions_ = 0;
    }

    /** Drop all cached lists AND counters, returning the cache to
     *  its just-constructed (cold) state.  `resetCounters` keeps
     *  contents warm; this is the full cold restart behind
     *  `Engine::clearCaches()`. */
    void
    clear()
    {
        std::fill(resident_.begin(), resident_.end(), 0);
        entries_.clear();
        order_.clear();
        usedBytes_ = 0;
        fullForever_ = false;
        resetCounters();
    }

  private:
    void evictOne();

    bool
    resident(VertexId v) const
    {
        return (resident_[v / 64] >> (v % 64)) & 1u;
    }

    void
    setResident(VertexId v, bool on)
    {
        const std::uint64_t bit = std::uint64_t{1} << (v % 64);
        if (on)
            resident_[v / 64] |= bit;
        else
            resident_[v / 64] &= ~bit;
    }

    /** Recency splices happen only under LRU and MRU. */
    bool
    tracksRecency() const
    {
        return policy_ == CachePolicy::Lru
            || policy_ == CachePolicy::Mru;
    }

    const Graph *graph_;
    CachePolicy policy_;
    std::uint64_t capacityBytes_;
    EdgeId degreeThreshold_;

    /** One residency bit per vertex (empty under None): the
     *  membership test of every policy. */
    std::vector<std::uint64_t> resident_;
    /** Cached vertex -> position in order_, kept only for the LRU/MRU
     *  recency splice.  Never iterated: eviction order comes from
     *  order_, so hash layout cannot leak into modeled results. */
    // khuzdul-lint: allow(unordered-iter) lookup-only (find/emplace/erase); eviction order lives in order_
    std::unordered_map<VertexId, std::list<VertexId>::iterator> entries_;
    /** Eviction order of the replacement policies (front = next
     *  victim candidate end depends on policy); empty under Static,
     *  which never evicts. */
    std::list<VertexId> order_;

    std::uint64_t usedBytes_ = 0;
    bool fullForever_ = false;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t insertions_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace core
} // namespace khuzdul

#endif // KHUZDUL_CORE_CACHE_HH
