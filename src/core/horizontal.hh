/**
 * @file
 * Horizontal data sharing (§5.2): a per-level, collision-dropping
 * hash table that deduplicates remote edge-list fetches among the
 * extendable embeddings of one chunk.  No collision chains are
 * built — when two hot vertices hash to the same slot the later one
 * is simply fetched redundantly, trading a little traffic for a
 * much cheaper table.
 */

#ifndef KHUZDUL_CORE_HORIZONTAL_HH
#define KHUZDUL_CORE_HORIZONTAL_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "support/rng.hh"
#include "support/types.hh"

namespace khuzdul
{
namespace core
{

/** Chunk-scoped fetch-dedup table. */
class HorizontalTable
{
  public:
    /** @param num_slots table size (power of two recommended); the
     *  engine's per-chunk tables use the default. */
    explicit HorizontalTable(std::size_t num_slots = 1 << 15)
        : slots_(num_slots, kInvalidVertex)
    {}

    /** Outcome of offering a vertex to the table. */
    enum class Probe
    {
        Hit,      ///< same vertex already present: share the fetch
        Claimed,  ///< slot was empty: caller fetches, others share
        Dropped,  ///< slot taken by a different vertex: fetch anyway
    };

    /** Probe/claim the slot for @p v (one hash, no chains). */
    Probe
    offer(VertexId v)
    {
        const std::size_t slot = mix64(v) % slots_.size();
        if (slots_[slot] == v)
            return Probe::Hit;
        if (slots_[slot] == kInvalidVertex) {
            slots_[slot] = v;
            return Probe::Claimed;
        }
        return Probe::Dropped;
    }

    /** Forget everything (called when a chunk is released). */
    void
    clear()
    {
        std::fill(slots_.begin(), slots_.end(), kInvalidVertex);
    }

  private:
    std::vector<VertexId> slots_;
};

} // namespace core
} // namespace khuzdul

#endif // KHUZDUL_CORE_HORIZONTAL_HH
