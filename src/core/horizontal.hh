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

#include <bit>
#include <cstdint>
#include <vector>

#include "support/check.hh"
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
    /** @param num_slots table size, a power of two up to 2^32 (a
     *  slot is the hash's low bits); the engine's per-chunk tables
     *  use the default. */
    explicit HorizontalTable(std::size_t num_slots = 1 << 15)
        : slots_(num_slots, kInvalidVertex), mask_(num_slots - 1)
    {
        KHUZDUL_REQUIRE(std::has_single_bit(num_slots)
                            && num_slots <= std::size_t{1} << 32,
                        "horizontal table size must be a power of "
                        "two up to 2^32, got " << num_slots);
    }

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
        const std::size_t slot = mix64(v) & mask_;
        if (slots_[slot] == v)
            return Probe::Hit;
        if (slots_[slot] == kInvalidVertex) {
            slots_[slot] = v;
            claimed_.push_back(static_cast<std::uint32_t>(slot));
            return Probe::Claimed;
        }
        return Probe::Dropped;
    }

    /** Forget everything (called when a chunk is released): resets
     *  only the slots claimed since the last clear. */
    void
    clear()
    {
        for (const std::uint32_t slot : claimed_)
            slots_[slot] = kInvalidVertex;
        claimed_.clear();
    }

  private:
    std::vector<VertexId> slots_;
    std::uint64_t mask_;
    /** Slots claimed since the last clear(), in claim order. */
    std::vector<std::uint32_t> claimed_;
};

} // namespace core
} // namespace khuzdul

#endif // KHUZDUL_CORE_HORIZONTAL_HH
