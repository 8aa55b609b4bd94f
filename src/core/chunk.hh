/**
 * @file
 * Extendable-embedding chunks (§4.2): a fixed-budget arena holding
 * all extendable embeddings of one tree level.  Embeddings are
 * stored structure-of-arrays with parent indices into the previous
 * level (the hierarchical representation of Fig 8), so a chunk
 * releases all of its memory at once when the level backtracks —
 * the paper's answer to BFS fragmentation.
 *
 * The columns are level-wise frontier arrays in the style of
 * Pangolin's EmbeddingList: one flat vertex column and one parent
 * column per level (vertexColumn/parentColumn), plus an explicit
 * active-list index column (fetchList) recording, in insertion
 * order, exactly the embeddings whose edge list must be resolved
 * before extension.  The fetch phase walks that column as one
 * contiguous run instead of re-testing a per-embedding flag, and
 * children of one parent are contiguous in the child chunk, which
 * is what lets the extender reuse the recovered parent prefix
 * across sibling runs and feed the SIMD kernels contiguous spans.
 */

#ifndef KHUZDUL_CORE_CHUNK_HH
#define KHUZDUL_CORE_CHUNK_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "support/check.hh"
#include "support/types.hh"

namespace khuzdul
{
namespace core
{

/** Parent index of root-level embeddings. */
inline constexpr std::uint32_t kNoParent = 0xffffffffu;

/**
 * One level's worth of extendable embeddings.
 *
 * The modeled byte budget covers the embedding records, stored
 * intermediate results (vertical computation sharing) and fetched
 * remote edge lists; full() gates further insertion, bounding the
 * per-level footprint like the paper's fixed chunk memory.
 */
class Chunk
{
  public:
    /** Modeled bytes per embedding record (id + parent + refs). */
    static constexpr std::uint64_t kEntryBytes = 24;

    explicit Chunk(std::uint64_t capacity_bytes)
        : capacityBytes_(capacity_bytes)
    {}

    /** Number of embeddings currently stored. */
    std::uint32_t
    size() const
    {
        return static_cast<std::uint32_t>(vertices_.size());
    }

    bool empty() const { return vertices_.empty(); }

    /** Whether the modeled budget is exhausted. */
    bool full() const { return modeledBytes_ >= capacityBytes_; }

    std::uint64_t modeledBytes() const { return modeledBytes_; }

    /**
     * Append an embedding extending @p parent with @p vertex.
     * @param needs_fetch whether its edge list must be made
     *        available before this embedding can be extended.
     * @return index of the new embedding.
     */
    std::uint32_t
    add(VertexId vertex, std::uint32_t parent, bool needs_fetch)
    {
        if (vertices_.empty()) {
            // The byte budget bounds the embedding count, so size
            // the per-embedding arrays for it up front: one
            // allocation per column per chunk lifetime instead of a
            // doubling cascade on every refill.
            const std::size_t entries = static_cast<std::size_t>(
                capacityBytes_ / kEntryBytes + 1);
            vertices_.reserve(entries);
            parents_.reserve(entries);
            fetchList_.reserve(entries);
            resultOffsets_.reserve(entries);
            resultLengths_.reserve(entries);
        }
        vertices_.push_back(vertex);
        parents_.push_back(parent);
        if (needs_fetch)
            fetchList_.push_back(size() - 1);
        resultOffsets_.push_back(0);
        resultLengths_.push_back(0);
        modeledBytes_ += kEntryBytes;
        return size() - 1;
    }

    VertexId vertex(std::uint32_t idx) const { return vertices_[idx]; }
    std::uint32_t parent(std::uint32_t idx) const { return parents_[idx]; }

    bool
    needsFetch(std::uint32_t idx) const
    {
        // O(log n) reverse lookup kept for tests/assertions; hot
        // paths walk fetchList() directly.
        return std::binary_search(fetchList_.begin(), fetchList_.end(),
                                  idx);
    }

    /** @name Level-wise frontier columns (Pangolin EmbeddingList) */
    /// @{

    /** Flat vertex column of this level. */
    std::span<const VertexId> vertexColumn() const { return vertices_; }

    /** Flat parent-index column into the previous level. */
    std::span<const std::uint32_t>
    parentColumn() const
    {
        return parents_;
    }

    /**
     * Active-list index column: the embeddings whose edge list must
     * be resolved before extension, in insertion order (ascending),
     * walked by the fetch phase as one contiguous run.
     */
    std::span<const std::uint32_t> fetchList() const { return fetchList_; }
    /// @}

    /**
     * Append a reusable intermediate result to the chunk arena (the
     * memory reserved by the third argument of the paper's
     * create_extendable_embedding()) and return its offset.  All
     * siblings of one extension share a single stored copy and
     * reference it via setResultRef().
     */
    std::uint32_t
    appendResult(std::span<const VertexId> result)
    {
        if (resultArena_.empty())
            // Stored results are budget-charged like embeddings, so
            // the budget also caps the arena's worst case.
            resultArena_.reserve(static_cast<std::size_t>(
                capacityBytes_ / sizeof(VertexId) + result.size()));
        const auto offset =
            static_cast<std::uint32_t>(resultArena_.size());
        resultArena_.insert(resultArena_.end(), result.begin(),
                            result.end());
        modeledBytes_ += result.size() * sizeof(VertexId);
        return offset;
    }

    /** Point embedding @p idx at a stored intermediate result. */
    void
    setResultRef(std::uint32_t idx, std::uint32_t offset,
                 std::uint32_t length)
    {
        resultOffsets_[idx] = offset;
        resultLengths_[idx] = length;
    }

    /** The stored intermediate result of @p idx (may be empty). */
    std::span<const VertexId>
    result(std::uint32_t idx) const
    {
        return {resultArena_.data() + resultOffsets_[idx],
                resultLengths_[idx]};
    }

    /** Charge @p bytes of fetched remote edge lists to the budget. */
    void addFetchedBytes(std::uint64_t bytes) { modeledBytes_ += bytes; }

    /**
     * Wholesale release (backtrack): every embedding of this level
     * is terminated together, honoring bottom-up deallocation.
     */
    void
    reset()
    {
        vertices_.clear();
        parents_.clear();
        fetchList_.clear();
        resultOffsets_.clear();
        resultLengths_.clear();
        resultArena_.clear();
        modeledBytes_ = 0;
    }

  private:
    std::uint64_t capacityBytes_;
    std::uint64_t modeledBytes_ = 0;
    std::vector<VertexId> vertices_;
    std::vector<std::uint32_t> parents_;
    std::vector<std::uint32_t> fetchList_;
    std::vector<std::uint32_t> resultOffsets_;
    std::vector<std::uint32_t> resultLengths_;
    std::vector<VertexId> resultArena_;
};

} // namespace core
} // namespace khuzdul

#endif // KHUZDUL_CORE_CHUNK_HH
