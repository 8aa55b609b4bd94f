#include "graph/graph.hh"

#include <algorithm>

namespace khuzdul
{

Graph::Graph(std::vector<EdgeId> offsets, std::vector<VertexId> adjacency,
             std::vector<Label> labels)
    : offsets_(std::move(offsets)), adjacency_(std::move(adjacency))
{
    KHUZDUL_REQUIRE(!offsets_.empty(), "CSR offsets must have >= 1 entry");
    KHUZDUL_REQUIRE(offsets_.front() == 0, "CSR offsets must start at 0");
    KHUZDUL_REQUIRE(offsets_.back() == adjacency_.size(),
                    "CSR offsets must end at the adjacency size");
    const VertexId n = numVertices();
    for (VertexId v = 0; v < n; ++v) {
        KHUZDUL_REQUIRE(offsets_[v] <= offsets_[v + 1],
                        "CSR offsets must be non-decreasing");
        maxDegree_ = std::max(maxDegree_, degree(v));
    }
    if (!labels.empty())
        setLabels(std::move(labels));
}

bool
Graph::hasEdge(VertexId u, VertexId v) const
{
    const auto list = neighbors(u);
    return std::binary_search(list.begin(), list.end(), v);
}

void
Graph::buildHubBitmaps(EdgeId degree_threshold,
                       std::uint64_t max_bytes) const
{
    if (hubBitmapsBuilt_ && hubThreshold_ == degree_threshold
        && hubMaxBytes_ == max_bytes)
        return;
    const VertexId n = numVertices();
    hubWords_.clear();
    hubRanks_.clear();
    hubSlots_.assign(n, kNoHubSlot);
    hubWordsPerRow_ = (static_cast<std::size_t>(n) + 63) / 64;
    hubCount_ = 0;
    hubThreshold_ = degree_threshold;
    hubMaxBytes_ = max_bytes;
    hubBitmapsBuilt_ = true;

    const std::uint64_t row_bytes =
        hubWordsPerRow_ * sizeof(std::uint64_t);
    if (n == 0 || degree_threshold == 0 || row_bytes == 0
        || row_bytes > max_bytes)
        return;

    // Hottest-first admission under the byte cap: degree descending,
    // vertex id ascending on ties — deterministic, so the dispatch
    // decisions downstream are too.
    std::vector<VertexId> hubs;
    for (VertexId v = 0; v < n; ++v)
        if (degree(v) >= degree_threshold)
            hubs.push_back(v);
    std::sort(hubs.begin(), hubs.end(),
              [this](VertexId a, VertexId b) {
                  const EdgeId da = degree(a);
                  const EdgeId db = degree(b);
                  return da != db ? da > db : a < b;
              });
    const std::size_t cap = static_cast<std::size_t>(max_bytes / row_bytes);
    if (hubs.size() > cap)
        hubs.resize(cap);

    hubWords_.assign(hubs.size() * hubWordsPerRow_, 0);
    hubRanks_.resize(hubs.size() * hubWordsPerRow_);
    for (std::size_t slot = 0; slot < hubs.size(); ++slot) {
        const VertexId v = hubs[slot];
        std::uint64_t *row = hubWords_.data() + slot * hubWordsPerRow_;
        std::uint32_t *ranks = hubRanks_.data() + slot * hubWordsPerRow_;
        // One walk of the sorted list: every word up to u's that is
        // still unset has exactly the neighbors seen so far below it.
        std::size_t word = 0;
        std::uint32_t seen = 0;
        for (const VertexId u : neighbors(v)) {
            row[u >> 6] |= std::uint64_t{1} << (u & 63);
            for (; word <= (u >> 6); ++word)
                ranks[word] = seen;
            ++seen;
        }
        for (; word < hubWordsPerRow_; ++word)
            ranks[word] = seen;
        hubSlots_[v] = static_cast<std::uint32_t>(slot);
    }
    hubCount_ = hubs.size();
}

void
Graph::setLabels(std::vector<Label> labels)
{
    KHUZDUL_REQUIRE(labels.size() == numVertices(),
                    "label vector size must match vertex count");
    labels_ = std::move(labels);
    numLabels_ = 0;
    for (const Label l : labels_)
        numLabels_ = std::max(numLabels_, l + 1);
}

} // namespace khuzdul
