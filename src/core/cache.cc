#include "core/cache.hh"

#include "support/check.hh"

namespace khuzdul
{
namespace core
{

std::string
cachePolicyName(CachePolicy policy)
{
    switch (policy) {
      case CachePolicy::None:
        return "NONE";
      case CachePolicy::Static:
        return "STATIC";
      case CachePolicy::Fifo:
        return "FIFO";
      case CachePolicy::Lifo:
        return "LIFO";
      case CachePolicy::Lru:
        return "LRU";
      case CachePolicy::Mru:
        return "MRU";
    }
    KHUZDUL_PANIC("unreachable cache policy");
}

DataCache::DataCache(const Graph &g, CachePolicy policy,
                     std::uint64_t capacity_bytes, EdgeId degree_threshold)
    : graph_(&g), policy_(policy), capacityBytes_(capacity_bytes),
      degreeThreshold_(degree_threshold)
{
    if (capacityBytes_ == 0)
        policy_ = CachePolicy::None;
    if (policy_ != CachePolicy::None)
        resident_.assign((std::size_t{g.numVertices()} + 63) / 64, 0);
}

bool
DataCache::lookup(VertexId v)
{
    if (policy_ == CachePolicy::None || !resident(v)) {
        ++misses_;
        return false;
    }
    ++hits_;
    if (tracksRecency()) {
        // Recency update: move to the back (most recent).
        order_.splice(order_.end(), order_, entries_.find(v)->second);
    }
    return true;
}

bool
DataCache::insert(VertexId v)
{
    if (policy_ == CachePolicy::None || resident(v))
        return false;
    const std::uint64_t bytes = graph_->edgeListBytes(v);
    if (bytes > capacityBytes_)
        return false;

    if (policy_ == CachePolicy::Static) {
        // §5.3: admit hot vertices only, and once the cache fills it
        // is frozen forever — no eviction, no further bookkeeping.
        if (fullForever_ || graph_->degree(v) < degreeThreshold_)
            return false;
        if (usedBytes_ + bytes > capacityBytes_) {
            fullForever_ = true;
            return false;
        }
    } else {
        while (usedBytes_ + bytes > capacityBytes_)
            evictOne();
    }

    if (policy_ != CachePolicy::Static) {
        order_.push_back(v);
        if (tracksRecency())
            entries_.emplace(v, std::prev(order_.end()));
    }
    setResident(v, true);
    usedBytes_ += bytes;
    ++insertions_;
    return true;
}

void
DataCache::evictOne()
{
    KHUZDUL_CHECK(!order_.empty(), "evicting from an empty cache");
    // order_ is maintained in insertion order (FIFO/LIFO) or
    // recency order with back = most recent (LRU/MRU).
    VertexId victim;
    if (policy_ == CachePolicy::Fifo || policy_ == CachePolicy::Lru) {
        victim = order_.front();
        order_.pop_front();
    } else {
        victim = order_.back();
        order_.pop_back();
    }
    if (tracksRecency())
        entries_.erase(victim);
    setResident(victim, false);
    usedBytes_ -= graph_->edgeListBytes(victim);
    ++evictions_;
}

} // namespace core
} // namespace khuzdul
