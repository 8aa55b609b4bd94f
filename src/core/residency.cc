#include "core/residency.hh"

namespace khuzdul
{
namespace core
{

SharedResidency::SharedResidency(const Graph &g, unsigned units,
                                 std::uint64_t capacity_bytes_per_unit,
                                 EdgeId degree_threshold)
    : graph_(&g), capacityBytes_(capacity_bytes_per_unit),
      degreeThreshold_(degree_threshold)
{
    units_.reserve(units);
    for (unsigned u = 0; u < units; ++u)
        units_.push_back(std::make_unique<UnitDirectory>());
}

bool
SharedResidency::noteFetch(unsigned unit, VertexId v)
{
    UnitDirectory &dir = *units_[unit];
    // khuzdul-lint: allow(thread-primitive) host-side directory update; modeled charging never reads the outcome
    std::lock_guard<std::mutex> lock(dir.mutex);
    ++dir.probes;
    if (dir.resident.count(v)) {
        ++dir.hits;
        return true;
    }
    // Static admission, mirroring DataCache's paper policy (§5.3):
    // hot lists only, first fetched first resident, never evicted.
    const std::uint64_t bytes = graph_->edgeListBytes(v);
    if (capacityBytes_ > 0 && graph_->degree(v) >= degreeThreshold_
        && dir.usedBytes + bytes <= capacityBytes_) {
        dir.resident.insert(v);
        dir.usedBytes += bytes;
    }
    return false;
}

std::uint64_t
SharedResidency::hits() const
{
    std::uint64_t total = 0;
    for (const auto &dir : units_) {
        // khuzdul-lint: allow(thread-primitive) host-side counter read under the unit lock
        std::lock_guard<std::mutex> lock(dir->mutex);
        total += dir->hits;
    }
    return total;
}

std::uint64_t
SharedResidency::probes() const
{
    std::uint64_t total = 0;
    for (const auto &dir : units_) {
        // khuzdul-lint: allow(thread-primitive) host-side counter read under the unit lock
        std::lock_guard<std::mutex> lock(dir->mutex);
        total += dir->probes;
    }
    return total;
}

void
SharedResidency::clear()
{
    for (auto &dir : units_) {
        // khuzdul-lint: allow(thread-primitive) host-side directory wipe under the unit lock
        std::lock_guard<std::mutex> lock(dir->mutex);
        dir->resident.clear();
        dir->usedBytes = 0;
        dir->hits = dir->probes = 0;
    }
}

} // namespace core
} // namespace khuzdul
