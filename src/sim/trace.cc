#include "sim/trace.hh"

#include <ostream>

#include "support/check.hh"

namespace khuzdul
{
namespace sim
{

const char *
phaseEventName(PhaseEvent event)
{
    switch (event) {
      case PhaseEvent::ChunkOpen:
        return "chunk_open";
      case PhaseEvent::ChunkClose:
        return "chunk_close";
      case PhaseEvent::FetchBatchIssued:
        return "fetch_batch_issued";
      case PhaseEvent::FetchBatchCompleted:
        return "fetch_batch_completed";
      case PhaseEvent::ExtendStart:
        return "extend_start";
      case PhaseEvent::ExtendEnd:
        return "extend_end";
      case PhaseEvent::CacheHit:
        return "cache_hit";
      case PhaseEvent::CacheMiss:
        return "cache_miss";
      case PhaseEvent::KernelDispatch:
        return "kernel_dispatch";
      case PhaseEvent::FaultInjected:
        return "fault_injected";
      case PhaseEvent::FetchRetry:
        return "retry";
      case PhaseEvent::FetchRecovered:
        return "recovered";
      case PhaseEvent::ChunkReplayed:
        return "chunk_replayed";
      case PhaseEvent::StealIssued:
        return "steal_issued";
      case PhaseEvent::StealCompleted:
        return "steal_completed";
      case PhaseEvent::Checkpoint:
        return "checkpoint";
      case PhaseEvent::UnitCrashed:
        return "unit_crashed";
      case PhaseEvent::ChunkAdopted:
        return "chunk_adopted";
      case PhaseEvent::QueryRetried:
        return "query_retried";
    }
    KHUZDUL_PANIC("unreachable phase event");
}

TraceSink &
nullTraceSink()
{
    static NullTraceSink sink;
    return sink;
}

std::uint64_t
CountingTraceSink::total() const
{
    std::uint64_t total = 0;
    for (const std::uint64_t c : counts_)
        total += c;
    return total;
}

void
CountingTraceSink::add(const CountingTraceSink &other)
{
    for (std::size_t e = 0; e < kNumPhaseEvents; ++e) {
        counts_[e] += other.counts_[e];
        values_[e] += other.values_[e];
    }
}

void
CountingTraceSink::reset()
{
    counts_.fill(0);
    values_.fill(0);
}

void
JsonLinesTraceSink::emit(const TraceRecord &record)
{
    *out_ << "{\"event\":\"" << phaseEventName(record.event)
          << "\",\"unit\":" << record.unit
          << ",\"level\":" << record.level
          << ",\"value\":" << record.value
          << ",\"aux\":" << record.aux << "}\n";
}

} // namespace sim
} // namespace khuzdul
