/**
 * @file
 * Phase-event tracing for the layered runtime.  The chunk explorer
 * and the circulant scheduler report phase transitions — chunk
 * open/close, fetch batch issued/completed, extend start/end, the
 * cache hit/miss tallies of each fetch phase — through one
 * TraceSink hook.  Tracing only observes: enabling or disabling a
 * sink never changes counts, stats, or modeled time.
 *
 * Three sinks ship with the engine: the no-op NullTraceSink (the
 * default), a CountingTraceSink whose per-event tallies cross-check
 * the RunStats counters, and a JsonLinesTraceSink that streams one
 * JSON object per event for offline analysis (CLI `--trace`).
 */

#ifndef KHUZDUL_SIM_TRACE_HH
#define KHUZDUL_SIM_TRACE_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace khuzdul
{
namespace sim
{

/** Runtime phase transitions a TraceSink can observe. */
enum class PhaseEvent : std::uint8_t
{
    ChunkOpen,           ///< a filled chunk enters processing
    ChunkClose,          ///< the chunk's level is fully processed
    FetchBatchIssued,    ///< one per-owner batch handed to the fabric
    FetchBatchCompleted, ///< the batch's modeled transfer finished
    ExtendStart,         ///< extension sweep over a chunk begins
    ExtendEnd,           ///< extension sweep over a chunk ends
    CacheHit,            ///< cache probes served (per fetch phase)
    CacheMiss,           ///< cache probes missed (per fetch phase)
    KernelDispatch,      ///< set-kernel executions (per-chunk delta)
    FaultInjected,       ///< a transfer attempt hit an injected fault
    FetchRetry,          ///< failed batch re-attempted after backoff
    FetchRecovered,      ///< batch eventually served after >=1 fault
    ChunkReplayed,       ///< chunk re-enqueued after retry exhaustion
    StealIssued,         ///< idle unit requested a peer's pending chunk
    StealCompleted,      ///< stolen chunk's columns arrived at the thief
    Checkpoint,          ///< unit snapshotted state at a level barrier
    UnitCrashed,         ///< execution unit died (injected crash fault)
    ChunkAdopted,        ///< survivor adopted a dead unit's chunk
    QueryRetried,        ///< failed query re-admitted by the service
};

inline constexpr std::size_t kNumPhaseEvents = 19;

/** Stable lowercase name (used by the JSON sink and tests). */
const char *phaseEventName(PhaseEvent event);

/** One phase transition.  The payload fields are event-specific:
 *  bytes/lists for fetch batches, embedding counts for chunk and
 *  extend events, for CacheHit/CacheMiss the number of cache probes
 *  with that outcome over one fetch phase (value; one event per
 *  phase, only when non-zero, aux = 0), and for
 *  KernelDispatch the total set-operation delta (value) over the
 *  chunk just closed, all kernel kinds combined (aux = 0).  Steal
 *  events report from the thief's unit: StealIssued carries the
 *  column bytes requested (value) and the victim unit (aux),
 *  StealCompleted the stolen embedding count (value) and the victim
 *  unit (aux).  The
 *  total is kernel-mode- and host-invariant — the sequence of set
 *  operations never depends on which kernel ran them — so trace
 *  tallies stay bit-identical across --kernel modes and SIMD-on/off
 *  builds; the per-kind split is host-only detail
 *  (NodeStats::kernelCalls). */
struct TraceRecord
{
    PhaseEvent event;
    unsigned unit = 0;        ///< reporting execution unit
    int level = 0;            ///< chunk level (tree depth)
    std::uint64_t value = 0;  ///< primary payload
    std::uint64_t aux = 0;    ///< secondary payload
};

/** Phase-event hook.  Implementations must not mutate engine
 *  state; they are observation only. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    virtual void emit(const TraceRecord &record) = 0;
};

/** Discards every event (the engine default). */
class NullTraceSink final : public TraceSink
{
  public:
    void emit(const TraceRecord &) override {}
};

/** Process-wide shared no-op sink. */
TraceSink &nullTraceSink();

/**
 * Tallies events per type.  The engine keeps one internally so
 * RunStats-level counters (chunks processed, cache hits/misses) can
 * be cross-checked against the event stream.
 */
class CountingTraceSink final : public TraceSink
{
  public:
    void
    emit(const TraceRecord &record) override
    {
        ++counts_[static_cast<std::size_t>(record.event)];
        values_[static_cast<std::size_t>(record.event)] += record.value;
    }

    std::uint64_t
    count(PhaseEvent event) const
    {
        return counts_[static_cast<std::size_t>(event)];
    }

    /** Sum of the primary payload over all events of @p event. */
    std::uint64_t
    valueSum(PhaseEvent event) const
    {
        return values_[static_cast<std::size_t>(event)];
    }

    std::uint64_t total() const;

    /** Add @p other's tallies (how per-unit counts are merged). */
    void add(const CountingTraceSink &other);

    void reset();

  private:
    std::array<std::uint64_t, kNumPhaseEvents> counts_{};
    std::array<std::uint64_t, kNumPhaseEvents> values_{};
};

/**
 * Buffers events in arrival order for a deferred, ordered replay.
 * While a user sink is installed the engine gives every execution
 * unit one of these so units can trace from concurrent host threads
 * without interleaving; after the barrier the buffers are flushed
 * into the user sink in unit order, reproducing the sequential
 * event stream byte for byte.
 */
class BufferingTraceSink final : public TraceSink
{
  public:
    void
    emit(const TraceRecord &record) override
    {
        records_.push_back(record);
    }

    /** Buffered events not yet flushed. */
    std::size_t size() const { return records_.size(); }

    bool empty() const { return records_.empty(); }

    void clear() { records_.clear(); }

    /** Replay every buffered event into @p sink, then clear. */
    void
    flushTo(TraceSink &sink)
    {
        for (const TraceRecord &record : records_)
            sink.emit(record);
        records_.clear();
    }

  private:
    std::vector<TraceRecord> records_;
};

/** Streams one JSON object per event (JSON-lines). */
class JsonLinesTraceSink final : public TraceSink
{
  public:
    /** @param out stream to append to (must outlive the sink). */
    explicit JsonLinesTraceSink(std::ostream &out) : out_(&out) {}

    void emit(const TraceRecord &record) override;

  private:
    std::ostream *out_;
};

/**
 * Fans one event stream out to a fixed primary sink plus an
 * optional, swappable secondary (how the engine chains its internal
 * counters with a user-installed sink).
 */
class TeeTraceSink final : public TraceSink
{
  public:
    explicit TeeTraceSink(TraceSink &primary) : primary_(&primary) {}

    /** Install/replace/remove (nullptr) the secondary sink. */
    void secondary(TraceSink *sink) { secondary_ = sink; }

    /** The installed secondary sink (nullptr when none). */
    TraceSink *secondary() const { return secondary_; }

    void
    emit(const TraceRecord &record) override
    {
        primary_->emit(record);
        if (secondary_)
            secondary_->emit(record);
    }

  private:
    TraceSink *primary_;
    TraceSink *secondary_ = nullptr;
};

} // namespace sim
} // namespace khuzdul

#endif // KHUZDUL_SIM_TRACE_HH
