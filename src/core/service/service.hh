/**
 * @file
 * QueryService: the multi-query serving layer (DESIGN.md §10).
 *
 * One service wraps one GraphContext and schedules any number of
 * submitted queries onto a single shared ThreadPool:
 *
 *   - admission control: at most maxInFlight queries execute at
 *     once; submissions beyond the bound queue FIFO and are
 *     admitted strictly in submission order;
 *   - unit-level first come, first served: every admitted query is
 *     a per-query Engine session whose unit tasks run on the shared
 *     pool, which claims the oldest query's unclaimed units before a
 *     newer query's;
 *   - cross-query sharing: sessions probe the context's residency
 *     directory, so the "host" block of each query's stats reports
 *     how many of its remote fetches a long-lived deployment would
 *     have served from lists some earlier (or co-running) query
 *     already pulled in.
 *
 * Determinism contract (extends DESIGN.md §8): each query's modeled
 * results — its count, stats.toJson(false), its fabric ledger and
 * trace tallies — are bit-identical whether the query runs alone or
 * inside any workload mix, at any pool width, under any admission
 * order.  That holds because every modeled charge is sequenced by
 * the session's own deterministic ledgers (DataCaches, Fabric,
 * NodeStats, unit trace tallies); the only cross-query state is
 * host-side observability that no modeled path reads.
 */

#ifndef KHUZDUL_CORE_SERVICE_SERVICE_HH
#define KHUZDUL_CORE_SERVICE_SERVICE_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/context.hh"
#include "core/engine.hh"
#include "core/parallel/cancel.hh"
#include "core/parallel/thread_pool.hh"
#include "pattern/plan.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "support/check.hh"

namespace khuzdul
{
namespace core
{

/**
 * Thrown by QueryService::result() for a result whose payload the
 * service already released (see QueryService::kReleaseReadAfter).
 */
class ResultReleased : public FatalError
{
  public:
    using FatalError::FatalError;
};

/** QueryService tunables. */
struct ServiceOptions
{
    /** Queries executing concurrently; submissions beyond the
     *  bound wait FIFO (>= 1). */
    unsigned maxInFlight = 4;

    /** Workers of the shared unit pool (0 = all hardware
     *  threads), capped at maxInFlight times the context's units.
     *  Host-side only: modeled results are identical at every
     *  width. */
    unsigned hostThreads = 0;
};

/** Everything one finished query left behind. */
struct QueryResult
{
    /** Submission id (also the index into results()). */
    std::size_t id = 0;

    /** Embedding count (0 when failed). */
    Count count = 0;

    /** The session's cumulative stats, host block included. */
    sim::RunStats stats;

    /** stats.toJson(false): the purely modeled dump — the surface
     *  the determinism contract is stated (and tested) over. */
    std::string modeledJson;

    /** Per-event tallies of the session's trace stream. */
    std::vector<std::uint64_t> traceCounts;

    /** Order the query was admitted in (FIFO => equals id). */
    std::size_t admissionIndex = 0;

    /** Set when the session threw (e.g. an injected fault
     *  exhausted its retry budget, a modeled deadline elapsed, or
     *  the query was cancelled); error holds the message — typed
     *  failures keep their sim::DeadlineExceeded / QueryCancelled
     *  wording, and an exhausted retry budget is reported as
     *  "retry budget exhausted after N attempts: <last error>".
     *  A session the engine rejects (e.g. chunkBytes == 0 or an
     *  out-of-range fault id) fails without running: it is never
     *  retried, its stats stay empty and the context absorbs
     *  nothing. */
    bool failed = false;
    std::string error;

    /** Whole-query retries spent (<= SessionConfig::maxQueryRetries;
     *  the surviving stats carry their modeled backoff). */
    unsigned retries = 0;
};

/**
 * A long-lived multi-query scheduler over one GraphContext.
 * Thread-safe: submit()/wait() may be called from any thread.  A
 * result() call may release a payload another thread still reads
 * (see kReleaseReadAfter), so such clients copy results first.
 */
class QueryService
{
  public:
    QueryService(GraphContext &context,
                 const ServiceOptions &options = {});

    /** Drains in-flight queries, then joins the dispatchers. */
    ~QueryService();

    QueryService(const QueryService &) = delete;
    QueryService &operator=(const QueryService &) = delete;

    GraphContext &context() { return *context_; }
    const ServiceOptions &options() const { return options_; }

    /**
     * Enqueue a query; returns its id.  The plan is copied.  An
     * optional @p sink observes the session's trace stream (it must
     * outlive completion; concurrent queries get distinct sessions,
     * so distinct sinks never interleave).
     */
    std::size_t submit(const ExtendPlan &plan,
                       const SessionConfig &session = {},
                       sim::TraceSink *sink = nullptr);

    /** Block until every submitted query has completed. */
    void wait();

    /**
     * A result's payload (stats, modeledJson, traceCounts) is
     * released once result() has returned it and this many later
     * queries have completed.  The release runs inside a later
     * result() call on the caller's thread, never on a worker, so a
     * client that reads results from one thread never has a payload
     * emptied under it while it reads.  Results nobody has read are
     * kept.
     */
    static constexpr std::size_t kReleaseReadAfter = 256;

    /**
     * Result of query @p id (wait() first, or poll finished()).  The
     * reference stays valid across later submit() calls, but its
     * payload empties in the first result() call made once
     * kReleaseReadAfter later queries have completed: copy what you
     * need before then.  Asking again for a released id throws
     * ResultReleased.
     */
    const QueryResult &result(std::size_t id);

    /** All results so far, indexed by id (wait() first for a full
     *  workload view).  Entries result() released have an empty
     *  payload; the rest are whole. */
    const std::deque<QueryResult> &results() const
    {
        return results_;
    }

    std::size_t submitted() const;
    std::size_t completed() const;
    bool finished(std::size_t id) const;

    /** Most queries observed executing at once (<= maxInFlight;
     *  admission-control observability). */
    unsigned peakInFlight() const;

    /**
     * Request cooperative cancellation of query @p id: a still-
     * pending query fails at its first chunk boundary, a running
     * one at its next, both with a typed sim::QueryCancelled error
     * in the result.  No-op on completed queries; cancelled queries
     * are never retried.
     */
    void cancel(std::size_t id);

  private:
    struct PendingQuery
    {
        std::size_t id = 0;
        ExtendPlan plan;
        SessionConfig session;
        sim::TraceSink *sink = nullptr;
        std::shared_ptr<CancelToken> cancelToken;
    };

    /** Lifecycle of one submitted query's result. */
    enum class ResultState : std::uint8_t
    {
        Running,  ///< pending or executing
        Done,     ///< completed, never returned by result()
        Read,     ///< returned by result(); release scheduled
        Released, ///< payload dropped
    };

    /** A read result and completedCount_ at its first read. */
    struct ReadMark
    {
        std::size_t id;
        std::size_t completedAtRead;
    };

    void dispatcherLoop();
    void runOne(PendingQuery &&query, std::size_t admission_index);
    /** Drop the payloads whose release window has passed (locked;
     *  called from result() only, on the client's thread). */
    void releaseExpired();

    GraphContext *context_;
    ServiceOptions options_;
    ThreadPool pool_;

    mutable std::mutex mutex_;
    std::condition_variable workAvailable_; ///< dispatchers wait
    std::condition_variable queryDone_;     ///< wait() waits
    std::deque<PendingQuery> pending_;      ///< FIFO beyond the bound
    /** A deque so submit()'s emplace_back never moves a result a
     *  caller still holds by reference. */
    std::deque<QueryResult> results_;
    std::vector<ResultState> states_;
    /** Read results awaiting release, oldest read first. */
    std::deque<ReadMark> reads_;
    std::vector<std::shared_ptr<CancelToken>> cancelTokens_;
    std::size_t submittedCount_ = 0;
    std::size_t completedCount_ = 0;
    std::size_t admittedCount_ = 0;
    unsigned inFlight_ = 0;
    unsigned peakInFlight_ = 0;
    /** Dispatchers waiting for a pending query. */
    std::size_t idleDispatchers_ = 0;
    bool stopping_ = false;

    /** Dispatcher threads, started by submit() on demand (at most
     *  maxInFlight): each admits the FIFO head, runs it as a
     *  session on the shared pool, repeats. */
    std::vector<std::thread> dispatchers_;
};

} // namespace core
} // namespace khuzdul

#endif // KHUZDUL_CORE_SERVICE_SERVICE_HH
