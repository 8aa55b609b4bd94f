#include "core/service/service.hh"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "support/check.hh"

namespace khuzdul
{
namespace core
{

namespace
{

/** Empty @p value and free its buffers (clear() or assigning {}
 *  keeps a string's or vector's capacity). */
template <typename T>
void
freeStorage(T &value)
{
    T empty;
    std::swap(value, empty);
}

/** Workers of the shared pool: the configured count, capped at the
 *  unit tasks that maxInFlight sessions can have runnable at once
 *  (a worker beyond that never finds a task). */
unsigned
poolWorkers(const GraphContext &context, const ServiceOptions &options)
{
    KHUZDUL_REQUIRE(options.maxInFlight >= 1,
                    "service needs maxInFlight >= 1");
    const std::uint64_t runnable = std::uint64_t{options.maxInFlight}
        * context.partition().numUnits();
    return static_cast<unsigned>(std::min<std::uint64_t>(
        ThreadPool::resolveThreadCount(options.hostThreads), runnable));
}

} // namespace

QueryService::QueryService(GraphContext &context,
                           const ServiceOptions &options)
    : context_(&context), options_(options),
      pool_(poolWorkers(context, options))
{}

QueryService::~QueryService()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workAvailable_.notify_all();
    for (std::thread &t : dispatchers_)
        t.join();
}

std::size_t
QueryService::submit(const ExtendPlan &plan,
                     const SessionConfig &session,
                     sim::TraceSink *sink)
{
    std::size_t id;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        KHUZDUL_CHECK(!stopping_,
                      "submit on a destructing QueryService");
        id = submittedCount_++;
        results_.emplace_back();
        results_.back().id = id;
        states_.push_back(ResultState::Running);
        cancelTokens_.push_back(std::make_shared<CancelToken>());
        pending_.push_back(PendingQuery{id, plan, session, sink,
                                        cancelTokens_.back()});
        // Start a dispatcher only when no idle one is left for this
        // query: a bound far above the real concurrency costs no
        // idle threads.
        if (pending_.size() > idleDispatchers_
            && dispatchers_.size() < options_.maxInFlight)
            dispatchers_.emplace_back([this] { dispatcherLoop(); });
    }
    workAvailable_.notify_one();
    return id;
}

void
QueryService::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    queryDone_.wait(lock, [this] {
        return completedCount_ == submittedCount_;
    });
}

const QueryResult &
QueryService::result(std::size_t id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    KHUZDUL_REQUIRE(id < results_.size(), "unknown query id");
    KHUZDUL_CHECK(states_[id] != ResultState::Running,
                  "query still in flight; wait() first");
    releaseExpired();
    if (states_[id] == ResultState::Released)
        throw ResultReleased(
            "result of query " + std::to_string(id)
            + " was released: a result is kept for "
            + std::to_string(kReleaseReadAfter)
            + " completions after its first read");
    if (states_[id] == ResultState::Done) {
        states_[id] = ResultState::Read;
        reads_.push_back({id, completedCount_});
    }
    return results_[id];
}

void
QueryService::releaseExpired()
{
    // completedCount_ only grows, so reads_ is ordered by deadline.
    while (!reads_.empty()
           && completedCount_ - reads_.front().completedAtRead
               >= kReleaseReadAfter) {
        QueryResult &done = results_[reads_.front().id];
        freeStorage(done.stats);
        freeStorage(done.modeledJson);
        freeStorage(done.traceCounts);
        states_[reads_.front().id] = ResultState::Released;
        reads_.pop_front();
    }
}

std::size_t
QueryService::submitted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return submittedCount_;
}

std::size_t
QueryService::completed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return completedCount_;
}

bool
QueryService::finished(std::size_t id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return id < states_.size() && states_[id] != ResultState::Running;
}

unsigned
QueryService::peakInFlight() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return peakInFlight_;
}

void
QueryService::cancel(std::size_t id)
{
    std::shared_ptr<CancelToken> token;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        KHUZDUL_REQUIRE(id < cancelTokens_.size(),
                        "unknown query id");
        token = cancelTokens_[id];
    }
    token->cancel();
}

void
QueryService::dispatcherLoop()
{
    while (true) {
        PendingQuery query;
        std::size_t admission_index;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            ++idleDispatchers_;
            workAvailable_.wait(lock, [this] {
                return stopping_ || !pending_.empty();
            });
            --idleDispatchers_;
            if (pending_.empty())
                return; // stopping and drained
            // FIFO admission: strictly the submission order.
            query = std::move(pending_.front());
            pending_.pop_front();
            admission_index = admittedCount_++;
            ++inFlight_;
            peakInFlight_ = std::max(peakInFlight_, inFlight_);
        }
        runOne(std::move(query), admission_index);
    }
}

void
QueryService::runOne(PendingQuery &&query,
                     std::size_t admission_index)
{
    QueryResult result;
    result.id = query.id;
    result.admissionIndex = admission_index;
    // Bounded whole-query retry (DESIGN.md §9): a failed session is
    // discarded and re-run as a fresh engine that carries the whole
    // modeled retry history — one exponential backoff charge per
    // prior failed attempt — so the surviving stats tell the full
    // story.  Cancellations are a user decision and never retried;
    // only the final attempt's ledger reaches the context.
    const unsigned max_retries = query.session.maxQueryRetries;
    unsigned attempt = 0;
    for (;;) {
        // A session the engine rejects ran nothing: it would fail
        // the same way on every attempt, and has no ledger to fold.
        std::optional<Engine> built;
        try {
            built.emplace(*context_, query.session);
        } catch (const std::exception &e) {
            result.failed = true;
            result.error = e.what();
            break;
        }
        Engine &engine = *built;
        engine.setHostPool(&pool_);
        engine.setCancelToken(query.cancelToken.get());
        if (query.sink)
            engine.setTraceSink(query.sink);
        for (unsigned k = 1; k <= attempt; ++k)
            engine.chargeQueryRetry(k);
        bool retry = false;
        try {
            result.count = engine.run(query.plan);
            result.failed = false;
            result.error.clear();
        } catch (const sim::QueryCancelled &e) {
            result.failed = true;
            result.error = e.what();
        } catch (const std::exception &e) {
            result.failed = true;
            if (attempt < max_retries) {
                retry = true;
            } else if (max_retries > 0) {
                result.error = "retry budget exhausted after "
                    + std::to_string(attempt + 1)
                    + " attempts: " + e.what();
            } else {
                result.error = e.what();
            }
        }
        if (retry) {
            ++attempt;
            continue;
        }
        result.retries = attempt;
        result.stats = engine.stats();
        result.modeledJson = engine.stats().toJson(false);
        result.traceCounts.clear();
        result.traceCounts.reserve(sim::kNumPhaseEvents);
        for (std::size_t e = 0; e < sim::kNumPhaseEvents; ++e)
            result.traceCounts.push_back(engine.traceCounts().count(
                static_cast<sim::PhaseEvent>(e)));
        // Fold the query's attributed ledger into the context's
        // cumulative one (order-independent sums).
        context_->absorbTraffic(engine.fabric());
        break;
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        results_[query.id] = std::move(result);
        states_[query.id] = ResultState::Done;
        ++completedCount_;
        --inFlight_;
    }
    queryDone_.notify_all();
}

} // namespace core
} // namespace khuzdul
