/**
 * @file
 * QueryService tests: admission control (bounded in-flight, FIFO
 * admission order), per-query results matching a solo engine run
 * bit-for-bit, cross-query shared-cache accounting, trace sink
 * wiring, result references that outlive later submits, the release
 * window of read results, the reset-vs-clear cache contract on
 * GraphContext, and query-level resilience (deadlines, retries,
 * cancellation, invalid sessions).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "core/engine.hh"
#include "core/service/service.hh"
#include "graph/generators.hh"
#include "pattern/planner.hh"
#include "sim/trace.hh"

namespace khuzdul
{
namespace
{

const Graph &
serviceGraph()
{
    static const Graph g = gen::rmat(300, 2200, 0.55, 0.2, 0.2, 77);
    return g;
}

core::GraphSetup
serviceSetup()
{
    core::GraphSetup setup;
    setup.cluster = sim::ClusterConfig::paperDefault(4);
    setup.cacheDegreeThreshold = 8;
    return setup;
}

std::vector<Pattern>
workloadPatterns()
{
    return {Pattern::triangle(), Pattern::clique(4),
            Pattern::cycleOf(4), Pattern::diamond()};
}

TEST(QueryService, CompletesEveryQueryWithFifoAdmission)
{
    core::GraphContext context(serviceGraph(), serviceSetup());
    core::ServiceOptions options;
    options.maxInFlight = 2;
    core::QueryService service(context, options);

    const auto patterns = workloadPatterns();
    std::vector<std::size_t> ids;
    for (int round = 0; round < 3; ++round)
        for (const Pattern &p : patterns)
            ids.push_back(service.submit(compileAutomine(p, {})));
    service.wait();

    EXPECT_EQ(service.submitted(), ids.size());
    EXPECT_EQ(service.completed(), ids.size());
    // Admission control: never more than the bound in flight.
    EXPECT_GE(service.peakInFlight(), 1u);
    EXPECT_LE(service.peakInFlight(), options.maxInFlight);
    for (const std::size_t id : ids) {
        EXPECT_TRUE(service.finished(id));
        const core::QueryResult &query = service.result(id);
        EXPECT_FALSE(query.failed) << query.error;
        // FIFO: queries are admitted strictly in submission order.
        EXPECT_EQ(query.admissionIndex, query.id);
    }
}

TEST(QueryService, ResultsMatchSoloEngineBitForBit)
{
    core::GraphContext context(serviceGraph(), serviceSetup());
    core::QueryService service(context);

    const auto patterns = workloadPatterns();
    for (const Pattern &p : patterns)
        service.submit(compileAutomine(p, {}));
    service.wait();

    for (std::size_t id = 0; id < patterns.size(); ++id) {
        // The solo reference: a fresh session over its own context
        // with the same graph-half and session-half configuration.
        core::GraphContext solo_context(serviceGraph(),
                                        serviceSetup());
        core::Engine solo(solo_context);
        const Count expected =
            solo.run(compileAutomine(patterns[id], {}));

        const core::QueryResult &query = service.result(id);
        EXPECT_EQ(query.count, expected)
            << patterns[id].toString();
        EXPECT_EQ(query.modeledJson, solo.stats().toJson(false))
            << patterns[id].toString();
        ASSERT_EQ(query.traceCounts.size(), sim::kNumPhaseEvents);
        for (std::size_t e = 0; e < sim::kNumPhaseEvents; ++e)
            EXPECT_EQ(query.traceCounts[e],
                      solo.traceCounts().count(
                          static_cast<sim::PhaseEvent>(e)))
                << patterns[id].toString() << " "
                << sim::phaseEventName(
                       static_cast<sim::PhaseEvent>(e));
    }
}

TEST(QueryService, SharedCacheAccountingAccumulates)
{
    core::GraphContext context(serviceGraph(), serviceSetup());
    core::ServiceOptions options;
    // Serial admission makes the hit pattern easy to reason about:
    // the second identical query probes lists the first pulled in.
    options.maxInFlight = 1;
    core::QueryService service(context, options);

    const auto plan = compileAutomine(Pattern::clique(4), {});
    service.submit(plan);
    service.submit(plan);
    service.wait();

    const auto &first = service.result(0);
    const auto &second = service.result(1);
    // Modeled results are identical — sharing is host-side only.
    EXPECT_EQ(first.count, second.count);
    EXPECT_EQ(first.modeledJson, second.modeledJson);

    // The directory was probed, and the re-run query hit it.
    EXPECT_GT(context.crossQueryProbes(), 0u);
    EXPECT_GT(second.stats.sharedCacheHits, 0u);
    EXPECT_GE(second.stats.sharedCacheHits,
              first.stats.sharedCacheHits);
    // Per-query tallies partition the directory-wide counters.
    EXPECT_EQ(first.stats.sharedCacheProbes
                  + second.stats.sharedCacheProbes,
              context.crossQueryProbes());
    EXPECT_EQ(first.stats.sharedCacheHits
                  + second.stats.sharedCacheHits,
              context.crossQueryHits());

    // clearCaches() empties the directory for a cold restart.
    context.clearCaches();
    EXPECT_EQ(context.crossQueryProbes(), 0u);
    EXPECT_EQ(context.crossQueryHits(), 0u);
    EXPECT_EQ(context.sharedTotalBytes(), 0u);
}

TEST(QueryService, AbsorbsEveryQuerysFabricTraffic)
{
    core::GraphContext context(serviceGraph(), serviceSetup());
    core::QueryService service(context);
    for (const Pattern &p : workloadPatterns())
        service.submit(compileAutomine(p, {}));
    service.wait();

    // The context's ledger is the sum of every session's fabric;
    // solo runs of the same queries reproduce it exactly.
    std::uint64_t expected_bytes = 0;
    for (const Pattern &p : workloadPatterns()) {
        core::GraphContext solo_context(serviceGraph(),
                                        serviceSetup());
        core::Engine solo(solo_context);
        solo.run(compileAutomine(p, {}));
        expected_bytes += solo.fabric().totalBytes();
    }
    EXPECT_GT(expected_bytes, 0u);
    EXPECT_EQ(context.sharedTotalBytes(), expected_bytes);
}

TEST(QueryService, TraceSinkObservesTheQuerysStream)
{
    core::GraphContext context(serviceGraph(), serviceSetup());
    core::QueryService service(context);

    sim::CountingTraceSink sink;
    const auto plan = compileAutomine(Pattern::triangle(), {});
    const std::size_t id = service.submit(plan, {}, &sink);
    service.wait();

    const core::QueryResult &query = service.result(id);
    EXPECT_GT(sink.total(), 0u);
    for (std::size_t e = 0; e < sim::kNumPhaseEvents; ++e)
        EXPECT_EQ(sink.count(static_cast<sim::PhaseEvent>(e)),
                  query.traceCounts[e])
            << sim::phaseEventName(static_cast<sim::PhaseEvent>(e));
}

TEST(QueryService, ResultReferenceSurvivesLaterSubmits)
{
    core::GraphContext context(serviceGraph(), serviceSetup());
    core::QueryService service(context);
    const auto plan = compileAutomine(Pattern::triangle(), {});
    service.submit(plan);
    service.wait();

    const core::QueryResult &first = service.result(0);
    const Count count = first.count;
    const std::string modeled = first.modeledJson;
    for (int i = 0; i < 64; ++i)
        service.submit(plan);
    service.wait();
    EXPECT_EQ(&service.result(0), &first);
    EXPECT_EQ(first.id, 0u);
    EXPECT_EQ(first.count, count);
    EXPECT_EQ(first.modeledJson, modeled);
}

/** A one-node context small enough that the release tests can
 *  complete hundreds of queries quickly, also under sanitizers. */
core::GraphContext
releaseContext()
{
    static const Graph g = gen::rmat(64, 256, 0.55, 0.2, 0.2, 78);
    core::GraphSetup setup;
    setup.cluster = sim::ClusterConfig::paperDefault(1);
    return core::GraphContext(g, setup);
}

/** Submit @p n triangle queries and wait for all of them. */
void
completeTriangles(core::QueryService &service, std::size_t n)
{
    const auto plan = compileAutomine(Pattern::triangle(), {});
    for (std::size_t i = 0; i < n; ++i)
        service.submit(plan);
    service.wait();
}

TEST(QueryService, ReadResultIsReleasedAfterLaterCompletions)
{
    constexpr std::size_t kAfter = core::QueryService::kReleaseReadAfter;
    core::GraphContext context = releaseContext();
    core::QueryService service(context);
    completeTriangles(service, 1);

    const core::QueryResult &first = service.result(0);
    const Count count = first.count;
    ASSERT_FALSE(first.stats.nodes.empty());
    ASSERT_FALSE(first.modeledJson.empty());
    completeTriangles(service, kAfter - 1);
    service.result(kAfter - 1);
    EXPECT_FALSE(first.stats.nodes.empty());
    EXPECT_FALSE(first.modeledJson.empty());

    // The release waits for the next result() call.
    completeTriangles(service, 1);
    EXPECT_FALSE(first.modeledJson.empty());
    service.result(kAfter);
    EXPECT_TRUE(first.stats.nodes.empty());
    EXPECT_TRUE(first.modeledJson.empty());
    EXPECT_TRUE(first.traceCounts.empty());
    EXPECT_EQ(first.id, 0u);
    EXPECT_EQ(first.count, count);
    EXPECT_EQ(&service.results()[0], &first);
}

TEST(QueryService, HeldResultStaysWholeWhileLaterQueriesComplete)
{
    constexpr std::size_t kAfter = core::QueryService::kReleaseReadAfter;
    core::GraphContext context = releaseContext();
    core::ServiceOptions options;
    options.hostThreads = 2;
    core::QueryService service(context, options);
    completeTriangles(service, 1);
    const core::QueryResult &first = service.result(0);
    const std::string modeled = first.modeledJson;
    ASSERT_FALSE(modeled.empty());

    // Workers complete 2K later queries while this thread reads the
    // payload it holds; only its own next result() call may empty it.
    const auto plan = compileAutomine(Pattern::triangle(), {});
    for (std::size_t i = 0; i < 2 * kAfter; ++i)
        service.submit(plan);
    while (service.completed() < 1 + 2 * kAfter) {
        ASSERT_EQ(first.modeledJson, modeled);
        ASSERT_FALSE(first.stats.nodes.empty());
    }
    service.wait();
    EXPECT_EQ(first.modeledJson, modeled);
    EXPECT_FALSE(service.result(1).modeledJson.empty());
    EXPECT_TRUE(first.modeledJson.empty());
}

TEST(QueryService, UnreadResultSurvivesLaterCompletions)
{
    constexpr std::size_t kAfter = core::QueryService::kReleaseReadAfter;
    core::GraphContext context = releaseContext();
    core::QueryService service(context);
    completeTriangles(service, 1);
    const std::string modeled = service.results()[0].modeledJson;
    ASSERT_FALSE(modeled.empty());

    // Later results are read and released around the unread one.
    for (int round = 0; round < 2; ++round) {
        const std::size_t from = service.completed();
        completeTriangles(service, kAfter);
        for (std::size_t id = from; id < service.completed(); ++id)
            EXPECT_FALSE(service.result(id).modeledJson.empty());
    }
    EXPECT_TRUE(service.results()[1].modeledJson.empty());
    const core::QueryResult &first = service.result(0);
    EXPECT_EQ(first.modeledJson, modeled);
    EXPECT_FALSE(first.stats.nodes.empty());
    EXPECT_EQ(first.traceCounts.size(), sim::kNumPhaseEvents);
}

TEST(QueryService, ReadingAReleasedResultThrows)
{
    core::GraphContext context = releaseContext();
    core::QueryService service(context);
    completeTriangles(service, 1);
    service.result(0);
    completeTriangles(service, core::QueryService::kReleaseReadAfter);
    try {
        service.result(0);
        FAIL() << "expected ResultReleased";
    } catch (const core::ResultReleased &e) {
        EXPECT_NE(std::string(e.what()).find("released"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find(std::to_string(
                      core::QueryService::kReleaseReadAfter)),
                  std::string::npos)
            << e.what();
    }
    // Later results stay readable.
    EXPECT_FALSE(service.result(1).modeledJson.empty());
}

TEST(QueryService, DestructorDrainsPendingQueries)
{
    core::GraphContext context(serviceGraph(), serviceSetup());
    std::uint64_t absorbed = 0;
    {
        core::ServiceOptions options;
        options.maxInFlight = 1;
        core::QueryService service(context, options);
        for (int i = 0; i < 6; ++i)
            service.submit(compileAutomine(Pattern::triangle(), {}));
        // No wait(): destruction must run everything queued.
    }
    absorbed = context.sharedTotalBytes();
    EXPECT_GT(absorbed, 0u);
}

TEST(QueryService, PoolIsCappedAtRunnableUnitTasks)
{
    // One unit per session and two sessions in flight: no more than
    // two unit tasks are ever runnable, so a third worker would idle.
    core::GraphSetup setup;
    setup.cluster = sim::ClusterConfig::paperDefault(1);
    setup.cluster.socketsPerNode = 1;
    core::GraphContext context(serviceGraph(), setup);
    core::ServiceOptions options;
    options.maxInFlight = 2;
    options.hostThreads = 64;
    core::QueryService service(context, options);
    completeTriangles(service, 1);
    EXPECT_EQ(service.result(0).stats.hostThreads, 2u);

    options.maxInFlight = 0;
    EXPECT_THROW(core::QueryService(context, options), FatalError);
}

/** Threads of this process per /proc/self/status (0 if unread). */
unsigned
processThreads()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("Threads:", 0) == 0)
            return static_cast<unsigned>(std::stoul(line.substr(8)));
    return 0;
}

TEST(QueryService, DispatchersStartOnDemand)
{
    // A generous in-flight bound costs no idle threads: constructing
    // the service adds only the pool's one worker, and each submitted
    // query starts at most one dispatcher.
    core::GraphSetup setup;
    setup.cluster = sim::ClusterConfig::paperDefault(1);
    setup.cluster.socketsPerNode = 1;
    core::GraphContext context(serviceGraph(), setup);
    const unsigned before = processThreads();
    if (before == 0)
        GTEST_SKIP() << "/proc/self/status has no Threads: line";
    core::ServiceOptions options;
    options.maxInFlight = 64;
    options.hostThreads = 1;
    core::QueryService service(context, options);
    EXPECT_LE(processThreads(), before + 1);
    completeTriangles(service, 3);
    EXPECT_LE(processThreads(), before + 1 + 3);
    EXPECT_GE(service.peakInFlight(), 1u);
    for (std::size_t id = 0; id < 3; ++id)
        EXPECT_EQ(service.result(id).admissionIndex, id);
}

TEST(QueryService, PerQueryTunablesAreHonored)
{
    core::GraphContext context(serviceGraph(), serviceSetup());
    core::QueryService service(context);

    // Two sessions of the same plan with different chunk budgets
    // model different executions — the session half of the config
    // is genuinely per-query.
    core::SessionConfig coarse;
    coarse.chunkBytes = 1 << 20;
    core::SessionConfig fine;
    fine.chunkBytes = 2 << 10;
    const auto plan = compileAutomine(Pattern::clique(4), {});
    const std::size_t a = service.submit(plan, coarse);
    const std::size_t b = service.submit(plan, fine);
    service.wait();

    EXPECT_EQ(service.result(a).count, service.result(b).count);
    EXPECT_NE(service.result(a).modeledJson,
              service.result(b).modeledJson);
}

// ----------------------------------------------------------------
// Query-level resilience (DESIGN.md §9): deadlines, bounded retry,
// cooperative cancellation.
// ----------------------------------------------------------------

TEST(QueryResilience, DeadlineSurfacesAsTypedFailure)
{
    core::GraphContext context(serviceGraph(), serviceSetup());
    core::QueryService service(context);

    core::SessionConfig doomed;
    doomed.deadlineNs = 1.0; // below any real modeled run
    const auto plan = compileAutomine(Pattern::triangle(), {});
    const std::size_t id = service.submit(plan, doomed);
    service.wait();

    const core::QueryResult &query = service.result(id);
    EXPECT_TRUE(query.failed);
    EXPECT_NE(query.error.find("deadline"), std::string::npos)
        << query.error;
    EXPECT_EQ(query.retries, 0u);

    // A failed query must not poison the service: the next healthy
    // submission completes normally.
    const std::size_t ok = service.submit(plan);
    service.wait();
    EXPECT_FALSE(service.result(ok).failed);
    EXPECT_GT(service.result(ok).count, 0u);
}

TEST(QueryResilience, RetryBudgetIsSpentAndReported)
{
    core::GraphContext context(serviceGraph(), serviceSetup());
    core::QueryService service(context);

    // Deterministic failures fail every attempt identically, so a
    // retry budget of 2 means exactly 3 attempts then a typed
    // exhaustion error that preserves the last underlying message.
    core::SessionConfig doomed;
    doomed.deadlineNs = 1.0;
    doomed.maxQueryRetries = 2;
    const std::size_t id = service.submit(
        compileAutomine(Pattern::triangle(), {}), doomed);
    service.wait();

    const core::QueryResult &query = service.result(id);
    EXPECT_TRUE(query.failed);
    EXPECT_EQ(query.retries, 2u);
    EXPECT_NE(query.error.find(
                  "retry budget exhausted after 3 attempts"),
              std::string::npos)
        << query.error;
    EXPECT_NE(query.error.find("deadline"), std::string::npos)
        << query.error;
    // The surviving stats carry the full retry history: one
    // QueryRetried charge per prior failed attempt.
    EXPECT_EQ(query.stats.queryRetries, 2u);
    EXPECT_EQ(query.traceCounts[static_cast<std::size_t>(
                  sim::PhaseEvent::QueryRetried)],
              2u);
    EXPECT_NE(query.modeledJson.find("\"query_retries\": 2"),
              std::string::npos);
}

TEST(QueryResilience, SuccessfulRunIsIdenticalWithRetryBudget)
{
    // An unused retry budget must not perturb the modeled result:
    // the session only pays backoff for attempts that happened.
    core::GraphContext plain_context(serviceGraph(), serviceSetup());
    core::QueryService plain(plain_context);
    core::SessionConfig session;
    const auto plan = compileAutomine(Pattern::clique(4), {});
    const std::size_t a = plain.submit(plan, session);
    session.maxQueryRetries = 5;
    const std::size_t b = plain.submit(plan, session);
    plain.wait();

    EXPECT_FALSE(plain.result(a).failed);
    EXPECT_FALSE(plain.result(b).failed);
    EXPECT_EQ(plain.result(a).modeledJson, plain.result(b).modeledJson);
    EXPECT_EQ(plain.result(b).retries, 0u);
    EXPECT_EQ(plain.result(b).stats.queryRetries, 0u);
}

TEST(QueryResilience, CancelledQueryFailsTypedAndIsNeverRetried)
{
    core::GraphContext context(serviceGraph(), serviceSetup());
    core::ServiceOptions options;
    options.maxInFlight = 1;
    core::QueryService service(context, options);

    // Cancel before the dispatcher can pick the query up: the run
    // fails at its first chunk boundary.  A generous retry budget
    // must NOT be spent on it — cancellation is a user decision.
    core::SessionConfig session;
    session.maxQueryRetries = 3;
    const auto plan = compileAutomine(Pattern::clique(4), {});
    std::vector<std::size_t> ids;
    for (int i = 0; i < 4; ++i)
        ids.push_back(service.submit(plan, session));
    service.cancel(ids.back());
    service.wait();

    const core::QueryResult &cancelled = service.result(ids.back());
    EXPECT_TRUE(cancelled.failed);
    EXPECT_NE(cancelled.error.find("cancelled"), std::string::npos)
        << cancelled.error;
    EXPECT_EQ(cancelled.retries, 0u);
    EXPECT_EQ(cancelled.stats.queryRetries, 0u);
    // Queries ahead of it in the FIFO were untouched.
    for (std::size_t i = 0; i + 1 < ids.size(); ++i)
        EXPECT_FALSE(service.result(ids[i]).failed);
}

TEST(QueryResilience, InvalidSessionFailsWithoutRetryOrAbsorption)
{
    // A session the engine rejects fails its own query with the
    // typed message: no retry is spent on it, nothing reaches the
    // context's ledger, and its neighbours in the FIFO still match
    // a solo engine bit for bit.
    core::GraphContext context(serviceGraph(), serviceSetup());
    core::QueryService service(context);
    core::SessionConfig good;
    good.maxQueryRetries = 2;
    core::SessionConfig zero_chunk = good;
    zero_chunk.chunkBytes = 0;
    core::SessionConfig bad_fault = good;
    bad_fault.faults.add("down:node=9"); // the cluster has 4 nodes

    const auto plan = compileAutomine(Pattern::clique(4), {});
    const std::size_t first = service.submit(plan, good);
    const std::size_t zero = service.submit(plan, zero_chunk);
    const std::size_t fault = service.submit(plan, bad_fault);
    const std::size_t last = service.submit(plan, good);
    service.wait();

    const core::QueryResult &zero_result = service.result(zero);
    EXPECT_TRUE(zero_result.failed);
    EXPECT_NE(zero_result.error.find("chunk byte budget"),
              std::string::npos)
        << zero_result.error;
    EXPECT_EQ(zero_result.retries, 0u);
    const core::QueryResult &fault_result = service.result(fault);
    EXPECT_TRUE(fault_result.failed);
    EXPECT_NE(fault_result.error.find("out of range"),
              std::string::npos)
        << fault_result.error;
    EXPECT_EQ(fault_result.retries, 0u);

    core::GraphContext solo_context(serviceGraph(), serviceSetup());
    core::Engine solo(solo_context, good);
    const Count solo_count = solo.run(plan);
    for (const std::size_t id : {first, last}) {
        const core::QueryResult &query = service.result(id);
        ASSERT_FALSE(query.failed) << query.error;
        EXPECT_EQ(query.count, solo_count);
        EXPECT_EQ(query.modeledJson, solo.stats().toJson(false));
    }
    EXPECT_EQ(context.sharedTotalBytes(),
              2 * solo.fabric().totalBytes());
}

TEST(QueryResilience, CrashPlanQueriesMatchSoloEngineBitForBit)
{
    // The §10 solo-vs-service contract extends to crash plans: a
    // query whose session kills a unit and adopts its chunks is
    // bit-identical through the service.
    core::GraphContext context(serviceGraph(), serviceSetup());
    core::SessionConfig session;
    session.faults.add("crash:1:level=1:chunk=1");

    core::QueryService service(context);
    const auto plan = compileAutomine(Pattern::triangle(), {});
    const std::size_t id = service.submit(plan, session);
    service.wait();
    const core::QueryResult &query = service.result(id);
    ASSERT_FALSE(query.failed) << query.error;

    core::Engine solo(context, session);
    const Count solo_count = solo.run(plan);
    EXPECT_EQ(query.count, solo_count);
    EXPECT_EQ(query.modeledJson, solo.stats().toJson(false));
    EXPECT_GT(query.stats.totalUnitCrashes(), 0u);
}

} // namespace
} // namespace khuzdul
