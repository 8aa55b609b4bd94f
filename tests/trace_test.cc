/**
 * @file
 * Phase-event tracing tests: the sink implementations in isolation,
 * the cross-check between the engine's internal event tallies and
 * its RunStats counters, the bound on event volume and buffered
 * records, and the observation-only guarantee (a run is bit-exact
 * with tracing enabled or disabled).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/engine.hh"
#include "graph/generators.hh"
#include "pattern/planner.hh"
#include "sim/trace.hh"

namespace khuzdul
{
namespace
{

core::EngineConfig
traceConfig()
{
    core::EngineConfig config;
    config.graph.cluster = sim::ClusterConfig::paperDefault(4);
    config.graph.cluster.socketsPerNode = 1;
    config.session.chunkBytes = 64 << 10;
    config.graph.cacheDegreeThreshold = 8;
    return config;
}

TEST(Trace, PhaseEventNamesAreStable)
{
    EXPECT_STREQ(phaseEventName(sim::PhaseEvent::ChunkOpen),
                 "chunk_open");
    EXPECT_STREQ(phaseEventName(sim::PhaseEvent::FetchBatchIssued),
                 "fetch_batch_issued");
    EXPECT_STREQ(phaseEventName(sim::PhaseEvent::CacheMiss),
                 "cache_miss");
    EXPECT_STREQ(phaseEventName(sim::PhaseEvent::KernelDispatch),
                 "kernel_dispatch");
}

TEST(Trace, CountingSinkTalliesPerEvent)
{
    sim::CountingTraceSink sink;
    sink.emit({sim::PhaseEvent::ChunkOpen, 0, 0, 10, 0});
    sink.emit({sim::PhaseEvent::ChunkOpen, 1, 2, 5, 0});
    sink.emit({sim::PhaseEvent::CacheHit, 0, 0, 42, 0});
    EXPECT_EQ(sink.count(sim::PhaseEvent::ChunkOpen), 2u);
    EXPECT_EQ(sink.valueSum(sim::PhaseEvent::ChunkOpen), 15u);
    EXPECT_EQ(sink.count(sim::PhaseEvent::CacheHit), 1u);
    EXPECT_EQ(sink.total(), 3u);
    sink.reset();
    EXPECT_EQ(sink.total(), 0u);
    EXPECT_EQ(sink.valueSum(sim::PhaseEvent::ChunkOpen), 0u);
}

TEST(Trace, JsonLinesSinkFormat)
{
    std::ostringstream out;
    sim::JsonLinesTraceSink sink(out);
    sink.emit({sim::PhaseEvent::FetchBatchIssued, 3, 2, 77, 5});
    EXPECT_EQ(out.str(),
              "{\"event\":\"fetch_batch_issued\",\"unit\":3,"
              "\"level\":2,\"value\":77,\"aux\":5}\n");
}

TEST(Trace, TeeFansOutToOptionalSecondary)
{
    sim::CountingTraceSink primary;
    sim::CountingTraceSink secondary;
    sim::TeeTraceSink tee(primary);
    tee.emit({sim::PhaseEvent::ExtendStart, 0, 0, 1, 0});
    tee.secondary(&secondary);
    tee.emit({sim::PhaseEvent::ExtendStart, 0, 0, 1, 0});
    tee.secondary(nullptr);
    tee.emit({sim::PhaseEvent::ExtendStart, 0, 0, 1, 0});
    EXPECT_EQ(primary.count(sim::PhaseEvent::ExtendStart), 3u);
    EXPECT_EQ(secondary.count(sim::PhaseEvent::ExtendStart), 1u);
}

TEST(Trace, EngineEventsCrossCheckRunStats)
{
    const Graph g = gen::rmat(300, 2000, 0.55, 0.2, 0.2, 2024);
    core::Engine engine(g, traceConfig());
    engine.run(compileAutomine(Pattern::clique(4), {}));

    const sim::CountingTraceSink &t = engine.traceCounts();
    std::uint64_t chunks = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    for (const auto &node : engine.stats().nodes) {
        chunks += node.chunksProcessed;
        hits += node.staticCacheHits;
        misses += node.staticCacheMisses;
    }
    EXPECT_GT(chunks, 0u);
    EXPECT_EQ(t.count(sim::PhaseEvent::ChunkOpen), chunks);
    EXPECT_EQ(t.count(sim::PhaseEvent::ChunkClose), chunks);
    EXPECT_EQ(t.count(sim::PhaseEvent::ExtendStart), chunks);
    EXPECT_EQ(t.count(sim::PhaseEvent::ExtendEnd), chunks);
    // Cache events are per-phase tallies: their payloads sum to the
    // probe counters, and no chunk's fetch phase reports twice.
    EXPECT_GT(hits, 0u);
    EXPECT_EQ(t.valueSum(sim::PhaseEvent::CacheHit), hits);
    EXPECT_EQ(t.valueSum(sim::PhaseEvent::CacheMiss), misses);
    EXPECT_LE(t.count(sim::PhaseEvent::CacheHit), chunks);
    EXPECT_LE(t.count(sim::PhaseEvent::CacheMiss), chunks);
    // One socket per node: every issued batch crosses the network,
    // so issued events match the message count, and the issued
    // payload sum matches the bytes on the wire.
    EXPECT_EQ(t.count(sim::PhaseEvent::FetchBatchIssued),
              engine.stats().totalMessages());
    EXPECT_EQ(t.count(sim::PhaseEvent::FetchBatchCompleted),
              t.count(sim::PhaseEvent::FetchBatchIssued));
    EXPECT_EQ(t.valueSum(sim::PhaseEvent::FetchBatchIssued),
              engine.stats().totalBytesSent());
    // Kernel-dispatch events carry per-chunk call deltas whose sum
    // must equal the kernel-call totals accumulated in RunStats.
    std::uint64_t kernel_calls = 0;
    for (const auto &node : engine.stats().nodes)
        for (const std::uint64_t calls : node.kernelCalls)
            kernel_calls += calls;
    EXPECT_GT(kernel_calls, 0u);
    EXPECT_EQ(t.valueSum(sim::PhaseEvent::KernelDispatch),
              kernel_calls);
}

TEST(Trace, EventCountIsBoundedByChunksAndMessages)
{
    // A non-IEP enumeration probes the cache once per fetching
    // embedding; the event stream must not grow with that.  Per
    // chunk: open, close, extend start/end, kernel dispatch and at
    // most one hit and one miss tally (7); per message: issued and
    // completed (2).
    const Graph g = gen::rmat(400, 3000, 0.55, 0.2, 0.2, 11);
    auto config = traceConfig();
    config.session.chunkBytes = 4 << 10;
    core::Engine engine(g, config);
    engine.run(compileAutomine(Pattern::cycleOf(4), {}));

    std::uint64_t chunks = 0;
    std::uint64_t probes = 0;
    for (const auto &node : engine.stats().nodes) {
        chunks += node.chunksProcessed;
        probes += node.staticCacheHits + node.staticCacheMisses;
    }
    const std::uint64_t messages = engine.stats().totalMessages();
    const std::uint64_t events = engine.traceCounts().total();
    EXPECT_GT(chunks, 0u);
    EXPECT_GT(probes, events); // per-probe events would exceed this
    EXPECT_LE(events, 7 * chunks + 2 * messages);
}

TEST(Trace, NoRecordIsBufferedWithoutUserSink)
{
    const Graph g = gen::rmat(300, 2000, 0.55, 0.2, 0.2, 2024);
    core::Engine engine(g, traceConfig());
    engine.run(compileAutomine(Pattern::clique(4), {}));
    EXPECT_GT(engine.traceCounts().total(), 0u);
    EXPECT_EQ(engine.stats().traceBufferPeak, 0u);
    EXPECT_NE(engine.stats().toJson().find("\"trace_buffer_peak\": 0"),
              std::string::npos);
    EXPECT_EQ(engine.stats().toJson(false).find("trace_buffer_peak"),
              std::string::npos);
}

TEST(Trace, BufferedRecordsAreBoundedByChunks)
{
    // With a user sink every unit buffers its run's stream, which
    // holds per chunk the 7 chunk-level events above plus at most
    // one issued/completed pair per peer unit.
    const Graph g = gen::rmat(400, 3000, 0.55, 0.2, 0.2, 11);
    auto config = traceConfig();
    config.session.chunkBytes = 4 << 10;
    config.session.hostThreads = 2;
    core::Engine engine(g, config);
    std::ostringstream out;
    sim::JsonLinesTraceSink sink(out);
    engine.setTraceSink(&sink);
    engine.run(compileAutomine(Pattern::cycleOf(4), {}));

    const auto &stats = engine.stats();
    const std::uint64_t peers = stats.nodes.size() - 1;
    std::uint64_t busiest = 0;
    for (const auto &node : stats.nodes)
        busiest = std::max(busiest, node.chunksProcessed);
    EXPECT_GT(stats.traceBufferPeak, 0u);
    EXPECT_LE(stats.traceBufferPeak, (7 + 2 * peers) * busiest);
    EXPECT_LE(stats.traceBufferPeak, engine.traceCounts().total());
}

TEST(Trace, TracingIsObservationOnly)
{
    const Graph g = gen::rmat(300, 2000, 0.55, 0.2, 0.2, 2024);
    const auto plan = compileAutomine(Pattern::clique(4), {});

    core::Engine plain(g, traceConfig());
    const Count count_plain = plain.run(plan);

    core::Engine traced(g, traceConfig());
    std::ostringstream out;
    sim::JsonLinesTraceSink sink(out);
    traced.setTraceSink(&sink);
    const Count count_traced = traced.run(plan);

    EXPECT_EQ(count_traced, count_plain);
    EXPECT_FALSE(out.str().empty());
    // Bit-exact stats: attaching a sink must not perturb the run.
    EXPECT_DOUBLE_EQ(traced.stats().makespanNs(),
                     plain.stats().makespanNs());
    EXPECT_DOUBLE_EQ(traced.stats().totalComputeNs(),
                     plain.stats().totalComputeNs());
    EXPECT_DOUBLE_EQ(traced.stats().totalCacheNs(),
                     plain.stats().totalCacheNs());
    EXPECT_EQ(traced.stats().totalBytesSent(),
              plain.stats().totalBytesSent());
    EXPECT_EQ(traced.stats().totalMessages(),
              plain.stats().totalMessages());
    EXPECT_EQ(traced.stats().totalEmbeddings(),
              plain.stats().totalEmbeddings());
    EXPECT_EQ(traced.traceCounts().total(),
              plain.traceCounts().total());
}

TEST(Trace, ResetStatsClearsEventCounts)
{
    const Graph g = gen::rmat(300, 2000, 0.55, 0.2, 0.2, 2024);
    core::Engine engine(g, traceConfig());
    engine.run(compileAutomine(Pattern::triangle(), {}));
    EXPECT_GT(engine.traceCounts().total(), 0u);
    engine.resetStats();
    EXPECT_EQ(engine.traceCounts().total(), 0u);
}

} // namespace
} // namespace khuzdul
