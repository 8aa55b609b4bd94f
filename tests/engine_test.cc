/**
 * @file
 * Distributed-engine correctness and accounting tests: exact counts
 * under every configuration axis (node count, NUMA, chunk size,
 * cache policy, sharing ablations), plus statistics/traffic sanity.
 */

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <sstream>
#include <string>

#include "core/engine.hh"
#include "core/extender.hh"
#include "graph/generators.hh"
#include "pattern/bruteforce.hh"
#include "pattern/generation.hh"
#include "pattern/planner.hh"
#include "support/check.hh"

namespace khuzdul
{
namespace
{

Graph
testGraph()
{
    return gen::rmat(300, 2000, 0.55, 0.2, 0.2, 2024);
}

core::EngineConfig
smallConfig(NodeId nodes = 4)
{
    core::EngineConfig config;
    config.graph.cluster = sim::ClusterConfig::paperDefault(nodes);
    config.session.chunkBytes = 64 << 10;
    config.graph.cacheDegreeThreshold = 8;
    return config;
}

TEST(Engine, TriangleCountMatchesBruteForce)
{
    const Graph g = testGraph();
    const Count expected =
        brute::countEmbeddings(g, Pattern::triangle(), false);
    core::Engine engine(g, smallConfig());
    const auto plan = compileAutomine(Pattern::triangle(), {});
    EXPECT_EQ(engine.run(plan), expected);
}

TEST(Engine, CountsInvariantAcrossNodeCounts)
{
    const Graph g = testGraph();
    const auto plan = compileAutomine(Pattern::clique(4), {});
    Count reference = 0;
    for (const NodeId nodes : {1u, 2u, 3u, 8u}) {
        core::Engine engine(g, smallConfig(nodes));
        const Count count = engine.run(plan);
        if (nodes == 1)
            reference = count;
        else
            EXPECT_EQ(count, reference) << nodes << " nodes";
    }
    EXPECT_EQ(reference, brute::countEmbeddings(g, Pattern::clique(4),
                                                false));
}

TEST(Engine, CountsInvariantAcrossChunkSizes)
{
    const Graph g = testGraph();
    const auto plan = compileAutomine(Pattern::clique(4), {});
    const Count expected =
        brute::countEmbeddings(g, Pattern::clique(4), false);
    for (const std::uint64_t chunk : {1u << 10, 16u << 10, 4u << 20}) {
        auto config = smallConfig();
        config.session.chunkBytes = chunk;
        core::Engine engine(g, config);
        EXPECT_EQ(engine.run(plan), expected) << "chunk " << chunk;
    }
}

TEST(Engine, CountsInvariantAcrossCachePolicies)
{
    const Graph g = testGraph();
    const auto plan = compileAutomine(Pattern::triangle(), {});
    const Count expected =
        brute::countEmbeddings(g, Pattern::triangle(), false);
    using core::CachePolicy;
    for (const auto policy :
         {CachePolicy::None, CachePolicy::Static, CachePolicy::Fifo,
          CachePolicy::Lifo, CachePolicy::Lru, CachePolicy::Mru}) {
        auto config = smallConfig();
        config.graph.cachePolicy = policy;
        core::Engine engine(g, config);
        EXPECT_EQ(engine.run(plan), expected)
            << core::cachePolicyName(policy);
    }
}

TEST(Engine, CountsInvariantAcrossSharingAblations)
{
    const Graph g = testGraph();
    const Count expected =
        brute::countEmbeddings(g, Pattern::clique(5), false);
    for (const bool hds : {false, true}) {
        for (const bool vcs : {false, true}) {
            auto config = smallConfig();
            config.graph.horizontalSharing = hds;
            PlanOptions options;
            options.verticalSharing = vcs;
            core::Engine engine(g, config);
            const auto plan = compileAutomine(Pattern::clique(5),
                                              options);
            EXPECT_EQ(engine.run(plan), expected)
                << "hds=" << hds << " vcs=" << vcs;
        }
    }
}

TEST(Engine, CountsInvariantAcrossNumaModes)
{
    const Graph g = testGraph();
    const auto plan = compileAutomine(Pattern::clique(4), {});
    const Count expected =
        brute::countEmbeddings(g, Pattern::clique(4), false);
    for (const bool numa : {false, true}) {
        auto config = smallConfig();
        config.graph.numaAware = numa;
        core::Engine engine(g, config);
        EXPECT_EQ(engine.run(plan), expected) << "numa=" << numa;
    }
}

TEST(Engine, IepPlansProduceIdenticalCounts)
{
    const Graph g = testGraph();
    const GraphProfile profile = GraphProfile::fromGraph(g);
    core::Engine materialized(g, smallConfig());
    core::Engine folded(g, smallConfig());
    for (const auto &p : gen::connectedPatterns(4)) {
        const auto automine_plan = compileAutomine(p, {});
        const auto graphpi_plan = compileGraphPi(p, profile, {});
        EXPECT_EQ(materialized.run(automine_plan),
                  folded.run(graphpi_plan))
            << p.toString();
    }
}

TEST(Engine, IepVerticalSharingPreservesCounts)
{
    // The GraphPi compiler folds vertical sharing into the IEP
    // terminal block; with sharing disabled the same plan recomputes
    // every intersection -- counts must be identical.
    const Graph g = testGraph();
    const GraphProfile profile = GraphProfile::fromGraph(g);
    for (const auto &p : gen::connectedPatterns(5)) {
        PlanOptions with_vcs;
        PlanOptions without_vcs;
        without_vcs.verticalSharing = false;
        core::Engine a(g, smallConfig());
        core::Engine b(g, smallConfig());
        EXPECT_EQ(a.run(compileGraphPi(p, profile, with_vcs)),
                  b.run(compileGraphPi(p, profile, without_vcs)))
            << p.toString();
    }
}

TEST(EngineProperty, AllSize4PatternsMatchBruteForce)
{
    const Graph g = gen::rmat(150, 900, 0.5, 0.2, 0.2, 555);
    core::Engine engine(g, smallConfig(3));
    for (const auto &p : gen::connectedPatterns(4)) {
        const auto plan = compileAutomine(p, {});
        EXPECT_EQ(engine.run(plan), brute::countEmbeddings(g, p, false))
            << p.toString();
    }
}

TEST(EngineProperty, InducedMatchingOnEngine)
{
    const Graph g = gen::rmat(120, 600, 0.5, 0.2, 0.2, 321);
    core::Engine engine(g, smallConfig(2));
    PlanOptions induced;
    induced.induced = true;
    for (const auto &p : gen::connectedPatterns(4)) {
        const auto plan = compileAutomine(p, induced);
        EXPECT_EQ(engine.run(plan), brute::countEmbeddings(g, p, true))
            << p.toString();
    }
}

TEST(Engine, VisitorDeliversEmbeddings)
{
    const Graph g = gen::complete(7);
    core::Engine engine(g, smallConfig(2));
    const auto plan = compileAutomine(Pattern::triangle(), {});
    class CountVisitor : public core::MatchVisitor
    {
      public:
        Count seen = 0;
        void
        match(std::span<const VertexId> positions) override
        {
            EXPECT_EQ(positions.size(), 3u);
            ++seen;
        }
    } visitor;
    EXPECT_EQ(engine.run(plan, &visitor), 35u);
    EXPECT_EQ(visitor.seen, 35u);
}

TEST(Engine, StatsAccumulateAndReset)
{
    const Graph g = testGraph();
    core::Engine engine(g, smallConfig());
    const auto plan = compileAutomine(Pattern::triangle(), {});
    engine.run(plan);
    EXPECT_GT(engine.stats().makespanNs(), 0.0);
    EXPECT_GT(engine.stats().totalEmbeddings(), 0u);
    EXPECT_GT(engine.stats().totalBytesSent(), 0u);
    engine.resetStats();
    EXPECT_EQ(engine.stats().totalBytesSent(), 0u);
    EXPECT_EQ(engine.stats().totalEmbeddings(), 0u);
    // The fabric ledger and every per-unit counter zero too.
    EXPECT_EQ(engine.fabric().totalBytes(), 0u);
    for (const auto &node : engine.stats().nodes) {
        EXPECT_EQ(node.bytesReceived, 0u);
        EXPECT_EQ(node.staticCacheMisses, 0u);
        EXPECT_DOUBLE_EQ(node.computeNs, 0.0);
    }
}

TEST(Engine, ResetStatsKeepsCachesWarm)
{
    // resetStats() zeroes counters and the fabric ledger but leaves
    // cache *contents* resident: a repeat of the same pattern must
    // admit nothing new, miss less, and move fewer bytes.
    const Graph g = gen::rmat(400, 4000, 0.65, 0.15, 0.15, 43);
    auto config = smallConfig(8);
    config.graph.horizontalSharing = false;
    config.graph.cacheDegreeThreshold = 32;
    config.graph.cacheFraction = 0.3;
    core::Engine engine(g, config);
    const auto plan = compileAutomine(Pattern::clique(4), {});

    engine.run(plan);
    std::uint64_t cold_misses = 0;
    std::uint64_t cold_insertions = 0;
    for (const auto &node : engine.stats().nodes) {
        cold_misses += node.staticCacheMisses;
        cold_insertions += node.staticCacheInsertions;
    }
    const std::uint64_t cold_bytes = engine.stats().totalBytesSent();
    EXPECT_GT(cold_insertions, 0u);

    engine.resetStats();
    engine.run(plan);
    std::uint64_t warm_misses = 0;
    std::uint64_t warm_insertions = 0;
    std::uint64_t warm_hits = 0;
    for (const auto &node : engine.stats().nodes) {
        warm_misses += node.staticCacheMisses;
        warm_insertions += node.staticCacheInsertions;
        warm_hits += node.staticCacheHits;
    }
    EXPECT_EQ(warm_insertions, 0u); // static cache: nothing re-admitted
    EXPECT_LT(warm_misses, cold_misses);
    EXPECT_GT(warm_hits, 0u);
    EXPECT_LT(engine.stats().totalBytesSent(), cold_bytes);
}

TEST(Engine, ClearCachesRestoresColdStart)
{
    // clearCaches() + resetStats() is the full cold restart: the
    // re-run's modeled dump must reproduce the first run's byte for
    // byte even under a warming cache policy (resetStats alone
    // keeps contents resident, see ResetStatsKeepsCachesWarm).
    const Graph g = gen::rmat(400, 4000, 0.65, 0.15, 0.15, 43);
    auto config = smallConfig(8);
    config.graph.cacheDegreeThreshold = 32;
    config.graph.cacheFraction = 0.3;
    core::Engine engine(g, config);
    const auto plan = compileAutomine(Pattern::clique(4), {});

    const Count cold_count = engine.run(plan);
    const std::string cold_json = engine.stats().toJson(false);

    // A warm repeat genuinely differs: the caches persisted.
    engine.resetStats();
    engine.run(plan);
    EXPECT_NE(engine.stats().toJson(false), cold_json);

    engine.clearCaches();
    engine.resetStats();
    EXPECT_EQ(engine.run(plan), cold_count);
    EXPECT_EQ(engine.stats().toJson(false), cold_json);
}

TEST(Engine, SingleNodeHasNoNetworkTraffic)
{
    const Graph g = testGraph();
    auto config = smallConfig(1);
    config.graph.cluster.socketsPerNode = 1;
    core::Engine engine(g, config);
    engine.run(compileAutomine(Pattern::clique(4), {}));
    EXPECT_EQ(engine.stats().totalBytesSent(), 0u);
    EXPECT_EQ(engine.fabric().totalBytes(), 0u);
}

TEST(Engine, HorizontalSharingReducesTraffic)
{
    const Graph g = gen::rmat(400, 4000, 0.6, 0.15, 0.15, 42);
    const auto plan = compileAutomine(Pattern::clique(4), {});

    auto with_config = smallConfig(8);
    with_config.graph.cachePolicy = core::CachePolicy::None;
    core::Engine with_hds(g, with_config);
    with_hds.run(plan);

    auto without_config = with_config;
    without_config.graph.horizontalSharing = false;
    core::Engine without_hds(g, without_config);
    without_hds.run(plan);

    EXPECT_LT(with_hds.stats().totalBytesSent(),
              without_hds.stats().totalBytesSent() / 2);
}

TEST(Engine, StaticCacheReducesTraffic)
{
    const Graph g = gen::rmat(400, 4000, 0.65, 0.15, 0.15, 43);
    const auto plan = compileAutomine(Pattern::clique(4), {});

    auto cached_config = smallConfig(8);
    cached_config.graph.horizontalSharing = false;
    // Admit only genuinely hot vertices so capacity is not wasted
    // on mid-degree lists (the paper's threshold rationale).
    cached_config.graph.cacheDegreeThreshold = 32;
    cached_config.graph.cacheFraction = 0.3;
    core::Engine cached(g, cached_config);
    cached.run(plan);

    auto uncached_config = cached_config;
    uncached_config.graph.cachePolicy = core::CachePolicy::None;
    core::Engine uncached(g, uncached_config);
    uncached.run(plan);

    EXPECT_LT(cached.stats().totalBytesSent(),
              uncached.stats().totalBytesSent());
    EXPECT_GT(cached.stats().staticCacheHitRate(), 0.1);
}

TEST(Engine, TrafficLedgerIsConsistent)
{
    const Graph g = testGraph();
    core::Engine engine(g, smallConfig(4));
    engine.run(compileAutomine(Pattern::clique(4), {}));
    std::uint64_t received = 0;
    std::uint64_t sent = 0;
    for (const auto &node : engine.stats().nodes) {
        received += node.bytesReceived;
        sent += node.bytesSent;
    }
    EXPECT_EQ(received, sent);
    EXPECT_EQ(received, engine.fabric().totalBytes());
}

TEST(Engine, ChunkMemoryStaysNearBudget)
{
    const Graph g = testGraph();
    auto config = smallConfig(2);
    config.session.chunkBytes = 8 << 10;
    core::Engine engine(g, config);
    engine.run(compileAutomine(Pattern::clique(4), {}));
    std::uint64_t peak = 0;
    for (const auto &node : engine.stats().nodes)
        peak = std::max(peak, node.peakChunkBytes);
    // Soft bound: one extension may overshoot, but not by orders of
    // magnitude.
    EXPECT_LT(peak, 40 * config.session.chunkBytes);
    EXPECT_GT(peak, 0u);
}

TEST(Engine, FaultInjectionByteCapFires)
{
    const Graph g = gen::rmat(400, 4000, 0.6, 0.15, 0.15, 44);
    auto config = smallConfig(8);
    config.graph.cachePolicy = core::CachePolicy::None;
    config.graph.horizontalSharing = false;
    core::Engine engine(g, config);
    engine.fabric().setByteCap(1024);
    EXPECT_THROW(engine.run(compileAutomine(Pattern::clique(4), {})),
                 sim::ByteCapExceededFault);
}

TEST(Engine, MoreNodesShortenModeledMakespan)
{
    const Graph g = gen::rmat(1000, 12000, 0.55, 0.2, 0.2, 45);
    const auto plan = compileAutomine(Pattern::clique(4), {});
    core::Engine one(g, smallConfig(1));
    one.run(plan);
    core::Engine eight(g, smallConfig(8));
    eight.run(plan);
    EXPECT_LT(eight.stats().makespanNs(), one.stats().makespanNs());
}

TEST(Engine, ParallelRunKeepsVisitorsSequential)
{
    // MatchVisitor is client code of unknown thread-safety, so a
    // visitor run must force one host thread even when more are
    // configured — and still deliver every embedding.
    const Graph g = gen::complete(7);
    auto config = smallConfig(2);
    config.session.hostThreads = 4;
    core::Engine engine(g, config);
    const auto plan = compileAutomine(Pattern::triangle(), {});
    class CountVisitor : public core::MatchVisitor
    {
      public:
        Count seen = 0;
        void match(std::span<const VertexId>) override { ++seen; }
    } visitor;
    EXPECT_EQ(engine.run(plan, &visitor), 35u);
    EXPECT_EQ(visitor.seen, 35u);
    EXPECT_EQ(engine.stats().hostThreads, 1u);
}

TEST(Engine, ParallelRunReportsHostThreads)
{
    const Graph g = testGraph();
    auto config = smallConfig(4); // 4 nodes x 2 sockets = 8 units
    config.session.hostThreads = 3;
    core::Engine engine(g, config);
    engine.run(compileAutomine(Pattern::triangle(), {}));
    EXPECT_EQ(engine.stats().hostThreads, 3u);
    EXPECT_GT(engine.stats().hostWallNs, 0.0);
    // The host block appears in the default dump, never in the
    // purely modeled one.
    EXPECT_NE(engine.stats().toJson().find("\"host\":"),
              std::string::npos);
    EXPECT_EQ(engine.stats().toJson(false).find("\"host\":"),
              std::string::npos);
}

TEST(Engine, ByteCapFiresUnderParallelRun)
{
    // The fault injection point moves to the ordered merge, but the
    // fault still surfaces from run() itself.
    const Graph g = gen::rmat(400, 4000, 0.6, 0.15, 0.15, 44);
    auto config = smallConfig(8);
    config.graph.cachePolicy = core::CachePolicy::None;
    config.graph.horizontalSharing = false;
    config.session.hostThreads = 4;
    core::Engine engine(g, config);
    engine.fabric().setByteCap(1024);
    EXPECT_THROW(engine.run(compileAutomine(Pattern::clique(4), {})),
                 sim::ByteCapExceededFault);
}

/** Size and FNV-1a hash of a run's purely modeled dump, taken as
 *  Runner.SmallChunkEngineRunsArePinned takes them. */
struct DumpPin
{
    std::size_t bytes;
    std::uint64_t hash;

    bool operator==(const DumpPin &) const = default;
};

std::ostream &
operator<<(std::ostream &out, const DumpPin &pin)
{
    return out << "{" << pin.bytes << ", " << pin.hash << "ull}";
}

DumpPin
dumpPin(const sim::RunStats &stats)
{
    const std::string json = stats.toJson(false);
    std::uint64_t hash = 14695981039346656037ull;
    for (const char c : json)
        hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    return {json.size(), hash};
}

/** A run that leaves every kind of traffic on the fabric ledger:
 *  2 sockets per node (same-node batches on link (n, n)), dropped,
 *  timed-out and degraded attempts, and post-barrier migration
 *  commits from both a crash adoption and the steal pass. */
core::EngineConfig
ledgerConfig(unsigned threads)
{
    auto config = smallConfig(4); // 4 nodes x 2 sockets = 8 units
    config.session.chunkBytes = 4 << 10;
    config.session.hostThreads = threads;
    config.session.faults.add("drop:*-*:msg=2:count=2");
    config.session.faults.add("timeout:0-1:msg=1:count=3");
    config.session.faults.add("degrade:2-*:factor=3:from=0");
    config.session.faults.add("crash:5:level=1:chunk=1");
    config.session.stealEnabled = true;
    config.session.stealBacklogThresholdNs = 2.0e3;
    return config;
}

TEST(Engine, TrafficLedgerIsPinned)
{
    // Every ledger quantity of one faulted, stolen-from, crashed
    // run, at 1 and 4 host threads: the per-link bytes and messages,
    // the cross-node total and each unit's volume counters.
    using Links = std::array<std::uint64_t, 16>;
    using Units = std::array<std::uint64_t, 8>;
    // Row-major (src, dst): src is the requesting node, dst the
    // owner; the diagonal holds same-node (cross-socket) batches.
    const Links link_bytes = {7304,  20708, 13512, 21400,
                              27452, 9360,  12140, 29228,
                              14080, 11564, 3192,  17416,
                              18496, 13632, 16272, 6812};
    const Links link_messages = {11, 35, 29, 27, 35, 17, 32, 38,
                                 21, 23, 9,  24, 25, 23, 30, 11};
    const std::uint64_t total_bytes = 215900;
    const Units bytes_sent = {16468, 44928, 24060, 24116,
                              31104, 10820, 19424, 50336};
    const Units bytes_received = {21476, 35512, 37988, 33104,
                                  30908, 12152, 23624, 26492};
    const Units messages_sent = {25, 67, 59, 48, 50, 18, 31, 48};
    // The whole modeled dump: fault, steal, checkpoint and adoption
    // charges on top of the volumes above.
    const DumpPin dump = {8555, 2944975006045267006ull};

    const Graph g = testGraph();
    const auto plan = compileAutomine(Pattern::clique(4), {});
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        core::Engine engine(g, ledgerConfig(threads));
        engine.run(plan);
        const sim::RunStats &stats = engine.stats();
        ASSERT_GT(stats.totalFaultsInjected(), 0u);
        ASSERT_GT(stats.totalChunksAdopted(), 0u);
        ASSERT_GT(stats.totalChunksStolen(), 0u);
        Links bytes{};
        Links messages{};
        for (NodeId src = 0; src < 4; ++src)
            for (NodeId dst = 0; dst < 4; ++dst) {
                bytes[src * 4 + dst] = engine.fabric().linkBytes(src, dst);
                messages[src * 4 + dst] =
                    engine.fabric().linkMessages(src, dst);
            }
        Units sent{};
        Units received{};
        Units messages_out{};
        for (unsigned u = 0; u < 8; ++u) {
            sent[u] = stats.nodes[u].bytesSent;
            received[u] = stats.nodes[u].bytesReceived;
            messages_out[u] = stats.nodes[u].messagesSent;
        }
        EXPECT_EQ(bytes, link_bytes);
        EXPECT_EQ(messages, link_messages);
        EXPECT_EQ(engine.fabric().totalBytes(), total_bytes);
        EXPECT_EQ(sent, bytes_sent);
        EXPECT_EQ(received, bytes_received);
        EXPECT_EQ(messages_out, messages_sent);
        EXPECT_EQ(dumpPin(stats), dump);
    }
}

/** The modeled dumps of runs that reach the cost terms no other pin
 *  covers: each replacement cache policy's probe and allocation
 *  charges, the compute penalty of a NUMA-oblivious two-socket node
 *  and the backoff of two whole-query retries. */
TEST(Engine, CostTermsArePinned)
{
    const Graph g = testGraph();
    const auto plan = compileAutomine(Pattern::clique(4), {});
    struct Policy
    {
        core::CachePolicy policy;
        DumpPin dump;
    };
    using core::CachePolicy;
    for (const Policy &pin :
         {Policy{CachePolicy::Fifo, {8291, 9188627383321422383ull}},
          Policy{CachePolicy::Lifo, {8291, 15514256191359981837ull}},
          Policy{CachePolicy::Lru, {8287, 17922014488981191140ull}},
          Policy{CachePolicy::Mru, {8295, 1542462660533557173ull}}}) {
        SCOPED_TRACE(core::cachePolicyName(pin.policy));
        auto config = smallConfig(4);
        config.graph.cachePolicy = pin.policy;
        core::Engine engine(g, config);
        engine.run(plan);
        ASSERT_GT(engine.stats().staticCacheHitRate(), 0.0);
        EXPECT_EQ(dumpPin(engine.stats()), pin.dump);
    }
    {
        SCOPED_TRACE("numa-oblivious");
        auto config = smallConfig(4);
        ASSERT_EQ(config.graph.cluster.socketsPerNode, 2u);
        config.graph.numaAware = false;
        core::Engine engine(g, config);
        engine.run(plan);
        EXPECT_EQ(dumpPin(engine.stats()),
                  (DumpPin{4520, 8694025172973016131ull}));
    }
    {
        SCOPED_TRACE("query retries");
        core::Engine engine(g, smallConfig(4));
        engine.chargeQueryRetry(1);
        engine.chargeQueryRetry(2);
        engine.run(plan);
        EXPECT_EQ(engine.stats().queryRetries, 2u);
        EXPECT_EQ(dumpPin(engine.stats()),
                  (DumpPin{8261, 1511423988321092534ull}));
    }
}

TEST(Engine, ByteCapFiresExactlyPastTheUncappedTotal)
{
    // Whether the cap fires depends only on the run's final
    // cross-node total T: a cap of T holds and T - 1 throws, at
    // every host thread count.  The plain run adds bytes only at the
    // merge; the ledger run adds migration commits on top.
    const Graph g = testGraph();
    const auto plan = compileAutomine(Pattern::clique(4), {});
    for (const unsigned threads : {1u, 4u}) {
        auto plain = smallConfig(4);
        plain.session.hostThreads = threads;
        for (const auto &config : {plain, ledgerConfig(threads)}) {
            SCOPED_TRACE(::testing::Message()
                         << threads << " threads, "
                         << (config.session.stealEnabled ? "ledger"
                                                         : "plain"));
            core::Engine uncapped(g, config);
            uncapped.run(plan);
            const std::uint64_t total = uncapped.fabric().totalBytes();
            ASSERT_GT(total, 0u);
            core::Engine at_total(g, config);
            at_total.fabric().setByteCap(total);
            EXPECT_NO_THROW(at_total.run(plan));
            core::Engine below(g, config);
            below.fabric().setByteCap(total - 1);
            EXPECT_THROW(below.run(plan), sim::ByteCapExceededFault);
        }
    }
}

TEST(Engine, TraceStreamIsThreadCountInvariant)
{
    // The ordered per-unit flush must reproduce the sequential
    // event stream byte for byte, not just in aggregate.
    const Graph g = testGraph();
    const auto plan = compileAutomine(Pattern::clique(4), {});
    const auto stream = [&](unsigned threads) {
        auto config = smallConfig(4);
        config.session.hostThreads = threads;
        core::Engine engine(g, config);
        std::ostringstream out;
        sim::JsonLinesTraceSink sink(out);
        engine.setTraceSink(&sink);
        engine.run(plan);
        return out.str();
    };
    const std::string sequential = stream(1);
    EXPECT_FALSE(sequential.empty());
    EXPECT_EQ(stream(4), sequential);
}

/**
 * A count-only terminal (core::countOnlyTerminal) runs only without a
 * visitor; a no-op visitor forces the per-candidate scan.  Both runs
 * must report the same count and the same modeled dump, per-kind
 * kernel tallies included, under every kernel mode and with the SIMD
 * tier killed, on a skewed graph whose hub rows put Auto on the
 * bitmap count.
 */
TEST(Engine, CountOnlyTerminalMatchesVisitedRun)
{
    class Nop : public core::MatchVisitor
    {
      public:
        Count seen = 0;
        void match(std::span<const VertexId>) override { ++seen; }
    };
    struct SimdSwitch
    {
        explicit SimdSwitch(bool on) { core::setSimdEnabled(on); }
        ~SimdSwitch() { core::setSimdEnabled(true); }
    };
    const Graph g = gen::rmat(600, 9000, 0.6, 0.15, 0.15, 77);
    // `khuzdul plan`'s default profile: GraphPi folds no IEP suffix
    // into these two (this graph's own profile would, for clique6).
    const GraphProfile profile{100000.0, 16.0};
    // Without vertical sharing clique4's terminal folds three edge
    // lists before its count.
    PlanOptions unshared;
    unshared.verticalSharing = false;
    const std::array<ExtendPlan, 5> plans = {
        compileGraphPi(Pattern::cycleOf(4), profile, {}),
        compileGraphPi(Pattern::clique(6), profile, {}),
        compileAutomine(Pattern::triangle(), {}),
        compileAutomine(Pattern::cycleOf(4), {}),
        compileAutomine(Pattern::clique(4), unshared)};
    struct Leg
    {
        core::KernelMode mode;
        bool simd;
    };
    for (const Leg leg : {Leg{core::KernelMode::Auto, true},
                          Leg{core::KernelMode::Merge, true},
                          Leg{core::KernelMode::Gallop, true},
                          Leg{core::KernelMode::Auto, false}}) {
        // The dispatcher reads the switch when the engine is built,
        // the bitmap probes on every call: hold it across both runs.
        const SimdSwitch simd(leg.simd);
        auto config = smallConfig(4);
        config.session.kernelMode = leg.mode;
        std::uint64_t bitmap_calls = 0;
        for (const ExtendPlan &plan : plans) {
            SCOPED_TRACE(std::string(core::kernelModeName(leg.mode))
                         + (leg.simd ? "" : " simd killed") + " "
                         + plan.toString());
            ASSERT_TRUE(core::countOnlyTerminal(plan));
            core::Engine visited(g, config);
            Nop visitor;
            const Count expected = visited.run(plan, &visitor);
            EXPECT_EQ(visitor.seen, expected);
            EXPECT_GT(expected, 0u);
            core::Engine counted(g, config);
            EXPECT_EQ(counted.run(plan), expected);
            EXPECT_EQ(counted.stats().toJson(false),
                      visited.stats().toJson(false));
            // The dump rounds to 15 digits; the ledger must not move
            // by an ulp either.
            EXPECT_EQ(counted.stats().makespanNs(),
                      visited.stats().makespanNs());
            ASSERT_EQ(counted.stats().nodes.size(),
                      visited.stats().nodes.size());
            for (std::size_t u = 0; u < counted.stats().nodes.size();
                 ++u) {
                EXPECT_EQ(counted.stats().nodes[u].computeNs,
                          visited.stats().nodes[u].computeNs)
                    << "unit " << u;
                EXPECT_EQ(counted.stats().nodes[u].kernelCalls,
                          visited.stats().nodes[u].kernelCalls)
                    << "unit " << u;
                bitmap_calls += counted.stats().nodes[u].kernelCalls[
                    static_cast<std::size_t>(core::KernelKind::Bitmap)];
            }
        }
        if (leg.mode == core::KernelMode::Auto) {
            EXPECT_GT(bitmap_calls, 0u);
        }
    }
}

/**
 * Every terminal that is neither an IEP fold nor counted takes the
 * masked scan, with or without a visitor; the visitor only adds the
 * walk over the accepted bits.  A no-op visitor's run must report the
 * same count and the same modeled dump, per-kind kernel tallies
 * included, under every kernel mode and with the SIMD tier killed:
 * house (memoized), induced house (subtractions), Automine diamond (a
 * view of the stored set above a bound) and a labelled house.
 */
TEST(Engine, MaskedTerminalMatchesVisitedRun)
{
    class Nop : public core::MatchVisitor
    {
      public:
        Count seen = 0;
        void match(std::span<const VertexId>) override { ++seen; }
    };
    struct SimdSwitch
    {
        explicit SimdSwitch(bool on) { core::setSimdEnabled(on); }
        ~SimdSwitch() { core::setSimdEnabled(true); }
    };
    Graph g = testGraph();
    gen::randomizeLabels(g, 2, 11);
    PlanOptions induced;
    induced.induced = true;
    Pattern labelled = Pattern::house();
    for (int v = 0; v < labelled.size(); ++v)
        labelled.setLabel(v, static_cast<Label>(v % 2));
    const std::array<ExtendPlan, 4> plans = {
        compileAutomine(Pattern::house(), {}),
        compileAutomine(Pattern::house(), induced),
        compileAutomine(Pattern::diamond(), {}),
        compileAutomine(labelled, {})};
    struct Leg
    {
        core::KernelMode mode;
        bool simd;
    };
    for (const Leg leg : {Leg{core::KernelMode::Auto, true},
                          Leg{core::KernelMode::Merge, true},
                          Leg{core::KernelMode::Gallop, true},
                          Leg{core::KernelMode::Auto, false}}) {
        // The dispatcher reads the switch when the engine is built,
        // the kernels on every call: hold it across both runs.
        const SimdSwitch simd(leg.simd);
        auto config = smallConfig(4);
        config.session.kernelMode = leg.mode;
        for (const ExtendPlan &plan : plans) {
            SCOPED_TRACE(std::string(core::kernelModeName(leg.mode))
                         + (leg.simd ? "" : " simd killed") + " "
                         + plan.toString());
            ASSERT_FALSE(plan.hasIep);
            ASSERT_FALSE(core::countOnlyTerminal(plan));
            core::Engine visited(g, config);
            Nop visitor;
            const Count expected = visited.run(plan, &visitor);
            EXPECT_EQ(visitor.seen, expected);
            EXPECT_GT(expected, 0u);
            core::Engine counted(g, config);
            EXPECT_EQ(counted.run(plan), expected);
            EXPECT_EQ(counted.stats().toJson(false),
                      visited.stats().toJson(false));
            EXPECT_EQ(counted.stats().makespanNs(),
                      visited.stats().makespanNs());
            ASSERT_EQ(counted.stats().nodes.size(),
                      visited.stats().nodes.size());
            for (std::size_t u = 0; u < counted.stats().nodes.size();
                 ++u) {
                EXPECT_EQ(counted.stats().nodes[u].computeNs,
                          visited.stats().nodes[u].computeNs)
                    << "unit " << u;
                EXPECT_EQ(counted.stats().nodes[u].kernelCalls,
                          visited.stats().nodes[u].kernelCalls)
                    << "unit " << u;
            }
        }
    }
}

TEST(Engine, VisitorRequiresCompleteSymmetryBreaking)
{
    const Graph g = gen::complete(5);
    core::Engine engine(g, smallConfig(1));
    PlanOptions options;
    options.symmetryBreaking = false;
    const auto plan = compileAutomine(Pattern::triangle(), options);
    class Nop : public core::MatchVisitor
    {
        void match(std::span<const VertexId>) override {}
    } visitor;
    EXPECT_THROW(engine.run(plan, &visitor), FatalError);
}

TEST(Engine, RejectsUnusableConfigs)
{
    // A zero chunk budget would never admit a root, and a cache
    // fraction outside [0, 1] sizes no cache: both are rejected
    // before anything runs.
    const Graph g = testGraph();
    auto zero_chunk = smallConfig();
    zero_chunk.session.chunkBytes = 0;
    EXPECT_THROW({ core::Engine engine(g, zero_chunk); }, FatalError);
    for (const double fraction :
         {-1.0, 1.5, std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity()}) {
        auto config = smallConfig();
        config.graph.cacheFraction = fraction;
        EXPECT_THROW({ core::GraphContext context(g, config.graph); },
                     FatalError)
            << fraction;
    }
}

} // namespace
} // namespace khuzdul
