/**
 * @file
 * Unit tests for the simulation substrate: cost model arithmetic,
 * cluster configuration, the fabric's traffic ledger and fault
 * injection, and RunStats aggregation.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.hh"
#include "graph/partition.hh"
#include "sim/cluster.hh"
#include "sim/cost_model.hh"
#include "sim/fabric.hh"
#include "sim/stats.hh"
#include "support/check.hh"

namespace khuzdul
{
namespace
{

TEST(CostModel, TransferTimeScalesWithBytes)
{
    const double small = sim::cost::transferNs(1024, 1);
    const double large = sim::cost::transferNs(1024 * 1024, 1);
    EXPECT_GT(large, small);
    EXPECT_GT(small, sim::cost::netLatencyNs); // latency floor
}

TEST(CostModel, NumaTransferIsCheaperThanNetwork)
{
    EXPECT_LT(sim::cost::numaTransferNs(64 << 10, 16),
              sim::cost::transferNs(64 << 10, 16));
}

TEST(ClusterConfig, CoreAccounting)
{
    sim::ClusterConfig config = sim::ClusterConfig::paperDefault();
    EXPECT_EQ(config.coresPerNode(), 16u);
    EXPECT_EQ(config.computeCoresPerNode(), 12u);
    sim::ClusterConfig large = sim::ClusterConfig::largeCluster();
    EXPECT_EQ(large.numNodes, 18u);
    EXPECT_EQ(large.coresPerNode(), 32u);
}

TEST(ClusterConfig, RejectsAllCommCores)
{
    sim::ClusterConfig config;
    config.socketsPerNode = 1;
    config.coresPerSocket = 2;
    config.commCoresPerNode = 2;
    EXPECT_THROW(config.computeCoresPerNode(), FatalError);
}

TEST(Fabric, LedgerTracksPerLinkTraffic)
{
    const Graph g = gen::cycle(64);
    const Partition partition(g, 4, 1);
    sim::Fabric fabric(partition);

    fabric.recordTransfer(0, 1, 1000, 2);
    fabric.recordTransfer(0, 1, 500, 1);
    fabric.recordTransfer(2, 3, 99, 1);
    EXPECT_EQ(fabric.linkBytes(0, 1), 1500u);
    EXPECT_EQ(fabric.linkMessages(0, 1), 2u);
    EXPECT_EQ(fabric.linkBytes(1, 0), 0u);
    EXPECT_EQ(fabric.totalBytes(), 1599u);
}

TEST(Fabric, SameNodeTransfersAreNotNetworkTraffic)
{
    const Graph g = gen::cycle(64);
    const Partition partition(g, 2, 2);
    sim::Fabric fabric(partition);
    const double numa_time = fabric.recordTransfer(1, 1, 4096, 4);
    EXPECT_EQ(fabric.totalBytes(), 0u);
    EXPECT_GT(numa_time, 0.0);
    EXPECT_LT(numa_time, fabric.recordTransfer(1, 0, 4096, 4));
}

TEST(Fabric, ByteCapInjectsFailure)
{
    const Graph g = gen::cycle(64);
    const Partition partition(g, 2, 1);
    sim::Fabric fabric(partition);
    fabric.setByteCap(1000);
    fabric.recordTransfer(0, 1, 900, 1);
    EXPECT_THROW(fabric.recordTransfer(0, 1, 200, 1),
                 sim::ByteCapExceededFault);
}

TEST(Fabric, ResetClearsLedger)
{
    const Graph g = gen::cycle(64);
    const Partition partition(g, 2, 1);
    sim::Fabric fabric(partition);
    fabric.recordTransfer(0, 1, 4096, 4);
    fabric.reset();
    EXPECT_EQ(fabric.totalBytes(), 0u);
    EXPECT_EQ(fabric.linkMessages(0, 1), 0u);
}

TEST(Fabric, ResetClearsByteCapProgress)
{
    const Graph g = gen::cycle(64);
    const Partition partition(g, 2, 1);
    sim::Fabric fabric(partition);
    fabric.setByteCap(1000);
    fabric.recordTransfer(0, 1, 900, 1);
    fabric.reset();
    // The cap stays armed but its progress counter restarts, so the
    // same volume fits again before the fault fires.
    EXPECT_NO_THROW(fabric.recordTransfer(0, 1, 900, 1));
    EXPECT_THROW(fabric.recordTransfer(0, 1, 200, 1),
                 sim::ByteCapExceededFault);
}

TEST(Fabric, ByteCapArmsMidRun)
{
    const Graph g = gen::cycle(64);
    const Partition partition(g, 2, 1);
    sim::Fabric fabric(partition);
    // With the cap disabled any volume passes, but it still counts:
    // arming mid-run compares against all bytes moved so far.
    fabric.recordTransfer(0, 1, 5000, 2);
    fabric.setByteCap(1000);
    EXPECT_THROW(fabric.recordTransfer(0, 1, 1, 1),
                 sim::ByteCapExceededFault);
    // Same-node (NUMA) traffic never counts against the cap.
    EXPECT_NO_THROW(fabric.recordTransfer(1, 1, 4096, 1));
}

TEST(Fabric, PerLinkLedgerSumsToTotal)
{
    const Graph g = gen::cycle(64);
    const Partition partition(g, 4, 1);
    sim::Fabric fabric(partition);
    fabric.recordTransfer(0, 1, 100, 1);
    fabric.recordTransfer(1, 2, 200, 2);
    fabric.recordTransfer(3, 0, 300, 1);
    fabric.recordTransfer(2, 2, 999, 1); // same-node: not network
    std::uint64_t bytes = 0;
    for (NodeId src = 0; src < 4; ++src)
        for (NodeId dst = 0; dst < 4; ++dst)
            if (src != dst)
                bytes += fabric.linkBytes(src, dst);
    // Off-diagonal links sum to the cross-node total; the diagonal
    // (NUMA traffic) is ledgered but never counts as network bytes.
    EXPECT_EQ(bytes, fabric.totalBytes());
    EXPECT_EQ(bytes, 600u);
    EXPECT_EQ(fabric.linkBytes(2, 2), 999u);
}

TEST(RunStats, MakespanIsSlowestNodePlusStartup)
{
    sim::RunStats stats;
    stats.nodes.resize(3);
    stats.nodes[0].computeNs = 100;
    stats.nodes[1].computeNs = 60;
    stats.nodes[1].commExposedNs = 90;
    stats.nodes[2].schedulerNs = 20;
    stats.startupNs = 5;
    EXPECT_DOUBLE_EQ(stats.makespanNs(), 155.0);
}

TEST(RunStats, AccumulateMergesFieldwise)
{
    sim::RunStats a;
    a.nodes.resize(2);
    a.nodes[0].computeNs = 10;
    a.nodes[0].bytesSent = 100;
    a.nodes[1].peakChunkBytes = 50;
    sim::RunStats b;
    b.nodes.resize(2);
    b.nodes[0].computeNs = 5;
    b.nodes[0].bytesSent = 11;
    b.nodes[1].peakChunkBytes = 80;
    b.startupNs = 7;
    a.accumulate(b);
    EXPECT_DOUBLE_EQ(a.nodes[0].computeNs, 15.0);
    EXPECT_EQ(a.nodes[0].bytesSent, 111u);
    EXPECT_EQ(a.nodes[1].peakChunkBytes, 80u); // max, not sum
    EXPECT_DOUBLE_EQ(a.startupNs, 7.0);
}

TEST(RunStats, HitRateAndUtilization)
{
    sim::RunStats stats;
    stats.nodes.resize(2);
    stats.nodes[0].staticCacheHits = 30;
    stats.nodes[0].staticCacheMisses = 10;
    stats.nodes[1].staticCacheMisses = 10;
    EXPECT_DOUBLE_EQ(stats.staticCacheHitRate(), 0.6);

    stats.nodes[0].computeNs = 1000;
    stats.nodes[0].bytesSent = 3500;
    // busiest node sends 3500B over 1000ns at 7B/ns capacity: 50%.
    EXPECT_NEAR(stats.networkUtilization(), 0.5, 1e-9);
}

TEST(RunStats, ToJsonCarriesTotalsAndNodes)
{
    sim::RunStats stats;
    stats.nodes.resize(2);
    stats.startupNs = 5;
    stats.nodes[0].computeNs = 100;
    stats.nodes[0].bytesSent = 1234;
    stats.nodes[0].messagesSent = 3;
    stats.nodes[1].staticCacheHits = 3;
    stats.nodes[1].staticCacheMisses = 1;
    stats.nodes[0].kernelCalls = {7, 0, 2, 1, 5, 0};
    stats.nodes[1].kernelCalls = {1, 0, 0, 0, 0, 2};
    const std::string json = stats.toJson();
    EXPECT_NE(json.find("\"makespan_ns\": 105"), std::string::npos);
    EXPECT_NE(json.find("\"bytes_sent\": 1234"), std::string::npos);
    EXPECT_NE(json.find("\"messages\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"static_cache_hit_rate\": 0.75"),
              std::string::npos);
    EXPECT_NE(json.find("\"kernel_calls\": {\"merge\": 8, "
                        "\"blocked\": 0, \"gallop\": 2, "
                        "\"bitmap\": 1, \"simd_merge\": 5, "
                        "\"simd_gallop\": 2}"),
              std::string::npos);
    EXPECT_NE(json.find("\"nodes\": ["), std::string::npos);
    // One object per node, plus the root, kernel_calls, faults,
    // steals and recovery objects.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'), 7);
    EXPECT_EQ(std::count(json.begin(), json.end(), '}'), 7);
    // The steals and recovery blocks are always present, even
    // all-zero, so JSON consumers can rely on the keys.
    EXPECT_NE(json.find("\"steals\": {\"stolen\": 0, \"donated\": 0, "
                        "\"bytes\": 0, \"overhead_ns\": 0}"),
              std::string::npos);
    EXPECT_NE(json.find("\"recovery\": {\"checkpoints\": 0, "
                        "\"crashes\": 0, \"adopted\": 0, "
                        "\"orphaned\": 0, \"adoption_bytes\": 0, "
                        "\"checkpoint_ns\": 0, \"adoption_ns\": 0, "
                        "\"query_retries\": 0}"),
              std::string::npos);

    // The kernel split is a host-side fact (it depends on CPU
    // features), so the modeled dump omits it entirely — top-level
    // block and per-node arrays both.
    const std::string modeled = stats.toJson(false);
    EXPECT_EQ(modeled.find("kernel_calls"), std::string::npos);
    EXPECT_NE(modeled.find("\"makespan_ns\": 105"), std::string::npos);
}

TEST(RunStats, EmptyStatsAreSafe)
{
    sim::RunStats stats;
    EXPECT_DOUBLE_EQ(stats.makespanNs(), 0.0);
    EXPECT_DOUBLE_EQ(stats.staticCacheHitRate(), 0.0);
    EXPECT_DOUBLE_EQ(stats.networkUtilization(), 0.0);
    EXPECT_FALSE(stats.summary().empty());
}

} // namespace
} // namespace khuzdul
