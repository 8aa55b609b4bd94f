/**
 * @file
 * Unit tests for the circulant batch scheduler: slot arithmetic,
 * batch bookkeeping, traffic attribution through the fabric, and
 * the pipelined comm/compute timeline fold.
 */

#include <gtest/gtest.h>

#include "core/circulant.hh"
#include "graph/generators.hh"
#include "graph/partition.hh"
#include "sim/cost_model.hh"
#include "sim/fabric.hh"
#include "sim/trace.hh"

namespace khuzdul
{
namespace
{

TEST(Circulant, SlotArithmeticIsCirculant)
{
    const core::CirculantScheduler sched(2, 8, 1);
    EXPECT_EQ(sched.slotOf(2), 0u); // self is slot 0 (local)
    EXPECT_EQ(sched.slotOf(3), 1u);
    EXPECT_EQ(sched.slotOf(1), 7u); // wraps around
    for (unsigned owner = 0; owner < 8; ++owner)
        EXPECT_EQ(sched.ownerOf(sched.slotOf(owner)), owner);
}

TEST(Circulant, DispatchOverheadCountsMiniBatches)
{
    // 100 embeddings in mini-batches of 32 -> 4 dispatches of 150ns
    // amortized over 4 cores.
    EXPECT_DOUBLE_EQ(core::CirculantScheduler::dispatchOverheadNs(
                         100, 32, 4),
                     150.0);
    EXPECT_DOUBLE_EQ(core::CirculantScheduler::dispatchOverheadNs(
                         0, 32, 4),
                     0.0);
}

TEST(Circulant, IssueAttributesTrafficBothWays)
{
    const Graph g = gen::cycle(64);
    const Partition partition(g, 4, 1);
    sim::Fabric fabric(partition);
    sim::RunStats run;
    run.nodes.resize(4);
    sim::CountingTraceSink trace;

    core::CirculantScheduler sched(0, 4, 1);
    sched.begin(4);
    sched.noteRemote(0, 1, 100);
    sched.noteRemote(1, 1, 50);
    sched.noteRemote(2, 3, 10);
    sim::TrafficTally tally(4);
    sched.issue(fabric, run.nodes[0], tally, trace, 0);
    fabric.mergeTally(0, tally, run.nodes);

    // Receiver side: everything lands on unit 0.
    EXPECT_EQ(run.nodes[0].bytesReceived, 160u);
    EXPECT_EQ(run.nodes[0].messagesSent, 2u); // one batch per owner
    EXPECT_EQ(run.nodes[0].listsFetchedRemote, 3u);
    // Send side is attributed to the owning units.
    EXPECT_EQ(run.nodes[1].bytesSent, 150u);
    EXPECT_EQ(run.nodes[3].bytesSent, 10u);
    // The fabric ledger sees the same per-link volumes.
    EXPECT_EQ(fabric.linkBytes(0, 1), 150u);
    EXPECT_EQ(fabric.linkBytes(0, 3), 10u);
    EXPECT_EQ(fabric.totalBytes(), 160u);
    // One issued/completed event pair per non-empty batch.
    EXPECT_EQ(trace.count(sim::PhaseEvent::FetchBatchIssued), 2u);
    EXPECT_EQ(trace.count(sim::PhaseEvent::FetchBatchCompleted), 2u);
    EXPECT_EQ(trace.valueSum(sim::PhaseEvent::FetchBatchIssued), 160u);
}

TEST(Circulant, SameNodeBatchesAreNotNetworkTraffic)
{
    // 2 nodes x 2 sockets: units 0 and 1 share node 0, so a fetch
    // from unit 1 moves over NUMA, not the network.
    const Graph g = gen::cycle(64);
    const Partition partition(g, 2, 2);
    sim::Fabric fabric(partition);
    sim::RunStats run;
    run.nodes.resize(4);

    core::CirculantScheduler sched(0, 4, 2);
    sched.begin(1);
    sched.noteRemote(0, 1, 512);
    sim::TrafficTally tally(4);
    sched.issue(fabric, run.nodes[0], tally, sim::nullTraceSink(), 0);
    fabric.mergeTally(0, tally, run.nodes);
    EXPECT_EQ(run.nodes[0].bytesReceived, 0u);
    EXPECT_EQ(run.nodes[1].bytesSent, 0u);
    EXPECT_EQ(fabric.totalBytes(), 0u);
}

TEST(Circulant, PipelineOverlapsCommWithCompute)
{
    const Graph g = gen::cycle(64);
    const Partition partition(g, 3, 1);
    sim::Fabric fabric(partition);
    sim::RunStats run;
    run.nodes.resize(3);

    core::CirculantScheduler sched(0, 3, 1);
    sched.begin(2);
    // Embedding 0 stays local (slot 0); embedding 1 fetches from
    // unit 1.
    sched.noteRemote(1, 1, 1024);
    sim::TrafficTally tally(3);
    sched.issue(fabric, run.nodes[0], tally, sim::nullTraceSink(), 0);
    sched.chargeWork(0, 100);
    sched.chargeWork(1, 200);

    const auto t = sched.pipeline(/*cores=*/2, /*penalty=*/1.0);
    const double comm = sim::cost::transferNs(1024, 1);
    EXPECT_DOUBLE_EQ(t.computeNs, 150.0); // (100 + 200) / 2 cores
    EXPECT_DOUBLE_EQ(t.commNs, comm);
    // Slot 0's 50ns of work overlaps the transfer; the rest of the
    // transfer is exposed.
    EXPECT_DOUBLE_EQ(t.exposedNs, std::max(50.0, comm) - 50.0);
    EXPECT_GT(t.exposedNs, 0.0);
    EXPECT_LT(t.exposedNs, t.commNs);
}

TEST(Circulant, PenaltyScalesBothPaths)
{
    const Graph g = gen::cycle(64);
    const Partition partition(g, 2, 1);
    sim::Fabric fabric(partition);
    sim::RunStats run;
    run.nodes.resize(2);

    core::CirculantScheduler sched(0, 2, 1);
    sched.begin(1);
    sched.noteRemote(0, 1, 256);
    sim::TrafficTally tally(2);
    sched.issue(fabric, run.nodes[0], tally, sim::nullTraceSink(), 0);
    sched.chargeWork(0, 300);

    const auto base = sched.pipeline(1, 1.0);
    const auto slowed = sched.pipeline(1, 1.5);
    EXPECT_DOUBLE_EQ(slowed.computeNs, base.computeNs * 1.5);
    EXPECT_DOUBLE_EQ(slowed.commNs, base.commNs * 1.5);
}

TEST(Circulant, BeginClearsLedgers)
{
    const Graph g = gen::cycle(64);
    const Partition partition(g, 2, 1);
    sim::Fabric fabric(partition);
    sim::RunStats run;
    run.nodes.resize(2);

    core::CirculantScheduler sched(0, 2, 1);
    sched.begin(1);
    sched.noteRemote(0, 1, 4096);
    sim::TrafficTally tally(2);
    sched.issue(fabric, run.nodes[0], tally, sim::nullTraceSink(), 0);
    sched.chargeWork(0, 1000);

    sched.begin(1);
    const auto t = sched.pipeline(1, 1.0);
    EXPECT_DOUBLE_EQ(t.computeNs, 0.0);
    EXPECT_DOUBLE_EQ(t.commNs, 0.0);
    EXPECT_DOUBLE_EQ(t.exposedNs, 0.0);
}

} // namespace
} // namespace khuzdul
