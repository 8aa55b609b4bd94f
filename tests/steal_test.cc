/**
 * @file
 * Unit tests for the deterministic steal planner (DESIGN.md §11):
 * decision determinism, the makespan-never-increases invariant,
 * threshold gating, tie-breaking, the fault-free base pipeline the
 * planner prices migrations with, and the column wire format.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/circulant.hh"
#include "core/steal/steal.hh"
#include "graph/generators.hh"
#include "graph/partition.hh"
#include "sim/cost_model.hh"
#include "sim/fabric.hh"
#include "sim/faults.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace khuzdul
{
namespace
{

/** Four single-socket nodes: unit u == node u. */
struct PlannerRig
{
    Graph g = gen::cycle(64);
    Partition partition{g, 4, 1};
    sim::Fabric fabric{partition};
};

core::ChunkRecord
chunk(unsigned unit, double compute_ns, double exposed_ns,
      std::uint32_t embeddings = 100, int level = 1)
{
    core::ChunkRecord rec;
    rec.unit = unit;
    rec.level = level;
    rec.embeddings = embeddings;
    rec.columnBytes = core::columnWireBytes(embeddings, level);
    rec.computeNs = compute_ns;
    rec.exposedNs = exposed_ns;
    rec.commNs = exposed_ns * 1.2;
    // Fault-free prices a healthy thief would pay.
    rec.baseCommNs = rec.commNs * 0.8;
    rec.baseExposedNs = exposed_ns * 0.8;
    return rec;
}

TEST(ColumnWireBytes, CountsPrefixPathPlusFlagWord)
{
    // level+1 vertices per embedding plus one 32-bit word.
    EXPECT_EQ(core::columnWireBytes(10, 2),
              10u * (3 * sizeof(VertexId) + sizeof(std::uint32_t)));
    EXPECT_EQ(core::columnWireBytes(0, 5), 0u);
    EXPECT_EQ(core::columnWireBytes(1, 0),
              sizeof(VertexId) + sizeof(std::uint32_t));
}

TEST(StealPlanner, DrainsTheStragglerOntoIdlePeers)
{
    PlannerRig rig;
    const core::StealPlanner planner(rig.fabric, 1.0e5);

    std::vector<std::vector<core::ChunkRecord>> pending(4);
    for (int i = 0; i < 3; ++i)
        pending[3].push_back(chunk(3, 2.0e5, 5.0e4));
    std::vector<double> finish = {1.0e5, 1.0e5, 1.0e5, 2.0e6};

    const auto decisions = planner.plan(pending, finish);
    ASSERT_EQ(decisions.size(), 3u);
    for (const core::StealDecision &d : decisions) {
        EXPECT_EQ(d.victim, 3u);
        EXPECT_GT(d.transferNs, 0.0);
        EXPECT_EQ(d.chunk.columnBytes,
                  core::columnWireBytes(d.chunk.embeddings,
                                        d.chunk.level));
    }
    // The earliest-finish thief rotates as each one absorbs a chunk.
    EXPECT_EQ(decisions[0].thief, 0u);
    EXPECT_EQ(decisions[1].thief, 1u);
    EXPECT_EQ(decisions[2].thief, 2u);
}

TEST(StealPlanner, PlanIsDeterministic)
{
    PlannerRig rig;
    const core::StealPlanner planner(rig.fabric, 1.0e4);

    std::vector<std::vector<core::ChunkRecord>> pending(4);
    for (int i = 0; i < 4; ++i)
        pending[2].push_back(chunk(2, 1.0e5 + i * 7.0e3, 3.0e4));
    pending[1].push_back(chunk(1, 9.0e4, 1.0e4));
    const std::vector<double> finish = {5.0e4, 6.0e5, 1.4e6, 8.0e4};

    const auto a = planner.plan(pending, finish);
    const auto b = planner.plan(pending, finish);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].thief, b[i].thief) << i;
        EXPECT_EQ(a[i].victim, b[i].victim) << i;
        EXPECT_EQ(a[i].transferNs, b[i].transferNs) << i;
        EXPECT_EQ(a[i].chunk.computeNs, b[i].chunk.computeNs) << i;
    }
    EXPECT_FALSE(a.empty());
}

TEST(StealPlanner, MakespanNeverIncreases)
{
    PlannerRig rig;
    const core::StealPlanner planner(rig.fabric, 1.0e4);
    const double handshake = sim::cost::stealHandshakeNs;

    std::vector<std::vector<core::ChunkRecord>> pending(4);
    for (int i = 0; i < 5; ++i)
        pending[0].push_back(chunk(0, 1.5e5, 4.0e4, 200 + 50 * i));
    pending[2].push_back(chunk(2, 8.0e4, 2.0e4));
    std::vector<double> finish = {1.8e6, 2.0e5, 9.0e5, 1.0e5};
    const double before =
        *std::max_element(finish.begin(), finish.end());

    const auto decisions = planner.plan(pending, finish);
    ASSERT_FALSE(decisions.empty());
    // Replay the commit arithmetic the engine applies per decision.
    for (const core::StealDecision &d : decisions) {
        finish[d.thief] += handshake + d.transferNs
            + d.chunk.computeNs + d.chunk.baseExposedNs;
        finish[d.victim] +=
            handshake - (d.chunk.computeNs + d.chunk.exposedNs);
    }
    const double after =
        *std::max_element(finish.begin(), finish.end());
    EXPECT_LE(after, before);
}

TEST(StealPlanner, ThresholdGatesDonation)
{
    PlannerRig rig;
    std::vector<std::vector<core::ChunkRecord>> pending(4);
    for (int i = 0; i < 3; ++i)
        pending[3].push_back(chunk(3, 2.0e5, 5.0e4));
    const std::vector<double> finish = {1.0e5, 1.0e5, 1.0e5, 2.0e6};

    // The same scenario that yields three migrations above plans
    // nothing once the backlog threshold exceeds the ledger.
    const core::StealPlanner strict(rig.fabric, 1.0e9);
    EXPECT_TRUE(strict.plan(pending, finish).empty());
    const core::StealPlanner lax(rig.fabric, 1.0e5);
    EXPECT_EQ(lax.plan(pending, finish).size(), 3u);
}

TEST(StealPlanner, TieBreaksPickLowestUnitIndex)
{
    PlannerRig rig;
    const core::StealPlanner planner(rig.fabric, 1.0e4);

    // Units 1 and 2 carry identical backlogs; every unit finishes at
    // the same time.  The victim must be 1 (lowest of the richest)
    // and the thief 0 (lowest of the earliest finishers).
    std::vector<std::vector<core::ChunkRecord>> pending(4);
    pending[1].push_back(chunk(1, 3.0e5, 5.0e4));
    pending[2].push_back(chunk(2, 3.0e5, 5.0e4));
    const std::vector<double> finish = {4.0e5, 9.0e5, 9.0e5, 4.0e5};

    const auto decisions = planner.plan(pending, finish);
    ASSERT_FALSE(decisions.empty());
    EXPECT_EQ(decisions[0].victim, 1u);
    EXPECT_EQ(decisions[0].thief, 0u);
}

TEST(StealPlanner, UnprofitableMigrationsAreRejected)
{
    PlannerRig rig;
    const core::StealPlanner planner(rig.fabric, 1.0e3);

    // Shedding a chunk cheaper than the handshake can only hurt the
    // victim; the planner must leave it alone.
    std::vector<std::vector<core::ChunkRecord>> pending(4);
    pending[3].push_back(
        chunk(3, sim::cost::stealHandshakeNs * 0.4,
              sim::cost::stealHandshakeNs * 0.4));
    const std::vector<double> finish = {0, 0, 0, 1.0e6};
    EXPECT_TRUE(planner.plan(pending, finish).empty());
}

TEST(StealPlanner, FewerThanTwoUnitsPlanNothing)
{
    PlannerRig rig;
    const core::StealPlanner planner(rig.fabric, 0.0);
    std::vector<std::vector<core::ChunkRecord>> pending(1);
    pending[0].push_back(chunk(0, 1.0e6, 1.0e5));
    EXPECT_TRUE(planner.plan(pending, {5.0e6}).empty());
    EXPECT_TRUE(planner.plan({}, {}).empty());
}

TEST(BasePipeline, MatchesPipelineOnAHealthyFabric)
{
    // With no faults the successful attempt is the only attempt, so
    // the clean prices equal the charged prices exactly.
    const Graph g = gen::cycle(64);
    const Partition partition(g, 2, 1);
    sim::Fabric fabric(partition);
    sim::RunStats run;
    run.nodes.resize(2);

    core::CirculantScheduler sched(0, 2, 1);
    sched.begin(2);
    sched.noteRemote(0, 1, 1024);
    sched.noteRemote(1, 1, 2048);
    sim::TrafficTally tally(2);
    sched.issue(fabric, run.nodes[0], tally, sim::nullTraceSink(), 0);
    sched.chargeWork(0, 500);
    sched.chargeWork(1, 700);

    const auto full = sched.pipeline(2, 1.0);
    const auto base = sched.basePipeline(2, 1.0);
    EXPECT_DOUBLE_EQ(base.computeNs, full.computeNs);
    EXPECT_DOUBLE_EQ(base.commNs, full.commNs);
    EXPECT_DOUBLE_EQ(base.exposedNs, full.exposedNs);
}

TEST(BasePipeline, ChargesCleanPricesUnderDegrade)
{
    // A degraded link inflates the charged transfer but not the
    // fault-free base price the steal planner hands a healthy thief.
    const Graph g = gen::cycle(64);
    const Partition partition(g, 2, 1);
    sim::Fabric fabric(partition);
    sim::NodeStats stats;
    sim::TrafficTally tally(2);

    sim::FaultPlan plan;
    plan.add("degrade:*-*:factor=4:from=0");
    sim::FaultSession session(plan, 2);

    core::CirculantScheduler sched(0, 2, 1);
    sched.begin(1);
    sched.noteRemote(0, 1, 4096);
    ASSERT_TRUE(sched.issue(fabric, stats, tally, sim::nullTraceSink(),
                            0, &session));
    sched.chargeWork(0, 100);

    const auto full = sched.pipeline(1, 1.0);
    const auto base = sched.basePipeline(1, 1.0);
    const double clean = sim::cost::transferNs(4096, 1);
    EXPECT_DOUBLE_EQ(base.commNs, clean);
    EXPECT_GT(full.commNs, base.commNs);
    EXPECT_DOUBLE_EQ(base.computeNs, full.computeNs);
    EXPECT_LE(base.exposedNs, full.exposedNs);
}

} // namespace
} // namespace khuzdul
