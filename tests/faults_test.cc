/**
 * @file
 * Fault-injection and recovery tests (DESIGN.md §9): the --fault
 * spec grammar, FaultSession trigger semantics on deterministic
 * ledger state, and the engine-side recovery ladder — retry with
 * modeled backoff, chunk-granular replay, local CSR reconstruction
 * and replica rerouting.  Counts must stay exact under every plan.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/engine.hh"
#include "graph/generators.hh"
#include "pattern/bruteforce.hh"
#include "pattern/planner.hh"
#include "sim/faults.hh"
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
faultConfig(NodeId nodes = 4)
{
    core::EngineConfig config;
    config.graph.cluster = sim::ClusterConfig::paperDefault(nodes);
    config.session.chunkBytes = 64 << 10;
    config.graph.cacheDegreeThreshold = 8;
    return config;
}

// ----------------------------------------------------------------
// Spec grammar.
// ----------------------------------------------------------------

TEST(FaultPlan, ParsesEveryKind)
{
    sim::FaultPlan plan;
    plan.add("drop:0-1:msg=3");
    plan.add("timeout:*-2:msg=1:count=5");
    plan.add("degrade:*-*:factor=2.5:from=1000:until=9000");
    plan.add("down:node=3:from=500");
    ASSERT_EQ(plan.specs().size(), 4u);
    EXPECT_FALSE(plan.empty());

    const auto &drop = plan.specs()[0];
    EXPECT_EQ(drop.kind, sim::FaultKind::Drop);
    EXPECT_EQ(drop.src, 0u);
    EXPECT_EQ(drop.dst, 1u);
    EXPECT_EQ(drop.firstMsg, 3u);
    EXPECT_EQ(drop.count, 1u);

    const auto &timeout = plan.specs()[1];
    EXPECT_EQ(timeout.kind, sim::FaultKind::Timeout);
    EXPECT_EQ(timeout.src, sim::kAnyNode);
    EXPECT_EQ(timeout.dst, 2u);
    EXPECT_EQ(timeout.count, 5u);

    const auto &degrade = plan.specs()[2];
    EXPECT_EQ(degrade.kind, sim::FaultKind::Degrade);
    EXPECT_DOUBLE_EQ(degrade.factor, 2.5);
    EXPECT_DOUBLE_EQ(degrade.fromNs, 1000.0);
    EXPECT_DOUBLE_EQ(degrade.untilNs, 9000.0);

    const auto &down = plan.specs()[3];
    EXPECT_EQ(down.kind, sim::FaultKind::NodeDown);
    EXPECT_EQ(down.node, 3u);
    EXPECT_DOUBLE_EQ(down.fromNs, 500.0);
    EXPECT_DOUBLE_EQ(down.untilNs, sim::kForeverNs);
}

TEST(FaultPlan, ParsesCrashSpecs)
{
    sim::FaultPlan plan;
    plan.add("crash:5:level=2:chunk=3");
    plan.add("crash:0:level=0");
    ASSERT_EQ(plan.specs().size(), 2u);
    EXPECT_TRUE(plan.hasCrash());

    const auto &full = plan.specs()[0];
    EXPECT_EQ(full.kind, sim::FaultKind::Crash);
    EXPECT_EQ(full.unit, 5u);
    EXPECT_EQ(full.level, 2);
    EXPECT_EQ(full.chunk, 3u);

    const auto &defaulted = plan.specs()[1];
    EXPECT_EQ(defaulted.unit, 0u);
    EXPECT_EQ(defaulted.level, 0);
    EXPECT_EQ(defaulted.chunk, 1u); // chunk defaults to the first

    sim::FaultPlan no_crash;
    no_crash.add("drop:0-1:msg=1");
    EXPECT_FALSE(no_crash.hasCrash());
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    const char *bad[] = {
        "",                          // empty
        "explode:0-1:msg=1",         // unknown kind
        "drop:0-1",                  // missing msg
        "drop:01:msg=1",             // malformed link
        "drop:x-y:msg=1",            // non-numeric endpoint
        "timeout:0-1:msg=0",         // ordinals are 1-based
        "degrade:0-1:factor=0.5",    // factor < 1 would speed links up
        "degrade:0-1",               // missing factor
        "down:from=10",              // missing node
        "drop:0-1:msg=1:bogus=3",    // unknown field
        "crash:3",                   // missing level
        "crash:level=1",             // missing unit
        "crash:3:level=1:chunk=0",   // chunk ordinals are 1-based
    };
    for (const char *spec : bad) {
        sim::FaultPlan plan;
        EXPECT_THROW(plan.add(spec), FatalError) << spec;
    }
}

TEST(FaultPlan, RejectsZeroCount)
{
    // count=0 would parse as a spec that can never fire; reject it
    // loudly instead of silently running fault-free.
    sim::FaultPlan plan;
    EXPECT_THROW(plan.add("drop:0-1:msg=1:count=0"), FatalError);
    EXPECT_THROW(plan.add("timeout:*-*:msg=2:count=0"), FatalError);
}

TEST(FaultPlan, RejectsSelfLinks)
{
    // Local accesses bypass the fabric, so a 2-2 link spec can
    // never match a transfer.
    sim::FaultPlan plan;
    EXPECT_THROW(plan.add("drop:2-2:msg=1"), FatalError);
    EXPECT_THROW(plan.add("timeout:0-0:msg=1"), FatalError);
    // Wildcards may still cover loop-free pairs.
    plan.add("drop:*-2:msg=1");
    plan.add("drop:2-*:msg=1");
    EXPECT_EQ(plan.specs().size(), 2u);
}

TEST(FaultPlan, ValidateRejectsOutOfRangeIds)
{
    const auto reject = [](const char *spec) {
        sim::FaultPlan plan;
        plan.add(spec);
        EXPECT_THROW(plan.validate(4, 8), FatalError) << spec;
    };
    reject("crash:8:level=0");          // units are 0..7
    reject("down:node=4:from=0");       // nodes are 0..3
    reject("drop:4-1:msg=1");           // src out of range
    reject("timeout:1-9:msg=1");        // dst out of range

    // In-range ids (and wildcards) pass.
    sim::FaultPlan plan;
    plan.add("crash:7:level=1");
    plan.add("down:node=3:from=0");
    plan.add("drop:*-3:msg=1");
    plan.validate(4, 8);
}

// ----------------------------------------------------------------
// FaultSession trigger semantics.
// ----------------------------------------------------------------

TEST(FaultSession, DropFiresOnExactMessageOrdinal)
{
    sim::FaultPlan plan;
    plan.add("drop:0-1:msg=2:count=2");
    sim::FaultSession session(plan, 4);
    // Message 1 on link 0->1 passes, 2 and 3 drop, 4 passes again.
    EXPECT_FALSE(session.onTransfer(0, 1, 100, 1e6).faulted);
    const auto hit = session.onTransfer(0, 1, 100, 1e6);
    EXPECT_TRUE(hit.faulted);
    EXPECT_EQ(hit.kind, sim::FaultKind::Drop);
    // A drop wastes the transfer itself: the base cost is charged.
    EXPECT_DOUBLE_EQ(hit.chargeNs, 100.0);
    EXPECT_TRUE(session.onTransfer(0, 1, 100, 1e6).faulted);
    EXPECT_FALSE(session.onTransfer(0, 1, 100, 1e6).faulted);
    // Other links keep independent ordinals.
    EXPECT_FALSE(session.onTransfer(1, 0, 100, 1e6).faulted);
}

TEST(FaultSession, TimeoutChargesTheConfiguredTimeout)
{
    sim::FaultPlan plan;
    plan.add("timeout:*-*:msg=1");
    sim::FaultSession session(plan, 2);
    const auto hit = session.onTransfer(0, 1, 100, 5e5);
    EXPECT_TRUE(hit.faulted);
    EXPECT_EQ(hit.kind, sim::FaultKind::Timeout);
    EXPECT_DOUBLE_EQ(hit.chargeNs, 5e5);
}

TEST(FaultSession, DegradeMultipliesInsideItsWindow)
{
    sim::FaultPlan plan;
    plan.add("degrade:0-1:factor=3:from=0:until=250");
    sim::FaultSession session(plan, 2);
    // Inside the window: not a fault, but 3x the base charge.
    auto o = session.onTransfer(0, 1, 100, 1e6);
    EXPECT_FALSE(o.faulted);
    EXPECT_TRUE(o.degraded);
    EXPECT_DOUBLE_EQ(o.chargeNs, 300.0);
    // The charge advanced the modeled clock to 300 >= 250: the
    // window has closed and transfers price normally again.
    EXPECT_DOUBLE_EQ(session.clockNs(), 300.0);
    o = session.onTransfer(0, 1, 100, 1e6);
    EXPECT_FALSE(o.degraded);
    EXPECT_DOUBLE_EQ(o.chargeNs, 100.0);
}

TEST(FaultSession, NodeDownDominatesAndHonorsWindows)
{
    sim::FaultPlan plan;
    plan.add("down:node=1:from=0:until=1000");
    plan.add("down:node=2:from=5000");
    sim::FaultSession session(plan, 4);
    // Transfers into a down node fault regardless of link specs.
    EXPECT_TRUE(session.onTransfer(0, 1, 10, 400).faulted);
    // Windowed downtime is never "permanent" for rerouting.
    EXPECT_FALSE(session.nodePermanentlyDown(1));
    // The second spec has not opened yet at clock 400.
    EXPECT_FALSE(session.nodePermanentlyDown(2));
    session.advance(5000);
    EXPECT_TRUE(session.nodePermanentlyDown(2));
    EXPECT_TRUE(session.onTransfer(0, 2, 10, 400).faulted);
    // Node 1's window has closed meanwhile.
    EXPECT_FALSE(session.onTransfer(0, 1, 10, 400).faulted);
}

TEST(FaultSession, ResetRestartsOrdinalsAndClock)
{
    sim::FaultPlan plan;
    plan.add("drop:0-1:msg=1");
    sim::FaultSession session(plan, 2);
    EXPECT_TRUE(session.onTransfer(0, 1, 100, 1e6).faulted);
    EXPECT_FALSE(session.onTransfer(0, 1, 100, 1e6).faulted);
    session.reset();
    EXPECT_DOUBLE_EQ(session.clockNs(), 0.0);
    EXPECT_TRUE(session.onTransfer(0, 1, 100, 1e6).faulted);
}

// ----------------------------------------------------------------
// Engine recovery: counts stay exact, recovery is observable.
// ----------------------------------------------------------------

TEST(FaultRecovery, CountsAreExactUnderEveryFaultKind)
{
    const Graph g = testGraph();
    const auto plan = compileAutomine(Pattern::clique(4), {});
    const Count expected =
        brute::countEmbeddings(g, Pattern::clique(4), false);
    const char *specs[] = {
        "drop:*-*:msg=1:count=2",
        "timeout:0-1:msg=1:count=4",
        "degrade:*-*:factor=8:from=0",
        "down:node=3:from=0",
    };
    for (const char *spec : specs) {
        auto config = faultConfig();
        config.session.faults.add(spec);
        core::Engine engine(g, config);
        EXPECT_EQ(engine.run(plan), expected) << spec;
    }
}

TEST(FaultRecovery, RetriesAreCountedAndCharged)
{
    const Graph g = testGraph();
    auto config = faultConfig();
    config.session.faults.add("drop:*-*:msg=1:count=2");
    core::Engine engine(g, config);
    engine.run(compileAutomine(Pattern::triangle(), {}));
    const auto &stats = engine.stats();
    EXPECT_GT(stats.totalFaultsInjected(), 0u);
    EXPECT_GT(stats.totalFaultsRecovered(), 0u);
    EXPECT_GT(stats.totalRecoveryNs(), 0.0);
    // Recovered batches surface in the trace with matching tallies.
    const auto &trace = engine.traceCounts();
    EXPECT_EQ(trace.count(sim::PhaseEvent::FaultInjected),
              stats.totalFaultsInjected());
    EXPECT_EQ(trace.count(sim::PhaseEvent::FetchRecovered),
              stats.totalFaultsRecovered());
    // A faulted run costs more modeled time than a healthy one.
    core::Engine healthy(g, faultConfig());
    healthy.run(compileAutomine(Pattern::triangle(), {}));
    EXPECT_GT(stats.makespanNs(), healthy.stats().makespanNs());
    EXPECT_EQ(healthy.stats().totalFaultsInjected(), 0u);
}

TEST(FaultRecovery, ExhaustedChunksAreReplayedNeverDropped)
{
    // count=4 beats the default 3 retries, so at least one fetch
    // phase exhausts its batch and the chunk must replay — and the
    // count still has to be exact.
    const Graph g = testGraph();
    const auto plan = compileAutomine(Pattern::triangle(), {});
    const Count expected =
        brute::countEmbeddings(g, Pattern::triangle(), false);
    auto config = faultConfig();
    config.session.faults.add("drop:*-*:msg=1:count=4");
    core::Engine engine(g, config);
    EXPECT_EQ(engine.run(plan), expected);
    const auto &stats = engine.stats();
    EXPECT_GT(stats.totalChunksReplayed(), 0u);
    EXPECT_EQ(engine.traceCounts().count(sim::PhaseEvent::ChunkReplayed),
              stats.totalChunksReplayed());
}

TEST(FaultRecovery, RetryBudgetIsConfigurable)
{
    // With a deeper retry budget the same plan recovers without ever
    // exhausting a batch, so no chunk replays.
    const Graph g = testGraph();
    auto config = faultConfig();
    config.session.faults.add("drop:*-*:msg=1:count=4");
    config.session.faults.maxRetries = 6;
    core::Engine engine(g, config);
    engine.run(compileAutomine(Pattern::triangle(), {}));
    EXPECT_EQ(engine.stats().totalChunksReplayed(), 0u);
    EXPECT_GT(engine.stats().totalFaultsRecovered(), 0u);
}

TEST(FaultRecovery, DownNodeReroutesToLiveReplica)
{
    const Graph g = testGraph();
    const auto plan = compileAutomine(Pattern::clique(4), {});
    const Count expected =
        brute::countEmbeddings(g, Pattern::clique(4), false);
    auto config = faultConfig();
    config.session.faults.add("down:node=2:from=0");
    core::Engine engine(g, config);
    EXPECT_EQ(engine.run(plan), expected);
    const auto &stats = engine.stats();
    std::uint64_t rerouted = 0;
    std::uint64_t reconstructed = 0;
    for (const auto &node : stats.nodes) {
        rerouted += node.reroutedFetches;
        reconstructed += node.reconstructedLists;
    }
    // The ladder was exercised: every fetch that would have gone to
    // node 2 either rebuilt locally or rerouted to a replica.
    EXPECT_GT(rerouted + reconstructed, 0u);
}

TEST(FaultRecovery, AllReplicasDownIsAHardFault)
{
    const Graph g = testGraph();
    auto config = faultConfig(2);
    config.session.faults.add("down:node=0:from=0");
    config.session.faults.add("down:node=1:from=0");
    core::Engine engine(g, config);
    EXPECT_THROW(engine.run(compileAutomine(Pattern::triangle(), {})),
                 sim::FabricFault);
}

TEST(FaultRecovery, ResetStatsRestartsTheFaultSessions)
{
    // Two identical runs separated by resetStats must price
    // identically: the sessions' ordinals and clocks restart with
    // the ledger.  The cache is disabled because it (deliberately)
    // persists across resetStats and would warm the second run.
    const Graph g = testGraph();
    const auto plan = compileAutomine(Pattern::triangle(), {});
    auto config = faultConfig();
    config.graph.cachePolicy = core::CachePolicy::None;
    config.session.faults.add("drop:*-*:msg=1:count=2");
    core::Engine engine(g, config);
    engine.run(plan);
    const std::string first = engine.stats().toJson(false);
    engine.resetStats();
    engine.run(plan);
    EXPECT_EQ(engine.stats().toJson(false), first);
}

// ----------------------------------------------------------------
// Crash recovery (DESIGN.md §9): checkpoints, adoption, resilience.
// ----------------------------------------------------------------

TEST(CrashRecovery, CountsExactAndAdoptionObservable)
{
    const Graph g = testGraph();
    const auto plan = compileAutomine(Pattern::triangle(), {});
    const Count expected =
        brute::countEmbeddings(g, Pattern::triangle(), false);
    auto config = faultConfig();
    config.session.faults.add("crash:1:level=1:chunk=1");
    core::Engine engine(g, config);
    EXPECT_EQ(engine.run(plan), expected);

    const auto &stats = engine.stats();
    EXPECT_EQ(stats.totalUnitCrashes(), 1u);
    EXPECT_GT(stats.totalCheckpoints(), 0u);
    EXPECT_GT(stats.totalChunksAdopted(), 0u);
    EXPECT_GT(stats.totalCheckpointOverheadNs(), 0.0);
    EXPECT_GT(stats.totalAdoptionNs(), 0.0);
    // The dead unit keeps nothing past its snapshot; survivors pay
    // for what they adopted, so the run costs more than healthy.
    core::Engine healthy(g, faultConfig());
    healthy.run(plan);
    EXPECT_GT(stats.makespanNs(), healthy.stats().makespanNs());
    // Trace tallies mirror the stats ledger exactly.
    const auto &trace = engine.traceCounts();
    EXPECT_EQ(trace.count(sim::PhaseEvent::UnitCrashed), 1u);
    EXPECT_EQ(trace.count(sim::PhaseEvent::ChunkAdopted),
              stats.totalChunksAdopted());
    EXPECT_EQ(trace.count(sim::PhaseEvent::Checkpoint),
              stats.totalCheckpoints());
    // And the JSON block reports the same story.
    const std::string json = engine.stats().toJson(false);
    EXPECT_NE(json.find("\"recovery\": {\"checkpoints\": "),
              std::string::npos);
    EXPECT_EQ(json.find("\"crashes\": 0"), std::string::npos);
}

TEST(CrashRecovery, CrashWithStealStaysExact)
{
    const Graph g = testGraph();
    const auto plan = compileAutomine(Pattern::clique(4), {});
    const Count expected =
        brute::countEmbeddings(g, Pattern::clique(4), false);
    auto config = faultConfig();
    config.session.faults.add("crash:2:level=1:chunk=1");
    config.session.stealEnabled = true;
    config.session.stealBacklogThresholdNs = 2.0e3;
    core::Engine engine(g, config);
    EXPECT_EQ(engine.run(plan), expected);
    EXPECT_EQ(engine.stats().totalUnitCrashes(), 1u);
}

TEST(CrashRecovery, ResetStatsRestartsCrashState)
{
    const Graph g = testGraph();
    const auto plan = compileAutomine(Pattern::triangle(), {});
    auto config = faultConfig();
    config.graph.cachePolicy = core::CachePolicy::None;
    config.session.faults.add("crash:0:level=0:chunk=1");
    core::Engine engine(g, config);
    engine.run(plan);
    const std::string first = engine.stats().toJson(false);
    engine.resetStats();
    engine.run(plan);
    EXPECT_EQ(engine.stats().toJson(false), first);
}

TEST(CrashRecovery, NoSurvivorsIsAHardFault)
{
    // Every unit of a 1-node cluster crashes at its first chunk:
    // nobody is left to adopt, which is unrecoverable by design.
    const Graph g = testGraph();
    auto config = faultConfig(1);
    const unsigned units = config.graph.cluster.socketsPerNode;
    for (unsigned u = 0; u < units; ++u)
        config.session.faults.add("crash:" + std::to_string(u)
                          + ":level=0:chunk=1");
    core::Engine engine(g, config);
    EXPECT_THROW(engine.run(compileAutomine(Pattern::triangle(), {})),
                 sim::FabricFault);
}

TEST(CrashRecovery, OutOfRangeCrashUnitRejectedAtConstruction)
{
    const Graph g = testGraph();
    auto config = faultConfig(); // 4 nodes x 2 sockets = 8 units
    config.session.faults.add("crash:8:level=0");
    EXPECT_THROW(core::Engine(g, config), FatalError);
}

TEST(CrashRecovery, CheckpointsChargeOnlyWhenArmed)
{
    const Graph g = testGraph();
    const auto plan = compileAutomine(Pattern::triangle(), {});
    core::Engine off(g, faultConfig());
    const Count expected = off.run(plan);
    const double off_makespan = off.stats().makespanNs();
    EXPECT_EQ(off.stats().totalCheckpoints(), 0u);
    EXPECT_DOUBLE_EQ(off.stats().totalCheckpointOverheadNs(), 0.0);

    auto config = faultConfig();
    config.session.checkpointEnabled = true;
    core::Engine on(g, config);
    EXPECT_EQ(on.run(plan), expected);
    EXPECT_GT(on.stats().totalCheckpoints(), 0u);
    EXPECT_GT(on.stats().totalCheckpointOverheadNs(), 0.0);
    EXPECT_GT(on.stats().makespanNs(), off_makespan);
}

TEST(CrashRecovery, DeadlineThrowsTypedError)
{
    const Graph g = testGraph();
    auto config = faultConfig();
    config.session.deadlineNs = 1.0; // far below any real modeled run
    core::Engine engine(g, config);
    EXPECT_THROW(engine.run(compileAutomine(Pattern::triangle(), {})),
                 sim::DeadlineExceeded);

    // A generous deadline never fires and never perturbs the run.
    auto relaxed = faultConfig();
    relaxed.session.deadlineNs = 1.0e18;
    core::Engine slack(g, relaxed);
    core::Engine plain(g, faultConfig());
    const auto plan = compileAutomine(Pattern::triangle(), {});
    EXPECT_EQ(slack.run(plan), plain.run(plan));
    EXPECT_EQ(slack.stats().toJson(false),
              plain.stats().toJson(false));
}

TEST(FaultRecovery, FaultsBlockAppearsInJson)
{
    const Graph g = testGraph();
    auto config = faultConfig();
    config.session.faults.add("timeout:*-*:msg=1:count=2");
    core::Engine engine(g, config);
    engine.run(compileAutomine(Pattern::triangle(), {}));
    const std::string json = engine.stats().toJson(false);
    EXPECT_NE(json.find("\"faults\": {\"injected\": "),
              std::string::npos);
    EXPECT_NE(json.find("\"chunks_replayed\": "), std::string::npos);
    EXPECT_NE(json.find("\"recovery_ns\": "), std::string::npos);
    EXPECT_EQ(json.find("\"injected\": 0"), std::string::npos);
}

} // namespace
} // namespace khuzdul
