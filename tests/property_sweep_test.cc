/**
 * @file
 * Parameterized property sweeps (TEST_P): exact-count invariance of
 * the distributed engine across the full configuration lattice
 * (cluster shape x chunk budget x cache policy x sharing switches),
 * cross-engine agreement over a pattern zoo, and plan-compiler
 * invariants over random patterns.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "core/engine.hh"
#include "core/service/service.hh"
#include "engines/graphpi_rep.hh"
#include "engines/gthinker.hh"
#include "engines/khuzdul_system.hh"
#include "engines/move_computation.hh"
#include "engines/single_machine.hh"
#include "graph/generators.hh"
#include "pattern/bruteforce.hh"
#include "pattern/isomorphism.hh"
#include "pattern/planner.hh"
#include "support/rng.hh"

namespace khuzdul
{
namespace
{

const Graph &
sweepGraph()
{
    static const Graph g = gen::rmat(220, 1500, 0.55, 0.2, 0.2, 4242);
    return g;
}

Count
oracle(const Pattern &p)
{
    static std::map<std::string, Count> memo;
    const std::string key = p.toString();
    auto it = memo.find(key);
    if (it == memo.end())
        it = memo.emplace(key,
                          brute::countEmbeddings(sweepGraph(), p,
                                                 false)).first;
    return it->second;
}

/** (nodes, sockets, chunkBytes, policy, hds, numa) */
using EngineAxis =
    std::tuple<NodeId, unsigned, std::uint64_t, core::CachePolicy,
               bool, bool>;

class EngineConfigSweep : public testing::TestWithParam<EngineAxis>
{
};

TEST_P(EngineConfigSweep, CountsAreConfigurationInvariant)
{
    const auto [nodes, sockets, chunk, policy, hds, numa] = GetParam();
    core::EngineConfig config;
    config.graph.cluster = sim::ClusterConfig::paperDefault(nodes);
    config.graph.cluster.socketsPerNode = sockets;
    config.graph.cluster.commCoresPerNode = 2;
    config.session.chunkBytes = chunk;
    config.graph.cachePolicy = policy;
    config.graph.horizontalSharing = hds;
    config.graph.numaAware = numa;
    config.graph.cacheDegreeThreshold = 8;
    core::Engine engine(sweepGraph(), config);
    for (const Pattern &p :
         {Pattern::triangle(), Pattern::clique(4), Pattern::diamond()}) {
        const auto plan = compileAutomine(p, {});
        EXPECT_EQ(engine.run(plan), oracle(p)) << p.toString();
    }
}

INSTANTIATE_TEST_SUITE_P(
    ClusterShapes, EngineConfigSweep,
    testing::Combine(
        testing::Values<NodeId>(1, 2, 5, 8),
        testing::Values<unsigned>(1, 2),
        testing::Values<std::uint64_t>(2 << 10, 1 << 20),
        testing::Values(core::CachePolicy::Static),
        testing::Values(true),
        testing::Values(true, false)));

INSTANTIATE_TEST_SUITE_P(
    CacheAndSharing, EngineConfigSweep,
    testing::Combine(
        testing::Values<NodeId>(4),
        testing::Values<unsigned>(2),
        testing::Values<std::uint64_t>(8 << 10),
        testing::Values(core::CachePolicy::None,
                        core::CachePolicy::Static,
                        core::CachePolicy::Fifo,
                        core::CachePolicy::Lifo,
                        core::CachePolicy::Lru,
                        core::CachePolicy::Mru),
        testing::Values(true, false),
        testing::Values(true)));

/** Every engine in the repository agrees on every zoo pattern. */
class EngineZoo : public testing::TestWithParam<int>
{
  public:
    static std::vector<Pattern>
    zoo()
    {
        return {Pattern::triangle(),       Pattern::clique(4),
                Pattern::clique(5),        Pattern::pathOf(4),
                Pattern::cycleOf(4),       Pattern::cycleOf(5),
                Pattern::starOf(4),        Pattern::tailedTriangle(),
                Pattern::diamond(),        Pattern::house()};
    }
};

TEST_P(EngineZoo, AllEnginesAgree)
{
    const Pattern p = zoo()[GetParam()];
    const Graph &g = sweepGraph();
    const Count expected = oracle(p);

    core::EngineConfig config;
    config.graph.cluster = sim::ClusterConfig::paperDefault(3);
    config.session.chunkBytes = 16 << 10;
    auto automine = engines::KhuzdulSystem::kAutomine(g, config);
    EXPECT_EQ(automine->count(p), expected) << "k-Automine";
    auto graphpi = engines::KhuzdulSystem::kGraphPi(g, config);
    EXPECT_EQ(graphpi->count(p), expected) << "k-GraphPi";

    engines::GraphPiRepConfig rep_config;
    rep_config.cluster = sim::ClusterConfig::paperDefault(3);
    engines::GraphPiRepEngine rep(g, rep_config);
    EXPECT_EQ(rep.count(p).count, expected) << "GraphPi(rep)";

    engines::GThinkerConfig gt_config;
    gt_config.cluster = sim::ClusterConfig::singleSocket(3);
    engines::GThinkerEngine gthinker(g, gt_config);
    EXPECT_EQ(gthinker.count(p).count, expected) << "G-thinker";

    engines::MoveComputationConfig mc_config;
    mc_config.cluster = sim::ClusterConfig::paperDefault(3);
    engines::MoveComputationEngine mover(g, mc_config);
    EXPECT_EQ(mover.count(p).count, expected) << "aDFS-like";

    engines::SingleMachineConfig sm_config;
    for (const auto style :
         {engines::SingleMachineStyle::AutomineIH,
          engines::SingleMachineStyle::PeregrineLike,
          engines::SingleMachineStyle::PangolinLike}) {
        engines::SingleMachineEngine sm(g, style, sm_config);
        EXPECT_EQ(sm.count(p).count, expected)
            << "single-machine style "
            << static_cast<int>(style);
    }
}

INSTANTIATE_TEST_SUITE_P(PatternZoo, EngineZoo,
                         testing::Range(0, 10));

/** Random-pattern plan-compiler invariants. */
class RandomPatternPlans : public testing::TestWithParam<int>
{
  public:
    static Pattern
    randomConnectedPattern(std::uint64_t seed)
    {
        Rng rng(seed);
        const int n = 3 + static_cast<int>(rng.nextBounded(3));
        while (true) {
            Pattern p(n);
            for (int u = 0; u < n; ++u)
                for (int v = u + 1; v < n; ++v)
                    if (rng.coin(0.55))
                        p.addEdge(u, v);
            if (p.connected())
                return p;
        }
    }
};

TEST_P(RandomPatternPlans, CompilersAgreeWithOracle)
{
    const Pattern p = randomConnectedPattern(9000 + GetParam());
    const Graph &g = sweepGraph();
    const Count expected = oracle(p);
    const GraphProfile profile = GraphProfile::fromGraph(g);

    const auto automine_plan = compileAutomine(p, {});
    EXPECT_EQ(core::countWithPlan(g, automine_plan), expected)
        << p.toString();
    const auto graphpi_plan = compileGraphPi(p, profile, {});
    EXPECT_EQ(core::countWithPlan(g, graphpi_plan), expected)
        << p.toString();
}

TEST_P(RandomPatternPlans, RestrictionCountTimesAutEqualsOrdered)
{
    // The fundamental symmetry-breaking identity: restricted count
    // x |Aut| == unrestricted ordered count.
    const Pattern p = randomConnectedPattern(7000 + GetParam());
    const Graph &g = sweepGraph();

    PlanOptions no_breaking;
    no_breaking.symmetryBreaking = false;
    no_breaking.useIep = false;
    const auto free_plan = compileAutomine(p, no_breaking);
    std::vector<VertexId> roots(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        roots[v] = v;
    const auto free_run = core::runPlanDfs(g, free_plan, roots);

    const auto strict_plan = compileAutomine(p, {});
    const auto strict_run = core::runPlanDfs(g, strict_plan, roots);

    const auto aut = static_cast<std::int64_t>(
        iso::automorphisms(p).size());
    EXPECT_EQ(strict_run.rawCount * aut, free_run.rawCount)
        << p.toString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPatternPlans,
                         testing::Range(0, 12));

/**
 * Kernel-choice invariance: under every --kernel mode — and with the
 * SIMD tier forced off via the kill switch — the engine's counts
 * match the brute-force oracle, and every modeled artifact (the full
 * host-free RunStats dump, the per-link fabric ledger, the ordered
 * phase-event tallies) is bit-identical.  Kernels only change host
 * wall-clock, never the simulated machine (DESIGN.md §5.6).
 */
class KernelModeSweep : public testing::TestWithParam<core::KernelMode>
{
};

/** Holds the SIMD kill switch off for its scope, restoring it also
 *  when an ASSERT returns early. */
struct SimdOff
{
    SimdOff() { core::setSimdEnabled(false); }
    ~SimdOff() { core::setSimdEnabled(true); }
};

TEST_P(KernelModeSweep, CountsAndModeledTimeAreModeInvariant)
{
    const Graph &g = sweepGraph();
    core::EngineConfig config;
    config.graph.cluster = sim::ClusterConfig::paperDefault(4);
    config.session.chunkBytes = 16 << 10;
    config.graph.hubBitmapDegreeThreshold = 8;

    core::EngineConfig reference_config = config;
    reference_config.session.kernelMode = core::KernelMode::Merge;
    config.session.kernelMode = GetParam();

    const auto expectModeledArtifactsEqual =
        [&](core::Engine &engine, core::Engine &reference,
            const char *what) {
            EXPECT_EQ(engine.stats().toJson(false),
                      reference.stats().toJson(false))
                << what;
            const NodeId nodes = config.graph.cluster.numNodes;
            for (NodeId src = 0; src < nodes; ++src)
                for (NodeId dst = 0; dst < nodes; ++dst) {
                    EXPECT_EQ(engine.fabric().linkBytes(src, dst),
                              reference.fabric().linkBytes(src, dst))
                        << what << " " << src << "<-" << dst;
                    EXPECT_EQ(engine.fabric().linkMessages(src, dst),
                              reference.fabric().linkMessages(src, dst))
                        << what << " " << src << "<-" << dst;
                }
            for (std::size_t e = 0; e < sim::kNumPhaseEvents; ++e) {
                const auto event = static_cast<sim::PhaseEvent>(e);
                EXPECT_EQ(engine.traceCounts().count(event),
                          reference.traceCounts().count(event))
                    << what << " " << sim::phaseEventName(event);
                EXPECT_EQ(engine.traceCounts().valueSum(event),
                          reference.traceCounts().valueSum(event))
                    << what << " " << sim::phaseEventName(event);
            }
        };

    for (const Pattern &p :
         {Pattern::triangle(), Pattern::clique(4), Pattern::cycleOf(4),
          Pattern::diamond(), Pattern::house()}) {
        const auto plan = compileAutomine(p, {});
        core::Engine reference(g, reference_config);
        core::Engine engine(g, config);
        EXPECT_EQ(engine.run(plan), oracle(p)) << p.toString();
        ASSERT_EQ(reference.run(plan), oracle(p)) << p.toString();
        {
            // The dispatcher's SIMD-merge choice reads the switch when
            // the engine is built, the bitmap probes on every call, so
            // the switch stays off across this engine's build and run.
            const SimdOff scalar;
            core::Engine scalar_engine(g, config);
            EXPECT_EQ(scalar_engine.run(plan), oracle(p)) << p.toString();
            expectModeledArtifactsEqual(scalar_engine, reference,
                                        p.toString().c_str());
        }
        EXPECT_EQ(engine.stats().makespanNs(),
                  reference.stats().makespanNs())
            << p.toString();
        std::uint64_t items = 0;
        std::uint64_t ref_items = 0;
        for (std::size_t u = 0; u < engine.stats().nodes.size(); ++u) {
            items += engine.stats().nodes[u].intersectionItems;
            ref_items += reference.stats().nodes[u].intersectionItems;
        }
        EXPECT_EQ(items, ref_items) << p.toString();

        expectModeledArtifactsEqual(engine, reference, p.toString().c_str());
    }
}

INSTANTIATE_TEST_SUITE_P(Modes, KernelModeSweep,
                         testing::Values(core::KernelMode::Auto,
                                         core::KernelMode::Merge,
                                         core::KernelMode::Gallop,
                                         core::KernelMode::Bitmap));

/**
 * Host-thread invariance: running the simulated units on any number
 * of host threads (0 = all hardware threads) must leave every
 * modeled result — counts, the full RunStats dump, the per-link
 * fabric ledger, the phase-event tallies — byte-identical to the
 * sequential run.  This is the determinism contract of the parallel
 * unit runtime (DESIGN.md §6).
 */
class HostThreadSweep : public testing::TestWithParam<unsigned>
{
};

TEST_P(HostThreadSweep, ModeledResultsAreThreadCountInvariant)
{
    const Graph &g = sweepGraph();
    core::EngineConfig config;
    config.graph.cluster = sim::ClusterConfig::paperDefault(4);
    config.session.chunkBytes = 16 << 10;
    config.graph.cacheDegreeThreshold = 8;

    core::EngineConfig reference_config = config;
    reference_config.session.hostThreads = 1;
    config.session.hostThreads = GetParam();

    core::Engine reference(g, reference_config);
    core::Engine engine(g, config);
    for (const Pattern &p :
         {Pattern::triangle(), Pattern::clique(4), Pattern::cycleOf(4),
          Pattern::diamond(), Pattern::house()}) {
        const auto plan = compileAutomine(p, {});
        ASSERT_EQ(reference.run(plan), oracle(p)) << p.toString();
        EXPECT_EQ(engine.run(plan), oracle(p)) << p.toString();
    }

    // The purely modeled dump (host block excluded) is compared as
    // one string: any drifting double or counter shows up here.
    EXPECT_EQ(engine.stats().toJson(false),
              reference.stats().toJson(false));
    // Each unit's candidate memo lives in its own extender, so even
    // the host-side memo tallies are thread-count invariant.
    EXPECT_GT(reference.stats().candidateMemoHits, 0u);
    EXPECT_EQ(engine.stats().candidateMemoLookups,
              reference.stats().candidateMemoLookups);
    EXPECT_EQ(engine.stats().candidateMemoHits,
              reference.stats().candidateMemoHits);

    // Per-link fabric ledger, byte for byte and message for message.
    const NodeId nodes = config.graph.cluster.numNodes;
    EXPECT_EQ(engine.fabric().totalBytes(),
              reference.fabric().totalBytes());
    for (NodeId src = 0; src < nodes; ++src)
        for (NodeId dst = 0; dst < nodes; ++dst) {
            EXPECT_EQ(engine.fabric().linkBytes(src, dst),
                      reference.fabric().linkBytes(src, dst))
                << src << "<-" << dst;
            EXPECT_EQ(engine.fabric().linkMessages(src, dst),
                      reference.fabric().linkMessages(src, dst))
                << src << "<-" << dst;
        }

    // The ordered trace replay reproduces the sequential stream.
    for (std::size_t e = 0; e < sim::kNumPhaseEvents; ++e) {
        const auto event = static_cast<sim::PhaseEvent>(e);
        EXPECT_EQ(engine.traceCounts().count(event),
                  reference.traceCounts().count(event))
            << sim::phaseEventName(event);
        EXPECT_EQ(engine.traceCounts().valueSum(event),
                  reference.traceCounts().valueSum(event))
            << sim::phaseEventName(event);
    }
}

INSTANTIATE_TEST_SUITE_P(Threads, HostThreadSweep,
                         testing::Values(1u, 2u, 4u, 0u));

/**
 * Fault plans x steal x host threads: injected faults and the
 * recovery ladder must preserve exact counts, and for a fixed plan
 * the whole modeled result must stay byte-identical at every thread
 * count (DESIGN.md §9) — fault triggers read only per-unit ledger
 * state, never host conditions.  The steal axis crosses every plan
 * (degrade and down included) with the post-barrier steal pass: the
 * planner prices backlogs that the faults themselves created, and
 * the determinism contract must hold through that interaction too.
 */
using FaultAxis = std::tuple<const char *, bool, unsigned>;

class FaultSweep : public testing::TestWithParam<FaultAxis>
{
};

TEST_P(FaultSweep, FaultedRunsKeepCountsAndThreadInvariance)
{
    const auto [spec, steal, threads] = GetParam();
    const Graph &g = sweepGraph();
    core::EngineConfig config;
    config.graph.cluster = sim::ClusterConfig::paperDefault(4);
    config.session.chunkBytes = 16 << 10;
    config.graph.cacheDegreeThreshold = 8;
    config.session.stealEnabled = steal;
    config.session.stealBacklogThresholdNs = 2.0e3;
    config.session.faults.add(spec);

    core::EngineConfig reference_config = config;
    reference_config.session.hostThreads = 1;
    config.session.hostThreads = threads;

    core::Engine reference(g, reference_config);
    core::Engine engine(g, config);
    for (const Pattern &p :
         {Pattern::triangle(), Pattern::clique(4),
          Pattern::cycleOf(4), Pattern::diamond()}) {
        const auto plan = compileAutomine(p, {});
        // Counts under faults equal the fault-free oracle exactly.
        ASSERT_EQ(reference.run(plan), oracle(p)) << p.toString();
        EXPECT_EQ(engine.run(plan), oracle(p)) << p.toString();
    }

    // Same plan, different thread count: bit-identical modeled dump
    // (including the faults block), ledger and trace tallies.
    EXPECT_EQ(engine.stats().toJson(false),
              reference.stats().toJson(false));
    const NodeId nodes = config.graph.cluster.numNodes;
    for (NodeId src = 0; src < nodes; ++src)
        for (NodeId dst = 0; dst < nodes; ++dst)
            EXPECT_EQ(engine.fabric().linkBytes(src, dst),
                      reference.fabric().linkBytes(src, dst))
                << src << "<-" << dst;
    for (std::size_t e = 0; e < sim::kNumPhaseEvents; ++e) {
        const auto event = static_cast<sim::PhaseEvent>(e);
        EXPECT_EQ(engine.traceCounts().count(event),
                  reference.traceCounts().count(event))
            << sim::phaseEventName(event);
        EXPECT_EQ(engine.traceCounts().valueSum(event),
                  reference.traceCounts().valueSum(event))
            << sim::phaseEventName(event);
    }

    // The plan actually did something on the reference run.
    EXPECT_GT(reference.stats().totalFaultsInjected()
                  + reference.stats().totalRecoveryNs(),
              0.0);
}

INSTANTIATE_TEST_SUITE_P(
    PlansAndThreads, FaultSweep,
    testing::Combine(
        testing::Values("drop:*-*:msg=1:count=2",
                        "timeout:0-1:msg=1:count=6",
                        "degrade:*-*:factor=5:from=0",
                        "down:node=3:from=0",
                        "drop:*-*:msg=1:count=4"),
        testing::Bool(),
        testing::Values(1u, 2u, 4u, 8u)));

/**
 * Steal pass x fault plans x host threads (DESIGN.md §11): with the
 * deterministic post-barrier steal pass enabled, counts must still
 * equal the fault-free oracle AND the steal-off run of the same
 * plan, and every modeled artifact — the full host-free stats dump
 * (including the steals block), the per-link fabric ledger (steal
 * commits record transfers), the ordered StealIssued/StealCompleted
 * trace tallies — must be bit-identical at every host thread count.
 * The planner reads only merged modeled state, so the stolen
 * schedule is as reproducible as the unstolen one.
 */
using StealAxis = std::tuple<const char *, unsigned>;

class StealSweep : public testing::TestWithParam<StealAxis>
{
};

TEST_P(StealSweep, StolenRunsKeepCountsAndThreadInvariance)
{
    const auto [spec, threads] = GetParam();
    const Graph &g = sweepGraph();
    core::EngineConfig config;
    config.graph.cluster = sim::ClusterConfig::paperDefault(4);
    config.session.chunkBytes = 4 << 10;
    config.graph.cacheDegreeThreshold = 8;
    config.session.stealEnabled = true;
    // The sweep graph is ~1000x smaller than the bench stand-ins, so
    // the default 100us backlog threshold would gate every donation;
    // drop it to the scale of this graph's chunk ledgers.
    config.session.stealBacklogThresholdNs = 2.0e3;
    if (*spec)
        config.session.faults.add(spec);

    core::EngineConfig reference_config = config;
    reference_config.session.hostThreads = 1;
    config.session.hostThreads = threads;

    core::EngineConfig off_config = reference_config;
    off_config.session.stealEnabled = false;

    core::Engine reference(g, reference_config);
    core::Engine engine(g, config);
    core::Engine no_steal(g, off_config);
    for (const Pattern &p :
         {Pattern::triangle(), Pattern::clique(4),
          Pattern::cycleOf(4), Pattern::diamond()}) {
        const auto plan = compileAutomine(p, {});
        // Stealing moves modeled time, never work: counts equal the
        // fault-free oracle and the steal-off run exactly.
        ASSERT_EQ(reference.run(plan), oracle(p)) << p.toString();
        EXPECT_EQ(engine.run(plan), oracle(p)) << p.toString();
        EXPECT_EQ(no_steal.run(plan), oracle(p)) << p.toString();
    }

    // Same plan, different thread count: bit-identical modeled dump
    // (including the steals block), ledger and trace tallies.
    EXPECT_EQ(engine.stats().toJson(false),
              reference.stats().toJson(false));
    const NodeId nodes = config.graph.cluster.numNodes;
    for (NodeId src = 0; src < nodes; ++src)
        for (NodeId dst = 0; dst < nodes; ++dst) {
            EXPECT_EQ(engine.fabric().linkBytes(src, dst),
                      reference.fabric().linkBytes(src, dst))
                << src << "<-" << dst;
            EXPECT_EQ(engine.fabric().linkMessages(src, dst),
                      reference.fabric().linkMessages(src, dst))
                << src << "<-" << dst;
        }
    for (std::size_t e = 0; e < sim::kNumPhaseEvents; ++e) {
        const auto event = static_cast<sim::PhaseEvent>(e);
        EXPECT_EQ(engine.traceCounts().count(event),
                  reference.traceCounts().count(event))
            << sim::phaseEventName(event);
        EXPECT_EQ(engine.traceCounts().valueSum(event),
                  reference.traceCounts().valueSum(event))
            << sim::phaseEventName(event);
    }

    // Issued/completed pair up, and the stats block agrees with the
    // trace stream.
    EXPECT_EQ(reference.traceCounts().count(
                  sim::PhaseEvent::StealIssued),
              reference.traceCounts().count(
                  sim::PhaseEvent::StealCompleted));
    EXPECT_EQ(reference.stats().totalChunksStolen(),
              reference.traceCounts().count(
                  sim::PhaseEvent::StealIssued));

    // Non-vacuous under the degraded plan: the straggling node's
    // tail chunks actually migrate.
    if (std::string(spec).rfind("degrade", 0) == 0) {
        EXPECT_GT(reference.stats().totalChunksStolen(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    PlansAndThreads, StealSweep,
    testing::Combine(
        testing::Values("",
                        "degrade:3-*:factor=5:from=0",
                        "drop:*-*:msg=1:count=4"),
        testing::Values(1u, 2u, 4u, 8u)));

/**
 * Crash plans x steal x host threads (DESIGN.md §9): killing an
 * execution unit at a modeled chunk boundary and adopting its
 * orphaned chunks onto survivors must preserve exact counts, and
 * the full modeled result — the stats dump with its recovery
 * block, the fabric ledger (adoption transfers are priced through
 * it), the Checkpoint/UnitCrashed/ChunkAdopted trace tallies —
 * must stay byte-identical at every host thread count, with and
 * without the steal pass in the same run.  The crash trigger reads
 * only the unit's own chunk ordinals, so WHERE the unit dies is as
 * deterministic as everything else.
 */
using CrashAxis = std::tuple<const char *, bool, unsigned>;

class CrashSweep : public testing::TestWithParam<CrashAxis>
{
};

TEST_P(CrashSweep, CrashedRunsKeepCountsAndThreadInvariance)
{
    const auto [spec, steal, threads] = GetParam();
    const Graph &g = sweepGraph();
    core::EngineConfig config;
    config.graph.cluster = sim::ClusterConfig::paperDefault(4);
    config.session.chunkBytes = 4 << 10;
    config.graph.cacheDegreeThreshold = 8;
    config.session.stealEnabled = steal;
    config.session.stealBacklogThresholdNs = 2.0e3;
    config.session.faults.add(spec);

    core::EngineConfig reference_config = config;
    reference_config.session.hostThreads = 1;
    config.session.hostThreads = threads;

    core::Engine reference(g, reference_config);
    core::Engine engine(g, config);
    for (const Pattern &p :
         {Pattern::triangle(), Pattern::clique(4),
          Pattern::cycleOf(4), Pattern::diamond()}) {
        const auto plan = compileAutomine(p, {});
        // A crash re-attributes modeled time; it never loses work.
        ASSERT_EQ(reference.run(plan), oracle(p)) << p.toString();
        EXPECT_EQ(engine.run(plan), oracle(p)) << p.toString();
    }

    // Same plan, different thread count: bit-identical modeled dump
    // (including the recovery block), ledger and trace tallies.
    EXPECT_EQ(engine.stats().toJson(false),
              reference.stats().toJson(false));
    const NodeId nodes = config.graph.cluster.numNodes;
    for (NodeId src = 0; src < nodes; ++src)
        for (NodeId dst = 0; dst < nodes; ++dst) {
            EXPECT_EQ(engine.fabric().linkBytes(src, dst),
                      reference.fabric().linkBytes(src, dst))
                << src << "<-" << dst;
            EXPECT_EQ(engine.fabric().linkMessages(src, dst),
                      reference.fabric().linkMessages(src, dst))
                << src << "<-" << dst;
        }
    for (std::size_t e = 0; e < sim::kNumPhaseEvents; ++e) {
        const auto event = static_cast<sim::PhaseEvent>(e);
        EXPECT_EQ(engine.traceCounts().count(event),
                  reference.traceCounts().count(event))
            << sim::phaseEventName(event);
        EXPECT_EQ(engine.traceCounts().valueSum(event),
                  reference.traceCounts().valueSum(event))
            << sim::phaseEventName(event);
    }

    // Non-vacuous: the unit really died (in at least one pattern
    // run; level-2 specs cannot fire on the 3-level triangle) and
    // survivors really adopted, and the stats ledger agrees with
    // the trace stream event for event.
    const auto &stats = reference.stats();
    EXPECT_GE(stats.totalUnitCrashes(), 1u);
    EXPECT_LE(stats.totalUnitCrashes(), 4u);
    EXPECT_GT(stats.totalChunksAdopted(), 0u);
    EXPECT_GT(stats.totalCheckpoints(), 0u);
    EXPECT_EQ(reference.traceCounts().count(
                  sim::PhaseEvent::UnitCrashed),
              stats.totalUnitCrashes());
    EXPECT_EQ(reference.traceCounts().count(
                  sim::PhaseEvent::ChunkAdopted),
              stats.totalChunksAdopted());
    EXPECT_EQ(reference.traceCounts().count(
                  sim::PhaseEvent::Checkpoint),
              stats.totalCheckpoints());
}

INSTANTIATE_TEST_SUITE_P(
    PlansAndThreads, CrashSweep,
    testing::Combine(
        testing::Values("crash:1:level=1:chunk=1",
                        "crash:5:level=0:chunk=1",
                        "crash:3:level=2:chunk=1"),
        testing::Bool(),
        testing::Values(1u, 2u, 4u, 8u)));

/**
 * Service-level determinism (DESIGN.md §10): every query's modeled
 * results through the QueryService — count, stats.toJson(false),
 * phase-event tallies — are bit-identical to a solo engine run of
 * the same plan, regardless of the co-runner mix, the admission
 * order, the admission bound, or the shared pool's width.  The
 * cross-query residency directory may only ever surface in the
 * excluded host block.
 */
using ServiceAxis = std::tuple<unsigned /*hostThreads*/,
                               unsigned /*maxInFlight*/,
                               bool /*reversed submission*/>;

class ServiceSweep : public testing::TestWithParam<ServiceAxis>
{
};

TEST_P(ServiceSweep, PerQueryModeledResultsAreMixInvariant)
{
    const auto [threads, in_flight, reversed] = GetParam();
    const Graph &g = sweepGraph();
    core::GraphSetup setup;
    setup.cluster = sim::ClusterConfig::paperDefault(4);
    setup.cacheDegreeThreshold = 8;
    core::SessionConfig session;
    session.chunkBytes = 16 << 10;

    // The workload mixes duplicates so queries genuinely co-run
    // against both distinct and identical plans.
    std::vector<Pattern> workload = {
        Pattern::triangle(),  Pattern::clique(4),
        Pattern::cycleOf(4),  Pattern::diamond(),
        Pattern::triangle(),  Pattern::clique(4)};
    if (reversed)
        std::reverse(workload.begin(), workload.end());

    core::GraphContext context(g, setup);
    core::ServiceOptions options;
    options.maxInFlight = in_flight;
    options.hostThreads = threads;
    core::QueryService service(context, options);
    for (const Pattern &p : workload)
        service.submit(compileAutomine(p, {}), session);
    service.wait();

    for (std::size_t id = 0; id < workload.size(); ++id) {
        const Pattern &p = workload[id];
        const core::QueryResult &query = service.result(id);
        ASSERT_FALSE(query.failed) << query.error;
        EXPECT_EQ(query.count, oracle(p)) << p.toString();

        // Solo reference: one fresh session over a private context.
        core::GraphContext solo_context(g, setup);
        core::Engine solo(solo_context, session);
        ASSERT_EQ(solo.run(compileAutomine(p, {})), oracle(p))
            << p.toString();
        EXPECT_EQ(query.modeledJson, solo.stats().toJson(false))
            << p.toString();
        ASSERT_EQ(query.traceCounts.size(), sim::kNumPhaseEvents);
        for (std::size_t e = 0; e < sim::kNumPhaseEvents; ++e)
            EXPECT_EQ(query.traceCounts[e],
                      solo.traceCounts().count(
                          static_cast<sim::PhaseEvent>(e)))
                << p.toString() << " "
                << sim::phaseEventName(
                       static_cast<sim::PhaseEvent>(e));
    }
}

INSTANTIATE_TEST_SUITE_P(
    MixesAndWidths, ServiceSweep,
    testing::Combine(testing::Values(1u, 2u, 4u),
                     testing::Values(1u, 3u),
                     testing::Values(false, true)));

} // namespace
} // namespace khuzdul
