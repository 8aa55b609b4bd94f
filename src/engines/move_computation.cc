#include "engines/move_computation.hh"

#include <algorithm>

#include "core/provider.hh"
#include "sim/cost_model.hh"
#include "support/check.hh"

namespace khuzdul
{
namespace engines
{

namespace
{

/** Embeddings shipped per message (aDFS batches its queues). */
constexpr unsigned kShipBatch = 32;

/**
 * Fraction of shipping time hidden by the almost-DFS pipeline;
 * GPM's intersections need whole edge lists attached, so overlap is
 * poor.
 */
constexpr double kOverlapFraction = 0.25;

/**
 * Tracks embedding migrations: each edge-list access happens at the
 * data's owner; when the provider chain resolves an access Remote
 * the embedding (plus carried lists) crosses the wire and execution
 * continues at the owner.
 */
class MigrationTracker : public core::RunnerHooks
{
  public:
    MigrationTracker(core::EdgeListProvider &provider,
                     sim::NodeStats &stats, NodeId start)
        : provider_(&provider), stats_(&stats), current_(start)
    {}

    void
    onEdgeListAccess(VertexId v) override
    {
        const core::Resolution r =
            provider_->resolve(current_, v, nullptr, *stats_);
        if (r.kind != core::ResolutionKind::Remote)
            return;
        ++migrations;
        // The embedding ships with the edge list(s) needed for the
        // intersection at the destination (the paper's example
        // sends N(v0) along with (v0, v2)).
        bytesShipped += 32 + r.bytes;
        current_ = static_cast<NodeId>(r.owner);
    }

    std::uint64_t migrations = 0;
    std::uint64_t bytesShipped = 0;

  private:
    core::EdgeListProvider *provider_;
    sim::NodeStats *stats_;
    NodeId current_;
};

} // namespace

MoveComputationEngine::MoveComputationEngine(
    const Graph &g, const sim::ClusterConfig &cluster)
    : graph_(&g), cluster_(cluster), partition_(g, cluster.numNodes, 1)
{}

MoveComputationResult
MoveComputationEngine::count(const Pattern &p, const PlanOptions &options)
{
    const ExtendPlan plan = compileAutomine(p, options);
    const NodeId nodes = cluster_.numNodes;
    const unsigned cores = cluster_.computeCoresPerNode();

    MoveComputationResult result;
    result.stats.nodes.resize(nodes);
    // Owner classification without cache or horizontal steps: a
    // moving-computation engine fetches nothing, it relocates.
    core::EdgeListProvider provider(*graph_, partition_, nullptr,
                                    false, {});
    std::int64_t raw = 0;
    for (NodeId n = 0; n < nodes; ++n) {
        sim::NodeStats &st = result.stats.nodes[n];
        MigrationTracker tracker(provider, st, n);
        const auto &roots = partition_.ownedVertices(n);
        const auto work = core::runPlanDfs(
            *graph_, plan, {roots.data(), roots.size()}, nullptr,
            &tracker);
        raw += work.rawCount;

        const double compute_ns = sim::cost::dfsWorkNs(
            work.workItems, work.candidatesChecked,
            work.embeddingsVisited);
        const double messages = static_cast<double>(tracker.migrations)
            / kShipBatch;
        const double comm_ns = messages * sim::cost::netLatencyNs
            + static_cast<double>(tracker.bytesShipped)
                / sim::cost::netBytesPerNs
            + static_cast<double>(tracker.bytesShipped)
                * sim::cost::netCopyPerByteNs;

        st.computeNs = compute_ns / cores;
        st.commTotalNs = comm_ns;
        st.commExposedNs = comm_ns * (1.0 - kOverlapFraction);
        st.bytesSent = tracker.bytesShipped;
        st.bytesReceived = tracker.bytesShipped;
        st.messagesSent = static_cast<std::uint64_t>(messages) + 1;
        st.intersectionItems = work.workItems;
        st.embeddingsCreated = work.embeddingsVisited;
    }
    KHUZDUL_CHECK(raw >= 0 && raw % plan.countDivisor == 0,
                  "inconsistent raw count");
    result.stats.startupNs = sim::cost::engineStartupNs;
    result.makespanNs = result.stats.makespanNs();
    result.count = static_cast<Count>(raw / plan.countDivisor);
    return result;
}

} // namespace engines
} // namespace khuzdul
