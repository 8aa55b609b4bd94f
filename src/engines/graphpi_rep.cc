#include "engines/graphpi_rep.hh"

#include <algorithm>

#include "sim/cost_model.hh"
#include "support/check.hh"

namespace khuzdul
{
namespace engines
{

namespace
{

/**
 * Fixed cost of GraphPi's task partitioning / distribution machinery
 * per run (§7.2 attributes its slowness on small inputs to this).
 */
constexpr double kTaskPartitionOverheadNs = 2.0e6;

/** Coarse task chunks per node (first-loop granularity). */
constexpr unsigned kTaskChunksPerNode = 16;

} // namespace

GraphPiRepEngine::GraphPiRepEngine(const Graph &g,
                                   const sim::ClusterConfig &cluster)
    : graph_(&g), cluster_(cluster), profile_(GraphProfile::fromGraph(g))
{}

GraphPiRepResult
GraphPiRepEngine::count(const Pattern &p, const PlanOptions &options)
{
    KHUZDUL_REQUIRE(
        graph_->sizeBytes() <= cluster_.memoryBytesPerNode,
        "replicated graph (" << graph_->sizeBytes()
        << "B) exceeds per-node memory ("
        << cluster_.memoryBytesPerNode << "B)");

    const ExtendPlan plan = compileGraphPi(p, profile_, options);
    const NodeId nodes = cluster_.numNodes;
    const unsigned total_chunks = nodes * kTaskChunksPerNode;

    // Coarse static first-loop split: strided vertex assignment
    // (GraphPi interleaves tasks so hubs spread across chunks).
    std::vector<VertexId> roots(graph_->numVertices());
    for (VertexId v = 0; v < graph_->numVertices(); ++v)
        roots[v] = v;

    GraphPiRepResult result;
    result.stats.nodes.resize(nodes);
    std::int64_t raw = 0;
    std::vector<double> node_work(nodes, 0);
    std::vector<double> node_max_chunk(nodes, 0);

    std::vector<VertexId> chunk_roots;
    for (unsigned c = 0; c < total_chunks; ++c) {
        chunk_roots.clear();
        for (std::size_t i = c; i < roots.size(); i += total_chunks)
            chunk_roots.push_back(roots[i]);
        if (chunk_roots.empty())
            continue;
        const auto work = core::runPlanDfs(
            *graph_, plan,
            {chunk_roots.data(), chunk_roots.size()});
        raw += work.rawCount;
        const double work_ns = sim::cost::dfsWorkNs(
            work.workItems, work.candidatesChecked,
            work.embeddingsVisited);
        const NodeId node = c % nodes;
        node_work[node] += work_ns;
        node_max_chunk[node] = std::max(node_max_chunk[node], work_ns);
        result.stats.nodes[node].intersectionItems += work.workItems;
        result.stats.nodes[node].embeddingsCreated +=
            work.embeddingsVisited;
    }

    KHUZDUL_CHECK(raw >= 0 && raw % plan.countDivisor == 0,
                  "inconsistent raw count");
    result.count = static_cast<Count>(raw / plan.countDivisor);

    // Intra-node parallelism is coarse (first few loops only): the
    // largest statically-assigned chunk leaves a straggler tail.
    const unsigned cores = cluster_.computeCoresPerNode();
    for (NodeId n = 0; n < nodes; ++n)
        result.stats.nodes[n].computeNs =
            node_work[n] / cores + 0.3 * node_max_chunk[n];
    result.stats.startupNs = kTaskPartitionOverheadNs
        + sim::cost::engineStartupNs;
    result.makespanNs = result.stats.makespanNs();
    return result;
}

} // namespace engines
} // namespace khuzdul
