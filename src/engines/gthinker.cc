#include "engines/gthinker.hh"

#include <algorithm>

#include "core/cache.hh"
#include "core/provider.hh"
#include "sim/cost_model.hh"
#include "support/check.hh"

namespace khuzdul
{
namespace engines
{

namespace
{

/**
 * Collects the distinct edge lists one task (tree) touches.
 * Accesses accumulate with duplicates and are deduplicated into
 * ascending order on read: the k-hop pull below resolves lists
 * through a stateful (LRU) cache, so the iteration order must be a
 * pure function of the access set — a hash-set walk would let the
 * modeled hit pattern depend on bucket layout.
 */
class AccessCollector : public core::RunnerHooks
{
  public:
    void
    onEdgeListAccess(VertexId v) override
    {
        accessed_.push_back(v);
    }

    /** Distinct accessed vertices, ascending. */
    const std::vector<VertexId> &
    distinctSorted()
    {
        std::sort(accessed_.begin(), accessed_.end());
        accessed_.erase(
            std::unique(accessed_.begin(), accessed_.end()),
            accessed_.end());
        return accessed_;
    }

  private:
    std::vector<VertexId> accessed_;
};

/** Software cache capacity per node (bytes). */
constexpr std::uint64_t kCacheBytes = 512 << 10;

/**
 * Memory budget for in-flight tasks per node; with the k-hop
 * subgraph footprint this caps concurrency at a few hundred tasks
 * (the paper measures 150-300 for TC on Patents).
 */
constexpr std::uint64_t kTaskMemoryBytes = 4 << 20;

/**
 * Contention multiplier on cache/scheduler costs on a multi-socket
 * node: G-thinker has no NUMA support and its shared structures
 * degrade badly on two sockets (Table 2 runs it single-socket for
 * this reason).
 */
constexpr double kSocketContentionFactor = 4.0;

} // namespace

GThinkerEngine::GThinkerEngine(const Graph &g,
                               const sim::ClusterConfig &cluster)
    : graph_(&g), cluster_(cluster), partition_(g, cluster.numNodes, 1)
{}

GThinkerResult
GThinkerEngine::count(const Pattern &p, const PlanOptions &options)
{
    // G-thinker enumerates with the same pattern-aware nested loops
    // (compiled Automine-style); its problems are architectural,
    // not algorithmic.
    const ExtendPlan plan = compileAutomine(p, options);
    const NodeId nodes = cluster_.numNodes;

    GThinkerResult result;
    result.stats.nodes.resize(nodes);
    std::int64_t raw = 0;

    const double contention = cluster_.socketsPerNode >= 2
        ? kSocketContentionFactor : 1.0;
    const unsigned cores = cluster_.computeCoresPerNode();

    for (NodeId n = 0; n < nodes; ++n) {
        sim::NodeStats &st = result.stats.nodes[n];
        core::DataCache cache(*graph_, core::CachePolicy::Lru,
                              kCacheBytes, 0);
        // G-thinker resolves through the same chain as the engine,
        // minus horizontal sharing; its task<->data map update is
        // the (expensive) per-probe cost.
        core::EdgeListProvider provider(
            *graph_, partition_, &cache, /*horizontal_sharing=*/false,
            {.cacheProbeNs = sim::cost::gthinkerMapUpdateNs * contention,
             .cacheAdmitNs = 0, .hashProbeNs = 0});
        double compute_ns = 0;
        double comm_ns = 0;
        std::uint64_t subgraph_bytes_total = 0;
        std::uint64_t tasks = 0;

        for (const VertexId root : partition_.ownedVertices(n)) {
            AccessCollector collector;
            const VertexId roots[1] = {root};
            const auto work = core::runPlanDfs(*graph_, plan,
                                               {roots, 1}, nullptr,
                                               &collector);
            raw += work.rawCount;
            ++tasks;

            compute_ns += sim::cost::dfsWorkNs(work.workItems,
                                               work.candidatesChecked,
                                               work.embeddingsVisited);
            st.intersectionItems += work.workItems;
            st.embeddingsCreated += work.embeddingsVisited;

            // The task pulls the k-hop subgraph before computing:
            // every distinct non-local edge list is resolved
            // through the provider chain, whose cache probe models
            // the task<->data map update (the expensive part).
            std::uint64_t pull_bytes = 0;
            std::uint64_t pull_lists = 0;
            std::uint64_t subgraph_bytes = 0;
            const std::vector<VertexId> &accessed =
                collector.distinctSorted();
            for (const VertexId v : accessed) {
                subgraph_bytes += graph_->edgeListBytes(v);
                const core::Resolution r =
                    provider.resolve(n, v, nullptr, st);
                if (r.kind != core::ResolutionKind::Remote)
                    continue;
                pull_bytes += r.bytes;
                ++pull_lists;
            }
            subgraph_bytes_total += subgraph_bytes;
            if (pull_lists > 0) {
                comm_ns += sim::cost::transferNs(pull_bytes, pull_lists);
                st.bytesReceived += pull_bytes;
                ++st.messagesSent;
                st.listsFetchedRemote += pull_lists;
            }
            // Garbage-collection sweep: the cache checks whether the
            // tasks using each cached list have completed.
            st.cacheNs += sim::cost::gthinkerGcCheckNs * contention
                * static_cast<double>(accessed.size());
        }

        // Scheduler: readiness scans over in-flight tasks.  With
        // concurrency limited by task memory, every task is scanned
        // several times while it waits for its data.
        const double avg_subgraph = tasks == 0 ? 1.0
            : static_cast<double>(subgraph_bytes_total)
                / static_cast<double>(tasks);
        // The paper measures 150-300 concurrent tasks; the k-hop
        // footprint caps it well below what overlap would need.
        const double concurrency = std::clamp(
            static_cast<double>(kTaskMemoryBytes)
                / std::max(1.0, avg_subgraph),
            1.0, 300.0);
        const double scans_per_task = 10.0;
        st.schedulerNs += static_cast<double>(tasks) * scans_per_task
            * sim::cost::gthinkerSchedulerScanNs * contention;

        // Limited concurrency also limits communication hiding:
        // with C in-flight tasks only a fraction of fetch latency
        // overlaps computation.
        const double hidden = std::min(0.6, concurrency / 1000.0);
        st.computeNs = compute_ns / cores;
        st.commTotalNs = comm_ns;
        st.commExposedNs = comm_ns * (1.0 - hidden);
    }

    // Sender-side byte attribution: symmetric under hash
    // partitioning; mirror the received volume.
    std::uint64_t received = 0;
    for (const auto &node : result.stats.nodes)
        received += node.bytesReceived;
    for (auto &node : result.stats.nodes)
        node.bytesSent = received / result.stats.nodes.size();

    KHUZDUL_CHECK(raw >= 0 && raw % plan.countDivisor == 0,
                  "inconsistent raw count");
    result.count = static_cast<Count>(raw / plan.countDivisor);
    result.stats.startupNs = sim::cost::engineStartupNs;
    result.makespanNs = result.stats.makespanNs();
    return result;
}

} // namespace engines
} // namespace khuzdul
