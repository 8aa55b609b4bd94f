#include "engines/pattern_oblivious.hh"

#include <algorithm>
#include <map>
#include <set>

#include "pattern/isomorphism.hh"
#include "sim/cost_model.hh"
#include "support/check.hh"

namespace khuzdul
{
namespace engines
{

namespace
{

/** Modeled canonicalization cost per enumerated instance. */
constexpr double kCanonicalizeNs = 450.0;

/** One undirected edge of the input graph, id = index. */
struct EdgeRec
{
    VertexId u;
    VertexId v;
};

/** Memoized canonicalization of tiny instance patterns. */
struct CanonEntry
{
    iso::CanonicalCode code;
    iso::Permutation perm;
};

/**
 * Aggregation state of one canonical labeled pattern.  Domains are
 * ordered sets: they are merged by iteration during orbit folding
 * below, and the determinism contract (DESIGN.md §8) bans
 * hash-order walks in modeled zones.
 */
struct Aggregate
{
    Pattern canon;
    Count instances = 0;
    std::vector<std::set<VertexId>> domains;
};

/**
 * Exact-once connected edge-subset enumerator (edge-set ESU).
 *
 * Each connected edge subset is generated exactly once per minimum
 * edge (the root): an edge enters the extension list the first time
 * one of its endpoints joins the subgraph; candidates popped from
 * the list are excluded from the remainder of their branch (the ESU
 * rule), which the stamp trail enforces and unwinds on backtrack.
 */
class SubgraphEnumerator
{
  public:
    SubgraphEnumerator(const Graph &g, int max_edges)
        : maxEdges_(max_edges)
    {
        for (VertexId u = 0; u < g.numVertices(); ++u)
            for (const VertexId v : g.neighbors(u))
                if (u < v)
                    edges_.push_back({u, v});
        incident_.resize(g.numVertices());
        for (std::size_t e = 0; e < edges_.size(); ++e) {
            incident_[edges_[e].u].push_back(e);
            incident_[edges_[e].v].push_back(e);
        }
        edgeStamp_.assign(edges_.size(), 0);
        vertexStamp_.assign(g.numVertices(), 0);
    }

    std::size_t numEdges() const { return edges_.size(); }
    const std::vector<EdgeRec> &edges() const { return edges_; }

    /**
     * Enumerate every connected edge subset whose minimum edge id
     * is @p root, invoking @p fn with (vertex list, edge list).
     */
    template <typename Fn>
    void
    enumerateFromRoot(std::size_t root, Fn &&fn)
    {
        ++stamp_;
        root_ = root;
        subEdges_.clear();
        subVertices_.clear();
        offered_.clear();
        std::vector<std::size_t> ext;
        edgeStamp_[root] = stamp_; // the root is never re-offered
        const Frame frame = addEdge(root, ext);
        recurse(ext, fn);
        undo(frame);
    }

  private:
    struct Frame
    {
        std::size_t vertexMark;
        std::size_t offeredMark;
    };

    Frame
    addEdge(std::size_t e, std::vector<std::size_t> &ext)
    {
        const Frame frame{subVertices_.size(), offered_.size()};
        subEdges_.push_back(e);
        for (const VertexId w : {edges_[e].u, edges_[e].v}) {
            if (vertexStamp_[w] == stamp_)
                continue;
            vertexStamp_[w] = stamp_;
            subVertices_.push_back(w);
        }
        // Edges incident to just-joined vertices become candidates
        // exactly once along this branch.
        for (std::size_t i = frame.vertexMark; i < subVertices_.size();
             ++i) {
            for (const std::size_t f : incident_[subVertices_[i]]) {
                if (f <= root_ || edgeStamp_[f] == stamp_)
                    continue;
                edgeStamp_[f] = stamp_;
                offered_.push_back(f);
                ext.push_back(f);
            }
        }
        return frame;
    }

    void
    undo(const Frame &frame)
    {
        subEdges_.pop_back();
        while (offered_.size() > frame.offeredMark) {
            edgeStamp_[offered_.back()] = 0;
            offered_.pop_back();
        }
        while (subVertices_.size() > frame.vertexMark) {
            vertexStamp_[subVertices_.back()] = 0;
            subVertices_.pop_back();
        }
    }

    template <typename Fn>
    void
    recurse(std::vector<std::size_t> ext, Fn &&fn)
    {
        fn(subVertices_, subEdges_);
        if (static_cast<int>(subEdges_.size()) >= maxEdges_)
            return;
        while (!ext.empty()) {
            const std::size_t e = ext.back();
            ext.pop_back();
            std::vector<std::size_t> next = ext;
            const Frame frame = addEdge(e, next);
            recurse(next, fn);
            undo(frame);
        }
    }

    int maxEdges_;
    std::vector<EdgeRec> edges_;
    std::vector<std::vector<std::size_t>> incident_;
    std::vector<std::uint64_t> edgeStamp_;
    std::vector<std::uint64_t> vertexStamp_;
    std::uint64_t stamp_ = 0;
    std::size_t root_ = 0;
    std::vector<std::size_t> subEdges_;
    std::vector<VertexId> subVertices_;
    std::vector<std::size_t> offered_;
};

} // namespace

PatternObliviousEngine::PatternObliviousEngine(
    const Graph &g, const sim::ClusterConfig &cluster)
    : graph_(&g), cluster_(cluster)
{}

PatternObliviousResult
PatternObliviousEngine::mineFrequent(int max_edges, Count min_support)
{
    KHUZDUL_REQUIRE(max_edges >= 1 && max_edges <= 6,
                    "pattern-oblivious mining supports 1..6 edges");
    KHUZDUL_REQUIRE(
        graph_->sizeBytes() <= cluster_.memoryBytesPerNode,
        "replicated graph exceeds per-node memory");

    const Graph &g = *graph_;
    SubgraphEnumerator enumerator(g, max_edges);
    PatternObliviousResult result;
    const NodeId nodes = cluster_.numNodes;
    result.stats.nodes.resize(nodes);

    std::map<iso::CanonicalCode, Aggregate> aggregates;
    // Canonicalization memo: instances repeat a handful of tiny
    // shapes, so the expensive permutation search runs once per
    // distinct (structure, labels) key.  Time is still charged per
    // instance — that is precisely the pattern-oblivious tax.
    std::map<std::pair<std::uint64_t, std::uint64_t>, CanonEntry> memo;
    std::vector<Count> node_instances(nodes, 0);

    for (std::size_t root = 0; root < enumerator.numEdges(); ++root) {
        const NodeId node = static_cast<NodeId>(root % nodes);
        enumerator.enumerateFromRoot(root, [&](
            const std::vector<VertexId> &vertices,
            const std::vector<std::size_t> &edge_ids) {
            const int n = static_cast<int>(vertices.size());
            if (n > kMaxPatternSize)
                return;
            // Build the instance pattern over local indices.
            Pattern inst(n);
            std::uint64_t adj_key = 0;
            for (const std::size_t e : edge_ids) {
                int a = -1;
                int b = -1;
                for (int i = 0; i < n; ++i) {
                    if (vertices[i] == enumerator.edges()[e].u)
                        a = i;
                    if (vertices[i] == enumerator.edges()[e].v)
                        b = i;
                }
                inst.addEdge(a, b);
            }
            std::uint64_t label_key = 0;
            for (int i = 0; i < n; ++i) {
                const Label label = g.labeled() ? g.label(vertices[i])
                                                : 0;
                inst.setLabel(i, label);
                label_key |= static_cast<std::uint64_t>(label & 0xff)
                    << (8 * i);
                adj_key |= static_cast<std::uint64_t>(inst.adjacency(i))
                    << (8 * i);
            }
            adj_key |= static_cast<std::uint64_t>(n) << 56;

            auto memo_it = memo.find({adj_key, label_key});
            if (memo_it == memo.end()) {
                CanonEntry entry;
                entry.perm = iso::canonicalPermutation(inst);
                entry.code = iso::canonicalCode(inst);
                memo_it = memo.emplace(
                    std::make_pair(adj_key, label_key), entry).first;
            }
            const CanonEntry &entry = memo_it->second;

            auto agg_it = aggregates.find(entry.code);
            if (agg_it == aggregates.end()) {
                Aggregate aggregate;
                aggregate.canon = inst.permuted(entry.perm);
                aggregate.domains.resize(n);
                agg_it = aggregates.emplace(entry.code,
                                            std::move(aggregate)).first;
            }
            Aggregate &aggregate = agg_it->second;
            ++aggregate.instances;
            for (int i = 0; i < n; ++i)
                aggregate.domains[entry.perm[i]].insert(vertices[i]);
            ++result.totalInstances;
            ++node_instances[node];
        });
    }

    // MNI support with automorphism-orbit domain merging.
    for (auto &[code, aggregate] : aggregates) {
        const auto autos = iso::automorphisms(aggregate.canon);
        const int n = aggregate.canon.size();
        std::vector<bool> done(n, false);
        Count support = std::numeric_limits<Count>::max();
        for (int i = 0; i < n; ++i) {
            if (done[i])
                continue;
            std::set<VertexId> merged;
            for (const auto &sigma : autos) {
                const int j = sigma[i];
                if (!done[j]) {
                    merged.insert(aggregate.domains[j].begin(),
                                  aggregate.domains[j].end());
                    done[j] = true;
                }
            }
            support = std::min(support,
                               static_cast<Count>(merged.size()));
        }
        if (support >= min_support)
            result.patterns.push_back({aggregate.canon, support,
                                       aggregate.instances});
    }

    // Modeled time: enumeration plus per-instance canonicalization,
    // distributed over nodes and cores (replicated graph, no comm).
    const unsigned cores = cluster_.computeCoresPerNode();
    for (NodeId n = 0; n < nodes; ++n) {
        result.stats.nodes[n].computeNs =
            static_cast<double>(node_instances[n])
            * (kCanonicalizeNs + 80.0) / cores;
        result.stats.nodes[n].embeddingsCreated = node_instances[n];
    }
    result.stats.startupNs = sim::cost::engineStartupNs;
    result.makespanNs = result.stats.makespanNs();
    return result;
}

} // namespace engines
} // namespace khuzdul
