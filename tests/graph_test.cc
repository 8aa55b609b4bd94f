/**
 * @file
 * Unit tests for the graph substrate: builder preprocessing, CSR
 * invariants, generators, serialization, orientation and the 1-D
 * hash partitioner.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>

#include "graph/builder.hh"
#include "graph/datasets.hh"
#include "graph/generators.hh"
#include "graph/graph.hh"
#include "graph/io.hh"
#include "graph/orientation.hh"
#include "graph/partition.hh"
#include "support/check.hh"
#include "support/rng.hh"

namespace khuzdul
{
namespace
{

void
expectCsrInvariants(const Graph &g)
{
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        const auto list = g.neighbors(v);
        for (std::size_t i = 0; i < list.size(); ++i) {
            EXPECT_NE(list[i], v) << "self loop at " << v;
            if (i > 0) {
                EXPECT_LT(list[i - 1], list[i])
                    << "unsorted/duplicate at " << v;
            }
        }
        if (!g.directed()) {
            for (const VertexId u : list)
                EXPECT_TRUE(g.hasEdge(u, v)) << "asymmetric " << u;
        }
    }
}

TEST(Builder, RemovesSelfLoopsAndDuplicates)
{
    GraphBuilder builder(4);
    builder.addEdge(0, 1);
    builder.addEdge(1, 0); // duplicate, reversed
    builder.addEdge(0, 1); // duplicate
    builder.addEdge(2, 2); // self loop
    builder.addEdge(2, 3);
    const Graph g = builder.build();
    EXPECT_EQ(g.numEdges(), 2u);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(3, 2));
    EXPECT_FALSE(g.hasEdge(2, 2));
    expectCsrInvariants(g);
}

/** The builder's output built the slow way: orient, sort, unique,
 *  fill, then sort every list. */
Graph
referenceBuild(VertexId n,
               const std::vector<std::pair<VertexId, VertexId>> &edges)
{
    std::vector<std::pair<VertexId, VertexId>> clean;
    for (auto [u, v] : edges) {
        if (u == v)
            continue;
        if (u > v)
            std::swap(u, v);
        clean.emplace_back(u, v);
    }
    std::sort(clean.begin(), clean.end());
    clean.erase(std::unique(clean.begin(), clean.end()), clean.end());
    std::vector<std::vector<VertexId>> lists(n);
    for (const auto &[u, v] : clean) {
        lists[u].push_back(v);
        lists[v].push_back(u);
    }
    std::vector<EdgeId> offsets{0};
    std::vector<VertexId> adjacency;
    for (auto &list : lists) {
        std::sort(list.begin(), list.end());
        adjacency.insert(adjacency.end(), list.begin(), list.end());
        offsets.push_back(adjacency.size());
    }
    return Graph(std::move(offsets), std::move(adjacency));
}

void
expectBuildMatchesReference(
    VertexId n, const std::vector<std::pair<VertexId, VertexId>> &edges)
{
    GraphBuilder builder(n);
    for (const auto &[u, v] : edges)
        builder.addEdge(u, v);
    const Graph built = builder.build();
    const Graph expected = referenceBuild(n, edges);
    ASSERT_EQ(built.numVertices(), expected.numVertices());
    ASSERT_EQ(built.numArcs(), expected.numArcs());
    for (VertexId v = 0; v < n; ++v) {
        const auto a = built.neighbors(v);
        const auto b = expected.neighbors(v);
        ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
            << "vertex " << v << " of " << n << " with "
            << edges.size() << " input edges";
    }
}

/** build() sorts with counting passes and fills lists in edge order;
 *  it must equal the sort/unique/per-list-sort reference on
 *  multigraphs with duplicates in both orientations, self loops and
 *  isolated vertices, on empty and one-vertex graphs, and on a hub
 *  hit by thousands of repeated arcs. */
TEST(Builder, MatchesSortedReference)
{
    Rng rng(20231);
    for (int trial = 0; trial < 60; ++trial) {
        const auto n = static_cast<VertexId>(1 + rng.nextBounded(80));
        std::vector<std::pair<VertexId, VertexId>> edges;
        const auto m = rng.nextBounded(4 * n + 1);
        for (std::uint64_t i = 0; i < m; ++i) {
            // Ids below n / 2 + 1 leave the upper vertices isolated
            // in about half of the trials.
            const VertexId span = trial % 2 == 0 ? n : n / 2 + 1;
            const auto u = static_cast<VertexId>(rng.nextBounded(span));
            const auto v = static_cast<VertexId>(rng.nextBounded(span));
            edges.emplace_back(u, v);
            if (rng.coin(0.3))
                edges.emplace_back(v, u);
            if (rng.coin(0.1))
                edges.emplace_back(u, u);
        }
        expectBuildMatchesReference(n, edges);
    }
    expectBuildMatchesReference(7, {});
    expectBuildMatchesReference(1, {});
    expectBuildMatchesReference(1, {{0, 0}, {0, 0}});

    std::vector<std::pair<VertexId, VertexId>> hub;
    for (int i = 0; i < 5000; ++i) {
        const auto other = static_cast<VertexId>(rng.nextBounded(300));
        if (rng.coin(0.5))
            hub.emplace_back(137, other);
        else
            hub.emplace_back(other, 137);
    }
    expectBuildMatchesReference(300, hub);
}

TEST(Builder, RejectsOutOfRangeEndpoint)
{
    GraphBuilder builder(3);
    EXPECT_THROW(builder.addEdge(0, 3), FatalError);
}

TEST(Graph, DegreeAndMaxDegree)
{
    const Graph g = gen::star(5);
    EXPECT_EQ(g.degree(0), 4u);
    EXPECT_EQ(g.degree(1), 1u);
    EXPECT_EQ(g.maxDegree(), 4u);
    EXPECT_EQ(g.numEdges(), 4u);
}

TEST(Graph, LabelsRoundTrip)
{
    Graph g = gen::cycle(4);
    EXPECT_FALSE(g.labeled());
    g.setLabels({0, 1, 2, 1});
    EXPECT_TRUE(g.labeled());
    EXPECT_EQ(g.label(2), 2u);
    EXPECT_EQ(g.numLabels(), 3u);
}

TEST(Graph, LabelSizeMismatchRejected)
{
    Graph g = gen::cycle(4);
    EXPECT_THROW(g.setLabels({0, 1}), FatalError);
}

TEST(Generators, CompleteGraph)
{
    const Graph g = gen::complete(6);
    EXPECT_EQ(g.numEdges(), 15u);
    expectCsrInvariants(g);
}

TEST(Generators, CycleAndPathAndGrid)
{
    EXPECT_EQ(gen::cycle(7).numEdges(), 7u);
    EXPECT_EQ(gen::path(7).numEdges(), 6u);
    const Graph g = gen::grid(3, 4);
    EXPECT_EQ(g.numVertices(), 12u);
    EXPECT_EQ(g.numEdges(), 3u * 3 + 2u * 4);
    expectCsrInvariants(g);
}

TEST(Generators, RmatIsDeterministicAndClean)
{
    const Graph a = gen::rmat(1024, 4096, 0.57, 0.19, 0.19, 99);
    const Graph b = gen::rmat(1024, 4096, 0.57, 0.19, 0.19, 99);
    EXPECT_EQ(a.numEdges(), b.numEdges());
    EXPECT_GT(a.numEdges(), 1000u);
    expectCsrInvariants(a);
}

TEST(Generators, RmatSkewGrowsWithA)
{
    const Graph skewed = gen::rmat(2048, 16384, 0.65, 0.15, 0.15, 7);
    const Graph flat = gen::erdosRenyi(2048, 16384, 7);
    const double skew_ratio = static_cast<double>(skewed.maxDegree())
        / (2.0 * skewed.numEdges() / skewed.numVertices());
    const double flat_ratio = static_cast<double>(flat.maxDegree())
        / (2.0 * flat.numEdges() / flat.numVertices());
    EXPECT_GT(skew_ratio, 4 * flat_ratio);
}

TEST(Generators, CitationIsLightTailed)
{
    const Graph g = gen::citation(4096, 6, 5);
    const double avg = 2.0 * g.numEdges() / g.numVertices();
    EXPECT_LT(static_cast<double>(g.maxDegree()), 12 * avg);
    expectCsrInvariants(g);
}

TEST(Generators, SmallWorldIsClusteredAndLightTailed)
{
    const Graph g = gen::smallWorld(4000, 5, 0.2, 6);
    // Light tail: max degree within a few x of the average.
    const double avg = 2.0 * g.numEdges() / g.numVertices();
    EXPECT_LT(static_cast<double>(g.maxDegree()), 4 * avg);
    // High clustering: far more triangles than an Erdos-Renyi graph
    // of the same size.
    const Graph er = gen::erdosRenyi(4000, g.numEdges(), 6);
    Count sw_triangles = 0;
    Count er_triangles = 0;
    for (VertexId v = 0; v < 4000; ++v) {
        for (const VertexId a : g.neighbors(v))
            for (const VertexId b : g.neighbors(v))
                if (a < b && g.hasEdge(a, b) && v < a)
                    ++sw_triangles;
        for (const VertexId a : er.neighbors(v))
            for (const VertexId b : er.neighbors(v))
                if (a < b && er.hasEdge(a, b) && v < a)
                    ++er_triangles;
    }
    EXPECT_GT(sw_triangles, 10 * er_triangles);
}

TEST(Generators, SmallWorldValidatesArguments)
{
    EXPECT_THROW(gen::smallWorld(8, 4, 0.1, 1), FatalError);
    EXPECT_THROW(gen::smallWorld(100, 4, 1.5, 1), FatalError);
}

TEST(Generators, RandomLabels)
{
    Graph g = gen::erdosRenyi(500, 2000, 3);
    gen::randomizeLabels(g, 4, 11);
    EXPECT_TRUE(g.labeled());
    EXPECT_LE(g.numLabels(), 4u);
    std::array<int, 4> histogram{};
    for (VertexId v = 0; v < g.numVertices(); ++v)
        ++histogram[g.label(v)];
    for (const int count : histogram)
        EXPECT_GT(count, 50);
}

TEST(Io, EdgeListRoundTrip)
{
    const Graph g = gen::rmat(256, 1024, 0.5, 0.2, 0.2, 1);
    std::stringstream ss;
    io::writeEdgeList(g, ss);
    const Graph back = io::readEdgeList(ss);
    EXPECT_EQ(back.numEdges(), g.numEdges());
    // Trailing isolated vertices are not representable in an edge
    // list, so the round-tripped graph may be shorter.
    ASSERT_LE(back.numVertices(), g.numVertices());
    for (VertexId v = 0; v < back.numVertices(); ++v)
        EXPECT_EQ(back.degree(v), g.degree(v));
    for (VertexId v = back.numVertices(); v < g.numVertices(); ++v)
        EXPECT_EQ(g.degree(v), 0u);
}

TEST(Io, EdgeListSkipsComments)
{
    std::stringstream ss("# comment\n% other\n0 1\n1 2\n");
    const Graph g = io::readEdgeList(ss);
    EXPECT_EQ(g.numVertices(), 3u);
    EXPECT_EQ(g.numEdges(), 2u);
}

TEST(Io, MalformedLineRejected)
{
    std::stringstream ss("0 x\n");
    EXPECT_THROW(io::readEdgeList(ss), FatalError);
}

TEST(Io, BinaryRoundTripWithLabels)
{
    Graph g = gen::rmat(128, 512, 0.5, 0.2, 0.2, 2);
    gen::randomizeLabels(g, 3, 4);
    std::stringstream ss;
    io::writeBinary(g, ss);
    const Graph back = io::readBinary(ss);
    EXPECT_EQ(back.numEdges(), g.numEdges());
    EXPECT_TRUE(back.labeled());
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        EXPECT_EQ(back.degree(v), g.degree(v));
        EXPECT_EQ(back.label(v), g.label(v));
    }
}

TEST(Io, BadMagicRejected)
{
    std::stringstream ss("not a graph at all, truly");
    EXPECT_THROW(io::readBinary(ss), FatalError);
}

/** Raw binary-format bytes: writeBinary's layout with any content,
 *  and any stored vector lengths. */
struct RawBinary
{
    std::uint64_t n = 3;
    std::uint64_t offsetsLength = 4;
    std::vector<EdgeId> offsets;
    std::vector<VertexId> adjacency;

    std::string
    bytes() const
    {
        std::string out;
        const auto put = [&out](const auto &value) {
            out.append(reinterpret_cast<const char *>(&value),
                       sizeof(value));
        };
        put(std::uint64_t{0x4b48555a44554c31ULL});
        put(std::uint8_t{0});
        put(n);
        put(offsetsLength);
        for (const EdgeId offset : offsets)
            put(offset);
        put(std::uint64_t{adjacency.size()});
        for (const VertexId u : adjacency)
            put(u);
        put(std::uint64_t{0}); // no labels
        return out;
    }
};

/** readBinary takes nothing on trust: a neighbor id out of range, an
 *  unsorted or self-looped list, a one-way arc and a stored length
 *  past the end of the stream each raise FatalError (before any
 *  allocation for the length). */
TEST(Io, CorruptBinaryRejected)
{
    // A triangle reads back fine.
    const RawBinary triangle{3, 4, {0, 2, 4, 6}, {1, 2, 0, 2, 0, 1}};
    std::stringstream good(triangle.bytes());
    EXPECT_EQ(io::readBinary(good).numEdges(), 3u);

    RawBinary out_of_range = triangle;
    out_of_range.adjacency[1] = 7;
    RawBinary unsorted = triangle;
    std::swap(unsorted.adjacency[0], unsorted.adjacency[1]);
    RawBinary self_loop = triangle;
    self_loop.adjacency[0] = 0;
    RawBinary one_way = triangle;
    one_way.offsets = {0, 2, 3, 5};
    one_way.adjacency = {1, 2, 0, 0, 1};
    RawBinary huge = triangle;
    huge.offsetsLength = std::uint64_t{1} << 61;
    RawBinary billions = triangle;
    billions.offsetsLength = 3'000'000'000ULL;
    for (const auto &[raw, what] :
         {std::pair{out_of_range, "neighbor 7"},
          std::pair{unsorted, "not strictly ascending"},
          std::pair{self_loop, "self loop"},
          std::pair{one_way, "no reverse arc"},
          std::pair{huge, "overruns the stream"},
          std::pair{billions, "overruns the stream"}}) {
        std::stringstream in(raw.bytes());
        try {
            io::readBinary(in);
            ADD_FAILURE() << "accepted: " << what;
        } catch (const FatalError &error) {
            EXPECT_NE(std::string(error.what()).find(what),
                      std::string::npos)
                << error.what();
        }
    }
}

TEST(Orientation, ProducesDagWithHalfTheArcs)
{
    const Graph g = gen::rmat(512, 2048, 0.57, 0.19, 0.19, 3);
    const Graph dag = graph::orient(g);
    EXPECT_TRUE(dag.directed());
    EXPECT_EQ(dag.numArcs() * 2, g.numArcs());
    // Each undirected edge appears in exactly one direction.
    for (VertexId v = 0; v < g.numVertices(); ++v)
        for (const VertexId u : dag.neighbors(v))
            EXPECT_FALSE(dag.hasEdge(u, v));
}

TEST(Orientation, OrientsTowardHigherDegree)
{
    const Graph g = gen::star(5);
    const Graph dag = graph::orient(g);
    // Leaves (degree 1) point at the hub (degree 4).
    EXPECT_EQ(dag.degree(0), 0u);
    for (VertexId v = 1; v < 5; ++v)
        EXPECT_TRUE(dag.hasEdge(v, 0));
}

TEST(Partition, CoversAllVerticesOnce)
{
    const Graph g = gen::rmat(1000, 4000, 0.5, 0.2, 0.2, 9);
    const Partition part(g, 4, 2);
    EXPECT_EQ(part.numUnits(), 8u);
    std::vector<int> seen(g.numVertices(), 0);
    for (unsigned u = 0; u < part.numUnits(); ++u)
        for (const VertexId v : part.ownedVertices(u)) {
            EXPECT_EQ(part.ownerUnit(v), u);
            ++seen[v];
        }
    for (const int count : seen)
        EXPECT_EQ(count, 1);
}

TEST(Partition, OwnerNodeConsistentWithUnit)
{
    const Graph g = gen::erdosRenyi(512, 2048, 1);
    const Partition part(g, 3, 2);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        EXPECT_EQ(part.ownerNode(v), part.ownerUnit(v) / 2);
        EXPECT_EQ(part.ownerSocket(v), part.ownerUnit(v) % 2);
        EXPECT_LT(part.ownerNode(v), 3u);
    }
}

TEST(Partition, OwnerUnitsArePinned)
{
    // Every modeled byte depends on who owns what: an FNV-1a hash of
    // ownerUnit(v) over all vertices, per cluster geometry.
    const Graph g = gen::erdosRenyi(10007, 20000, 1);
    struct Geometry
    {
        NodeId nodes;
        unsigned sockets;
        std::uint64_t hash;
    };
    for (const Geometry &geometry :
         {Geometry{4, 1, 455220692866921415ull},
          Geometry{3, 2, 9525451144376028485ull},
          Geometry{8, 2, 2101133013892205859ull}}) {
        const Partition part(g, geometry.nodes, geometry.sockets);
        std::uint64_t hash = 14695981039346656037ull;
        for (VertexId v = 0; v < g.numVertices(); ++v)
            hash = (hash ^ part.ownerUnit(v)) * 1099511628211ull;
        EXPECT_EQ(hash, geometry.hash)
            << geometry.nodes << "x" << geometry.sockets;
    }
}

TEST(Partition, RoughlyBalanced)
{
    const Graph g = gen::erdosRenyi(8000, 32000, 2);
    const Partition part(g, 8, 1);
    for (NodeId n = 0; n < 8; ++n) {
        const double share = static_cast<double>(part.nodeVertexCount(n))
            / g.numVertices();
        EXPECT_NEAR(share, 1.0 / 8, 0.03);
    }
}

TEST(Partition, ResidentBytesSumsOwnedLists)
{
    const Graph g = gen::cycle(10);
    const Partition part(g, 2, 1);
    const std::uint64_t total = part.nodeResidentBytes(0)
        + part.nodeResidentBytes(1);
    // Every vertex has degree 2: 8 bytes of payload + 8 of metadata.
    EXPECT_EQ(total, 10u * (2 * sizeof(VertexId) + sizeof(EdgeId)));
}

TEST(Datasets, KnownNamesGenerate)
{
    for (const char *name : {"mc", "pt", "lj"}) {
        const auto &dataset = datasets::byName(name);
        EXPECT_EQ(dataset.abbr, name);
        EXPECT_GT(dataset.graph.numEdges(), 1000u);
    }
}

TEST(Datasets, MemoizesGeneration)
{
    const auto &a = datasets::byName("mc");
    const auto &b = datasets::byName("mc");
    EXPECT_EQ(&a, &b);
}

/** Every stand-in, pinned: an FNV-1a hash of its CSR offsets and
 *  adjacency.  Generation and the builder may get cheaper; the graphs
 *  every count and modeled byte derive from may not change. */
TEST(Datasets, StandInsArePinned)
{
    struct Case
    {
        const char *abbr;
        std::uint64_t hash;
    };
    for (const Case &c :
         {Case{"mc", 7690104585212685427ull},
          Case{"pt", 7483461857495042291ull},
          Case{"lj", 8434883355021344221ull},
          Case{"uk", 11446576401260081141ull},
          Case{"tw", 8938695349291787659ull},
          Case{"fr", 2337200574632870349ull},
          Case{"cl", 15521883716639427571ull},
          Case{"uk14", 5369220551284533797ull},
          Case{"wdc", 17381149417796402145ull},
          Case{"skitter", 1086524049440861785ull},
          Case{"orkut", 3452441520621528533ull}}) {
        const Graph &g = datasets::byName(c.abbr).graph;
        std::uint64_t hash = 14695981039346656037ull;
        EdgeId offset = 0;
        hash = (hash ^ offset) * 1099511628211ull;
        for (VertexId v = 0; v < g.numVertices(); ++v) {
            offset += g.degree(v);
            hash = (hash ^ offset) * 1099511628211ull;
        }
        for (VertexId v = 0; v < g.numVertices(); ++v)
            for (const VertexId u : g.neighbors(v))
                hash = (hash ^ u) * 1099511628211ull;
        EXPECT_EQ(hash, c.hash) << c.abbr;
    }
}

TEST(Datasets, UnknownNameRejected)
{
    EXPECT_THROW(datasets::byName("nope"), FatalError);
}

TEST(Datasets, PatentsStandInIsLessSkewedThanLiveJournal)
{
    const auto &pt = datasets::byName("pt");
    const auto &lj = datasets::byName("lj");
    const double pt_skew = static_cast<double>(pt.graph.maxDegree())
        / (2.0 * pt.graph.numEdges() / pt.graph.numVertices());
    const double lj_skew = static_cast<double>(lj.graph.maxDegree())
        / (2.0 * lj.graph.numEdges() / lj.graph.numVertices());
    EXPECT_LT(pt_skew * 5, lj_skew);
}

} // namespace
} // namespace khuzdul
