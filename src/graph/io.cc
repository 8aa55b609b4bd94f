#include "graph/io.hh"

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/builder.hh"
#include "support/check.hh"

namespace khuzdul
{
namespace io
{

namespace
{

constexpr std::uint64_t kBinaryMagic = 0x4b48555a44554c31ULL; // "KHUZDUL1"

template <typename T>
void
writePod(std::ostream &out, const T &value)
{
    out.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

template <typename T>
T
readPod(std::istream &in)
{
    T value{};
    in.read(reinterpret_cast<char *>(&value), sizeof(T));
    KHUZDUL_REQUIRE(in.good(), "truncated binary graph stream");
    return value;
}

template <typename T>
void
writeVector(std::ostream &out, const std::vector<T> &vec)
{
    writePod<std::uint64_t>(out, vec.size());
    out.write(reinterpret_cast<const char *>(vec.data()),
              static_cast<std::streamsize>(vec.size() * sizeof(T)));
}

/** Bytes from the read position of @p in to its end. */
std::uint64_t
bytesLeft(std::istream &in)
{
    const std::streampos here = in.tellg();
    in.seekg(0, std::ios::end);
    const std::streampos end = in.tellg();
    in.seekg(here);
    KHUZDUL_REQUIRE(here != std::streampos(-1) && end != std::streampos(-1)
                        && in.good(),
                    "binary graph stream must be seekable");
    return static_cast<std::uint64_t>(end - here);
}

template <typename T>
std::vector<T>
readVector(std::istream &in)
{
    // Check the stored length before allocating for it.
    const auto size = readPod<std::uint64_t>(in);
    KHUZDUL_REQUIRE(size <= bytesLeft(in) / sizeof(T),
                    "binary graph vector of " << size
                        << " entries overruns the stream");
    std::vector<T> vec(size);
    in.read(reinterpret_cast<char *>(vec.data()),
            static_cast<std::streamsize>(size * sizeof(T)));
    KHUZDUL_REQUIRE(in.good(), "truncated binary graph stream");
    return vec;
}

/**
 * Reject adjacency that breaks Graph's invariants, in one O(arcs)
 * pass: ids below n, strictly ascending lists, no self loops, and for
 * an undirected graph every arc (v, u) matched by (u, v).
 */
void
checkAdjacency(const Graph &g)
{
    const VertexId n = g.numVertices();
    // reverse[u] counts the arcs into u seen so far; visiting v in
    // ascending order meets u's in-arcs in the order of u's own list.
    std::vector<EdgeId> reverse(g.directed() ? 0 : n, 0);
    for (VertexId v = 0; v < n; ++v) {
        const auto list = g.neighbors(v);
        for (std::size_t i = 0; i < list.size(); ++i) {
            const VertexId u = list[i];
            KHUZDUL_REQUIRE(u < n, "binary graph: vertex " << v
                                << " lists neighbor " << u
                                << " of " << n);
            KHUZDUL_REQUIRE(u != v,
                            "binary graph: self loop at vertex " << v);
            KHUZDUL_REQUIRE(i == 0 || list[i - 1] < u,
                            "binary graph: neighbors of vertex "
                                << v << " are not strictly ascending");
            if (g.directed())
                continue;
            const auto back = g.neighbors(u);
            KHUZDUL_REQUIRE(reverse[u] < back.size()
                                && back[reverse[u]] == v,
                            "binary graph: arc " << v << "->" << u
                                << " has no reverse arc");
            ++reverse[u];
        }
    }
}

} // namespace

Graph
readEdgeList(std::istream &in)
{
    std::vector<std::pair<VertexId, VertexId>> edges;
    VertexId max_vertex = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#' || line[0] == '%')
            continue;
        std::istringstream ls(line);
        std::uint64_t u = 0;
        std::uint64_t v = 0;
        if (!(ls >> u >> v))
            KHUZDUL_FATAL("malformed edge-list line: '" << line << "'");
        KHUZDUL_REQUIRE(u < kInvalidVertex && v < kInvalidVertex,
                        "vertex id too large: " << u << " " << v);
        edges.emplace_back(static_cast<VertexId>(u),
                           static_cast<VertexId>(v));
        max_vertex = std::max({max_vertex, static_cast<VertexId>(u),
                               static_cast<VertexId>(v)});
    }
    GraphBuilder builder(edges.empty() ? 0 : max_vertex + 1);
    for (const auto &[u, v] : edges)
        builder.addEdge(u, v);
    return builder.build();
}

void
writeEdgeList(const Graph &g, std::ostream &out)
{
    for (VertexId u = 0; u < g.numVertices(); ++u)
        for (const VertexId v : g.neighbors(u))
            if (u < v || g.directed())
                out << u << " " << v << "\n";
}

void
writeBinary(const Graph &g, std::ostream &out)
{
    writePod(out, kBinaryMagic);
    writePod<std::uint8_t>(out, g.directed() ? 1 : 0);
    writePod<std::uint64_t>(out, g.numVertices());
    std::vector<EdgeId> offsets(g.numVertices() + 1, 0);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        offsets[v + 1] = offsets[v] + g.degree(v);
    writeVector(out, offsets);
    std::vector<VertexId> adjacency;
    adjacency.reserve(g.numArcs());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        for (const VertexId u : g.neighbors(v))
            adjacency.push_back(u);
    writeVector(out, adjacency);
    std::vector<Label> labels;
    if (g.labeled()) {
        labels.resize(g.numVertices());
        for (VertexId v = 0; v < g.numVertices(); ++v)
            labels[v] = g.label(v);
    }
    writeVector(out, labels);
}

Graph
readBinary(std::istream &in)
{
    const auto magic = readPod<std::uint64_t>(in);
    KHUZDUL_REQUIRE(magic == kBinaryMagic,
                    "not a Khuzdul binary graph (bad magic)");
    const auto directed = readPod<std::uint8_t>(in);
    const auto n = readPod<std::uint64_t>(in);
    auto offsets = readVector<EdgeId>(in);
    auto adjacency = readVector<VertexId>(in);
    auto labels = readVector<Label>(in);
    KHUZDUL_REQUIRE(n < kInvalidVertex && offsets.size() == n + 1,
                    "binary graph offsets size mismatch");
    Graph g(std::move(offsets), std::move(adjacency), std::move(labels));
    g.setDirected(directed != 0);
    checkAdjacency(g);
    return g;
}

} // namespace io
} // namespace khuzdul
