#include "graph/generators.hh"

#include <algorithm>
#include <bit>

#include "graph/builder.hh"
#include "support/check.hh"
#include "support/rng.hh"

namespace khuzdul
{
namespace gen
{

Graph
rmat(VertexId num_vertices, EdgeId num_edges,
     double a, double b, double c, std::uint64_t seed)
{
    KHUZDUL_REQUIRE(num_vertices >= 2, "rmat needs >= 2 vertices");
    const double d = 1.0 - a - b - c;
    KHUZDUL_REQUIRE(a > 0 && b >= 0 && c >= 0 && d > 0,
                    "rmat quadrant probabilities must be positive");

    const int levels = std::bit_width(
        std::bit_ceil<std::uint64_t>(num_vertices)) - 1;
    Rng rng(seed);
    GraphBuilder builder(num_vertices);
    // R-MAT's recursive quadrants put hubs at low ids; real graph
    // ids are crawl order, uncorrelated with degree.  Shuffle ids
    // (Fisher-Yates) so id-based symmetry breaking and hash
    // partitioning see realistic id structure.
    std::vector<VertexId> relabel(num_vertices);
    for (VertexId v = 0; v < num_vertices; ++v)
        relabel[v] = v;
    for (VertexId v = num_vertices - 1; v > 0; --v)
        std::swap(relabel[v],
                  relabel[static_cast<VertexId>(rng.nextBounded(v + 1))]);
    const double ab = a + b;
    const double abc = a + b + c;
    for (EdgeId i = 0; i < num_edges; ++i) {
        std::uint64_t u = 0;
        std::uint64_t v = 0;
        for (int level = 0; level < levels; ++level) {
            // Quadrants a | b over c | d by r's range: u's bit marks
            // the bottom row (c, d), v's the right column (b, d).
            // Bitwise ops keep each draw free of branches.
            const double r = rng.nextDouble();
            u = (u << 1) | (r >= ab);
            v = (v << 1) | (((r >= a) & (r < ab)) | (r >= abc));
        }
        builder.addEdge(relabel[u % num_vertices],
                        relabel[v % num_vertices]);
    }
    return builder.build();
}

Graph
erdosRenyi(VertexId num_vertices, EdgeId num_edges, std::uint64_t seed)
{
    KHUZDUL_REQUIRE(num_vertices >= 2, "erdosRenyi needs >= 2 vertices");
    Rng rng(seed);
    GraphBuilder builder(num_vertices);
    for (EdgeId i = 0; i < num_edges; ++i) {
        const auto u = static_cast<VertexId>(rng.nextBounded(num_vertices));
        const auto v = static_cast<VertexId>(rng.nextBounded(num_vertices));
        if (u != v)
            builder.addEdge(u, v);
    }
    return builder.build();
}

Graph
citation(VertexId num_vertices, unsigned out_degree, std::uint64_t seed)
{
    KHUZDUL_REQUIRE(num_vertices >= 2, "citation needs >= 2 vertices");
    Rng rng(seed);
    GraphBuilder builder(num_vertices);
    for (VertexId v = 1; v < num_vertices; ++v) {
        const unsigned links = 1
            + static_cast<unsigned>(rng.nextBounded(out_degree));
        for (unsigned i = 0; i < links; ++i) {
            // Bias mildly toward recent vertices, like citations do,
            // but without heavy hubs: pick among the previous window.
            const VertexId window = std::min<VertexId>(v, 4096);
            const auto back =
                static_cast<VertexId>(rng.nextBounded(window)) + 1;
            builder.addEdge(v, v - back);
        }
    }
    return builder.build();
}

Graph
smallWorld(VertexId num_vertices, unsigned k, double beta,
           std::uint64_t seed)
{
    KHUZDUL_REQUIRE(num_vertices >= 2 * k + 1,
                    "smallWorld needs > 2k vertices");
    KHUZDUL_REQUIRE(beta >= 0.0 && beta <= 1.0,
                    "rewiring probability must be in [0, 1]");
    Rng rng(seed);
    GraphBuilder builder(num_vertices);
    for (VertexId v = 0; v < num_vertices; ++v) {
        for (unsigned i = 1; i <= k; ++i) {
            VertexId target = (v + i) % num_vertices;
            if (rng.coin(beta))
                target = static_cast<VertexId>(
                    rng.nextBounded(num_vertices));
            if (target != v)
                builder.addEdge(v, target);
        }
    }
    return builder.build();
}

Graph
merge(const Graph &a, const Graph &b)
{
    GraphBuilder builder(std::max(a.numVertices(), b.numVertices()));
    for (const Graph *g : {&a, &b})
        for (VertexId u = 0; u < g->numVertices(); ++u)
            for (const VertexId v : g->neighbors(u))
                if (u < v)
                    builder.addEdge(u, v);
    return builder.build();
}

Graph
complete(VertexId num_vertices)
{
    GraphBuilder builder(num_vertices);
    for (VertexId u = 0; u < num_vertices; ++u)
        for (VertexId v = u + 1; v < num_vertices; ++v)
            builder.addEdge(u, v);
    return builder.build();
}

Graph
cycle(VertexId num_vertices)
{
    KHUZDUL_REQUIRE(num_vertices >= 3, "cycle needs >= 3 vertices");
    GraphBuilder builder(num_vertices);
    for (VertexId v = 0; v < num_vertices; ++v)
        builder.addEdge(v, (v + 1) % num_vertices);
    return builder.build();
}

Graph
star(VertexId num_vertices)
{
    KHUZDUL_REQUIRE(num_vertices >= 2, "star needs >= 2 vertices");
    GraphBuilder builder(num_vertices);
    for (VertexId v = 1; v < num_vertices; ++v)
        builder.addEdge(0, v);
    return builder.build();
}

Graph
path(VertexId num_vertices)
{
    KHUZDUL_REQUIRE(num_vertices >= 2, "path needs >= 2 vertices");
    GraphBuilder builder(num_vertices);
    for (VertexId v = 0; v + 1 < num_vertices; ++v)
        builder.addEdge(v, v + 1);
    return builder.build();
}

Graph
grid(VertexId rows, VertexId cols)
{
    KHUZDUL_REQUIRE(rows >= 1 && cols >= 1, "grid needs positive dims");
    GraphBuilder builder(rows * cols);
    const auto id = [cols](VertexId r, VertexId c) { return r * cols + c; };
    for (VertexId r = 0; r < rows; ++r) {
        for (VertexId c = 0; c < cols; ++c) {
            if (c + 1 < cols)
                builder.addEdge(id(r, c), id(r, c + 1));
            if (r + 1 < rows)
                builder.addEdge(id(r, c), id(r + 1, c));
        }
    }
    return builder.build();
}

void
randomizeLabels(Graph &g, Label num_labels, std::uint64_t seed)
{
    KHUZDUL_REQUIRE(num_labels >= 1, "need at least one label");
    Rng rng(seed);
    std::vector<Label> labels(g.numVertices());
    for (auto &l : labels)
        l = static_cast<Label>(rng.nextBounded(num_labels));
    g.setLabels(std::move(labels));
}

} // namespace gen
} // namespace khuzdul
