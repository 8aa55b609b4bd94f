/**
 * @file
 * Shared infrastructure for the per-table / per-figure benchmark
 * harnesses.  Every bench binary regenerates one artifact of the
 * paper's evaluation (§7); helpers here standardize dataset access,
 * engine configuration at stand-in scale, the application set
 * (TC / 3-MC / 4-CC / 5-CC) and paper-style table printing.
 */

#ifndef KHUZDUL_BENCH_BENCH_COMMON_HH
#define KHUZDUL_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "apps/gpm_apps.hh"
#include "engines/khuzdul_system.hh"
#include "graph/datasets.hh"
#include "pattern/pattern.hh"
#include "sim/stats.hh"
#include "support/format.hh"

namespace khuzdul
{
namespace bench
{

/** The paper's application set (Table 2 rows). */
struct App
{
    std::string name;
    /** Patterns counted; k-MC uses induced matching. */
    std::vector<Pattern> patterns;
    bool induced = false;
};

/** TC, 3-MC, 4-CC, 5-CC as used throughout §7. */
inline std::vector<App>
paperApps()
{
    std::vector<App> apps;
    apps.push_back({"TC", {Pattern::triangle()}, false});
    App mc3{"3-MC", {}, true};
    mc3.patterns.push_back(Pattern::pathOf(3));
    mc3.patterns.push_back(Pattern::triangle());
    apps.push_back(mc3);
    apps.push_back({"4-CC", {Pattern::clique(4)}, false});
    apps.push_back({"5-CC", {Pattern::clique(5)}, false});
    return apps;
}

/** Look up one app from paperApps() by name. */
inline App
appByName(const std::string &name)
{
    for (const App &app : paperApps())
        if (app.name == name)
            return app;
    std::fprintf(stderr, "unknown app %s\n", name.c_str());
    std::abort();
}

/**
 * Engine configuration at stand-in scale: the paper's defaults
 * (4 GB chunks, 15% cache, threshold 64) scaled ~1000x down with
 * the datasets.
 */
inline core::EngineConfig
standInEngineConfig(NodeId nodes = 8)
{
    core::EngineConfig config;
    config.graph.cluster = sim::ClusterConfig::paperDefault(nodes);
    // Scaled from the paper's 4 GB default (~1000x smaller data).
    config.session.chunkBytes = 1ull << 20;
    config.graph.cacheFraction = 0.15;
    config.graph.cacheDegreeThreshold = 32;
    return config;
}

/**
 * Configuration for the cache-focused experiments (Table 6, Figs
 * 16/17).  The paper's cache regime has a fetch-stream hundreds of
 * times larger than a chunk (so lists are refetched across chunks)
 * and a hot set far smaller than the cache.  Scale compression
 * shrinks the stream quadratically but chunks only linearly, so
 * these runs use proportionally smaller chunks, and a cache sized
 * against the stand-ins' (relatively fatter) hot set.
 */
inline core::EngineConfig
cacheRegimeConfig(NodeId nodes = 8)
{
    core::EngineConfig config = standInEngineConfig(nodes);
    config.session.chunkBytes = 4ull << 10;
    config.graph.cacheFraction = 0.45;
    config.graph.cacheDegreeThreshold = 64;
    return config;
}

/** Outcome of one (system, app, graph) cell. */
struct Cell
{
    bool ok = false;
    std::string error;    ///< "OOM" / "CRASHED" style marker
    Count count = 0;
    double makespanNs = 0;
    sim::RunStats stats;
};

/** Run all of an app's patterns on a Khuzdul system, fresh stats. */
inline Cell
runOnKhuzdul(engines::KhuzdulSystem &system, const App &app)
{
    Cell cell;
    system.resetStats();
    PlanOptions options;
    options.induced = app.induced;
    for (const Pattern &p : app.patterns)
        cell.count += system.count(p, options);
    cell.stats = system.stats();
    cell.makespanNs = cell.stats.makespanNs();
    cell.ok = true;
    return cell;
}

/** Paper-style table printer. */
class TablePrinter
{
  public:
    explicit TablePrinter(std::vector<std::string> headers,
                          std::vector<int> widths)
        : headers_(std::move(headers)), widths_(std::move(widths))
    {}

    void
    printHeader() const
    {
        printRule();
        std::string line = "|";
        for (std::size_t i = 0; i < headers_.size(); ++i) {
            line += ' ';
            line += padRight(headers_[i], widths_[i]);
            line += " |";
        }
        std::printf("%s\n", line.c_str());
        printRule();
    }

    void
    printRow(const std::vector<std::string> &cells) const
    {
        std::string line = "|";
        for (std::size_t i = 0; i < cells.size(); ++i) {
            line += ' ';
            line += padLeft(cells[i], widths_[i]);
            line += " |";
        }
        std::printf("%s\n", line.c_str());
    }

    void
    printRule() const
    {
        std::string line = "+";
        for (const int width : widths_)
            line += std::string(width + 2, '-') + "+";
        std::printf("%s\n", line.c_str());
    }

  private:
    std::vector<std::string> headers_;
    std::vector<int> widths_;
};

/** Banner naming the regenerated artifact. */
inline void
banner(const std::string &title, const std::string &paper_ref)
{
    std::printf("\n=== %s ===\n", title.c_str());
    std::printf("reproduces: %s\n", paper_ref.c_str());
    std::printf("(stand-in datasets, modeled cluster time; see "
                "DESIGN.md for the substitution table)\n\n");
}

/** Format a modeled makespan like the paper's runtime cells. */
inline std::string
fmtTime(double ns)
{
    return formatTime(static_cast<std::uint64_t>(ns < 0 ? 0 : ns));
}

} // namespace bench
} // namespace khuzdul

#endif // KHUZDUL_BENCH_BENCH_COMMON_HH
