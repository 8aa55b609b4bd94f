#include "engines/single_machine.hh"

#include "graph/orientation.hh"
#include "sim/cost_model.hh"
#include "support/check.hh"

namespace khuzdul
{
namespace engines
{

namespace
{

/** True when @p p is a complete graph (clique) pattern. */
bool
isCliquePattern(const Pattern &p)
{
    return p.numEdges() == p.size() * (p.size() - 1) / 2 && p.size() >= 2;
}

} // namespace

SingleMachineEngine::SingleMachineEngine(const Graph &g,
                                         SingleMachineStyle style,
                                         const SingleMachineConfig &config)
    : graph_(&g), style_(style), config_(config),
      oriented_(style == SingleMachineStyle::PangolinLike
                    ? graph::orient(g)
                    : Graph())
{
    KHUZDUL_REQUIRE(config.cores >= 1, "need at least one core");
}

bool
SingleMachineEngine::usesOrientation(const Pattern &p) const
{
    return style_ == SingleMachineStyle::PangolinLike
        && isCliquePattern(p) && !p.labeled();
}

SingleMachineResult
SingleMachineEngine::count(const Pattern &p, const PlanOptions &options)
{
    KHUZDUL_REQUIRE(graph_->sizeBytes() <= config_.memoryBytes,
                    "graph (" << graph_->sizeBytes()
                    << "B) exceeds single-machine memory ("
                    << config_.memoryBytes << "B)");

    const Graph *g = graph_;
    ExtendPlan plan;
    if (usesOrientation(p)) {
        // Orientation (Pangolin, §7.2): on the degree-oriented DAG
        // every clique matches exactly once in ascending order, so
        // no symmetry-breaking filters are needed at all.
        g = &oriented_;
        PlanOptions opts = options;
        opts.symmetryBreaking = false;
        plan = compileAutomine(p, opts);
        plan.countDivisor = 1;
    } else {
        // AutomineIH's plan.  Peregrine matches with its own
        // pattern-aware runtime; use the heuristic order too (its
        // plans are comparable).
        plan = compileAutomine(p, options);
    }

    std::vector<VertexId> roots(g->numVertices());
    for (VertexId v = 0; v < g->numVertices(); ++v)
        roots[v] = v;

    SingleMachineResult result;
    result.work = core::runPlanDfs(*g, plan, roots);
    KHUZDUL_CHECK(result.work.rawCount >= 0
                  && result.work.rawCount % plan.countDivisor == 0,
                  "inconsistent raw count");
    result.count = static_cast<Count>(result.work.rawCount
                                      / plan.countDivisor);

    // Modeled runtime: measured work on one core, divided over the
    // machine's cores, plus per-system constants.
    double work_ns = sim::cost::dfsWorkNs(result.work.workItems,
                                          result.work.candidatesChecked,
                                          result.work.embeddingsVisited);
    // Peregrine interprets the pattern at runtime instead of
    // compiling it; a modest per-operation tax models that.
    if (style_ == SingleMachineStyle::PeregrineLike)
        work_ns *= 1.2;
    result.runtimeNs =
        work_ns / config_.cores + sim::cost::engineStartupNs;
    // Orientation is not free: a full relabel-and-rebuild pass over
    // the graph precedes counting.
    if (usesOrientation(p))
        result.runtimeNs += 12.0
            * static_cast<double>(graph_->numArcs()) / config_.cores;
    return result;
}

} // namespace engines
} // namespace khuzdul
