#include "core/plan_runner.hh"

#include <array>
#include <vector>

#include "core/extender.hh"
#include "sim/stats.hh"
#include "support/check.hh"

namespace khuzdul
{
namespace core
{

namespace
{

/**
 * Recursive DFS over one PlanExtender, one recursion level per plan
 * level.  sets_[t] views the candidate set position t was drawn
 * from — the analogue of a chunk's stored result — and goes back to
 * the extender as `stored` for vertical sharing; levels_[t] holds it
 * when it is not a view of something that outlives the loop.
 */
class DfsDriver
{
  public:
    DfsDriver(const Graph &g, const ExtendPlan &plan,
              MatchVisitor *visitor, RunnerHooks *hooks)
        : plan_(plan), visitor_(visitor),
          extender_(g, plan, KernelMode::Auto, hooks)
    {}

    /** Enumerate the embedding tree rooted at @p root. */
    void
    explore(VertexId root)
    {
        extender_.vertices()[0] = root;
        if (plan_.pattern.size() > 1) {
            recurse(0);
            return;
        }
        ++result_.embeddingsVisited;
        ++result_.rawCount;
        if (visitor_)
            visitor_->match({extender_.vertices().data(), 1});
    }

    RunnerResult
    result() const
    {
        RunnerResult result = result_;
        result.workItems = stats_.intersectionItems;
        return result;
    }

  private:
    void
    recurse(int level)
    {
        ++result_.embeddingsVisited;
        const int prefix_len = plan_.numMaterializedLevels();
        if (plan_.hasIep && level == prefix_len - 1) {
            result_.rawCount += extender_.iepTerminal(
                prefix_len, sets_[prefix_len - 1], stats_);
            return;
        }
        const int t = level + 1;
        const bool terminal = t == plan_.pattern.size() - 1;
        if (terminal && !visitor_ && extender_.countsTerminal()) {
            const SplitCount count =
                extender_.countTerminal(sets_[t - 1], stats_);
            result_.candidatesChecked += count.below + count.atOrAbove;
            result_.rawCount += static_cast<std::int64_t>(count.atOrAbove);
            return;
        }
        std::span<const VertexId> set = extender_.buildCandidates(
            t, sets_[t - 1], levels_[t], stats_);
        // The prefix the filter was built from stays intact while the
        // loop recurses.
        const CandidateFilter accepts = extender_.filter(t);
        if (terminal) {
            result_.candidatesChecked += set.size();
            result_.rawCount +=
                extender_.scanTerminal(set, accepts, visitor_);
            return;
        }
        // A memo hit views the extender's arena, which a deeper miss
        // can recycle: keep a copy.  Views of levels_[t - 1] (deeper
        // levels only write higher slots) or of an edge list stay
        // valid while the loop recurses.
        if (extender_.viewsMemoArena(set)) {
            levels_[t].assign(set.begin(), set.end());
            set = levels_[t];
        }
        sets_[t] = set;
        for (const VertexId candidate : set) {
            ++result_.candidatesChecked;
            if (!accepts(candidate))
                continue;
            extender_.vertices()[t] = candidate;
            recurse(t);
        }
    }

    const ExtendPlan &plan_;
    MatchVisitor *visitor_;
    /** Its modeled time is never read: baselines price their own
     *  from RunnerResult. */
    PlanExtender extender_;
    sim::NodeStats stats_;
    RunnerResult result_;
    std::array<std::span<const VertexId>, kMaxPatternSize> sets_{};
    std::array<std::vector<VertexId>, kMaxPatternSize> levels_{};
};

} // namespace

RunnerResult
runPlanDfs(const Graph &g, const ExtendPlan &plan,
           std::span<const VertexId> roots, MatchVisitor *visitor,
           RunnerHooks *hooks)
{
    KHUZDUL_REQUIRE(plan.pattern.size() >= 1, "plan has no levels");
    if (visitor) {
        KHUZDUL_REQUIRE(!plan.hasIep,
                        "visitors cannot observe IEP-folded embeddings");
        KHUZDUL_REQUIRE(plan.countDivisor == 1,
                        "visitors need complete symmetry breaking");
    }
    DfsDriver driver(g, plan, visitor, hooks);
    const PlanLevel &root = plan.levels[0];
    for (const VertexId v : roots)
        if (!root.hasLabelFilter || g.label(v) == root.labelFilter)
            driver.explore(v);
    return driver.result();
}

Count
countWithPlan(const Graph &g, const ExtendPlan &plan)
{
    std::vector<VertexId> roots(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        roots[v] = v;
    const RunnerResult result = runPlanDfs(g, plan, roots);
    KHUZDUL_CHECK(result.rawCount >= 0, "negative raw count");
    KHUZDUL_CHECK(result.rawCount % plan.countDivisor == 0,
                  "raw count " << result.rawCount
                  << " not divisible by divisor " << plan.countDivisor);
    return static_cast<Count>(result.rawCount / plan.countDivisor);
}

} // namespace core
} // namespace khuzdul
