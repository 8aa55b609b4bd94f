/**
 * @file
 * The two Khuzdul-based GPM systems of the paper: k-Automine and
 * k-GraphPi.  Each pairs a client compiler (the "ported" ~500-line
 * layer emitting EXTEND plans) with the shared distributed engine.
 */

#ifndef KHUZDUL_ENGINES_KHUZDUL_SYSTEM_HH
#define KHUZDUL_ENGINES_KHUZDUL_SYSTEM_HH

#include <memory>

#include "core/engine.hh"
#include "pattern/planner.hh"

namespace khuzdul
{
namespace engines
{

/** Which single-machine system's compiler drives plan generation. */
enum class CompilerStyle
{
    Automine, ///< locality-heuristic order, no IEP (k-Automine)
    GraphPi,  ///< cost-model order search + IEP (k-GraphPi)
};

/** A complete distributed GPM system: compiler + Khuzdul engine. */
class KhuzdulSystem
{
  public:
    KhuzdulSystem(const Graph &g, const core::EngineConfig &config,
                  CompilerStyle style);

    /** Compile @p p in this system's style. */
    ExtendPlan compile(const Pattern &p,
                       const PlanOptions &options = {}) const;

    /** Count embeddings of @p p. */
    Count count(const Pattern &p, const PlanOptions &options = {});

    /**
     * Enumerate embeddings of @p p through @p visitor (forces a
     * visitor-compatible plan: no IEP, full symmetry breaking).
     */
    Count enumerate(const Pattern &p, core::MatchVisitor *visitor,
                    const PlanOptions &options = {});

    CompilerStyle style() const { return style_; }
    const Graph &graph() const { return engine_->graph(); }
    core::Engine &engine() { return *engine_; }
    const sim::RunStats &stats() const { return engine_->stats(); }
    void resetStats() { engine_->resetStats(); }

    /** Factory helpers matching the paper's system names. */
    static std::unique_ptr<KhuzdulSystem>
    kAutomine(const Graph &g, const core::EngineConfig &config)
    {
        return std::make_unique<KhuzdulSystem>(g, config,
                                               CompilerStyle::Automine);
    }

    static std::unique_ptr<KhuzdulSystem>
    kGraphPi(const Graph &g, const core::EngineConfig &config)
    {
        return std::make_unique<KhuzdulSystem>(g, config,
                                               CompilerStyle::GraphPi);
    }

  private:
    std::unique_ptr<core::Engine> engine_;
    CompilerStyle style_;

    /** The engine's context's shared profile (never owned). */
    const GraphProfile *profile_;
};

} // namespace engines
} // namespace khuzdul

#endif // KHUZDUL_ENGINES_KHUZDUL_SYSTEM_HH
