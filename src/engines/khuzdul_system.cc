#include "engines/khuzdul_system.hh"

namespace khuzdul
{
namespace engines
{

KhuzdulSystem::KhuzdulSystem(const Graph &g,
                             const core::EngineConfig &config,
                             CompilerStyle style)
    : engine_(std::make_unique<core::Engine>(g, config)), style_(style),
      profile_(&engine_->context().profile())
{}

ExtendPlan
KhuzdulSystem::compile(const Pattern &p, const PlanOptions &options) const
{
    if (style_ == CompilerStyle::Automine)
        return compileAutomine(p, options);
    return compileGraphPi(p, *profile_, options);
}

Count
KhuzdulSystem::count(const Pattern &p, const PlanOptions &options)
{
    return engine_->run(compile(p, options));
}

Count
KhuzdulSystem::enumerate(const Pattern &p, core::MatchVisitor *visitor,
                         const PlanOptions &options)
{
    PlanOptions opts = options;
    opts.useIep = false;
    opts.symmetryBreaking = true;
    return engine_->run(compile(p, opts), visitor);
}

} // namespace engines
} // namespace khuzdul
