/**
 * @file
 * Callbacks out of the EXTEND step.  MatchVisitor is the
 * user-defined-function hook of the execution model: when EXTEND
 * reaches a complete embedding it passes it to the application
 * (Figure 5's UDF call).  RunnerHooks observes the step's edge-list
 * reads, from which baseline engines model data movement.
 */

#ifndef KHUZDUL_CORE_VISITOR_HH
#define KHUZDUL_CORE_VISITOR_HH

#include <span>

#include "support/types.hh"

namespace khuzdul
{
namespace core
{

/** Receives complete embeddings (tuple[i] = vertex at position i). */
class MatchVisitor
{
  public:
    virtual ~MatchVisitor() = default;

    /**
     * One embedding matching the plan's pattern.  The span is only
     * valid during the call.
     */
    virtual void match(std::span<const VertexId> positions) = 0;
};

/** Observation hooks for baseline engines built on runPlanDfs. */
class RunnerHooks
{
  public:
    virtual ~RunnerHooks() = default;

    /** The enumeration just read the edge list of @p v. */
    virtual void onEdgeListAccess(VertexId v) { (void)v; }
};

} // namespace core
} // namespace khuzdul

#endif // KHUZDUL_CORE_VISITOR_HH
