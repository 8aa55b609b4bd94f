/**
 * @file
 * Deterministic fault injection for the simulated fabric (DESIGN.md
 * §9).  A FaultPlan is a list of declarative FaultSpecs parsed from
 * repeatable CLI `--fault <spec>` options; every trigger is a pure
 * function of *modeled* state — the per-unit message ordinal on a
 * link, or the per-unit modeled communication clock — never of the
 * wall clock or a PRNG, so a fixed (config, plan) pair produces
 * bit-identical counts, RunStats, ledger and trace stream at every
 * host thread count.
 *
 * Each execution unit owns one FaultSession: the deterministic
 * per-unit cursor (link ordinals + modeled clock) that the circulant
 * scheduler consults on every transfer attempt and that the
 * provider's recovery ladder consults for permanently-down owners.
 * Fault *decisions* are made from this per-unit state during the
 * unit's pass; their *ledger effects* ride the unit's traffic
 * tally (every attempt is counted, failed or not), which
 * Fabric::mergeTally folds in after the barrier — the same merge
 * point where the byte cap fires.
 */

#ifndef KHUZDUL_SIM_FAULTS_HH
#define KHUZDUL_SIM_FAULTS_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/types.hh"

namespace khuzdul
{
namespace sim
{

/**
 * An injected (or detected) fabric failure.  Deliberately NOT a
 * FatalError: engines and tests must be able to distinguish a
 * modeled fault outcome from a genuine invariant violation.
 */
class FabricFault : public std::runtime_error
{
  public:
    explicit FabricFault(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** The fabric's configured byte budget was exceeded. */
class ByteCapExceededFault : public FabricFault
{
  public:
    explicit ByteCapExceededFault(const std::string &what)
        : FabricFault(what)
    {}
};

/** A query's modeled deadline elapsed before it finished. */
class DeadlineExceeded : public FabricFault
{
  public:
    explicit DeadlineExceeded(const std::string &what)
        : FabricFault(what)
    {}
};

/** A query was cooperatively cancelled at a level barrier. */
class QueryCancelled : public FabricFault
{
  public:
    explicit QueryCancelled(const std::string &what)
        : FabricFault(what)
    {}
};

/** The injectable failure modes. */
enum class FaultKind : std::uint8_t
{
    Drop,     ///< batch lost in flight; transfer time wasted
    Timeout,  ///< no reply; requester charged the timeout cost
    Degrade,  ///< link serves, but at a cost multiplier (epoch)
    NodeDown, ///< node unreachable over a window (or forever)
    Crash,    ///< execution unit dies at a chunk ordinal of a level
};

const char *faultKindName(FaultKind kind);

/** Wildcard endpoint in a fault spec (`*` on the CLI). */
inline constexpr NodeId kAnyNode = static_cast<NodeId>(-1);

/** Modeled-time value meaning "no end of window". */
inline constexpr double kForeverNs = -1.0;

/**
 * One declarative fault.  Triggers are ledger-state based: Drop and
 * Timeout fire on the requesting unit's @p firstMsg-th message on
 * the (src, dst) link (1-based, counting that unit's own attempts)
 * and stay armed for @p count consecutive messages; Degrade and
 * NodeDown fire while the unit's modeled communication clock lies in
 * [fromNs, untilNs) — untilNs == kForeverNs keeps a NodeDown
 * permanent, which reroutes fetches instead of being retried.
 */
struct FaultSpec
{
    FaultKind kind = FaultKind::Drop;
    NodeId src = kAnyNode;  ///< requester-side node filter
    NodeId dst = kAnyNode;  ///< owner-side node filter
    NodeId node = kAnyNode; ///< NodeDown target
    std::uint64_t firstMsg = 1; ///< 1-based ordinal trigger
    std::uint64_t count = 1;    ///< consecutive messages affected
    double factor = 1.0;        ///< Degrade cost multiplier
    double fromNs = 0;          ///< window start (modeled ns)
    double untilNs = kForeverNs; ///< window end, kForeverNs = open
    unsigned unit = 0;          ///< Crash: execution unit that dies
    int level = 0;              ///< Crash: level of the fatal chunk
    std::uint64_t chunk = 1;    ///< Crash: 1-based chunk ordinal
};

/**
 * The whole run's fault schedule: an ordered spec list plus the
 * retry budget.  Copyable plain data (lives inside SessionConfig).
 *
 * Spec grammar (one per `--fault`, all fields after the kind are
 * `key=value` or `SRC-DST` link selectors, `*` = any node):
 *
 *   drop:SRC-DST:msg=N[:count=K]
 *   timeout:SRC-DST:msg=N[:count=K]
 *   degrade:SRC-DST:factor=F[:from=NS][:until=NS]
 *   down:node=D[:from=NS][:until=NS]     (no until -> permanent)
 *   crash:UNIT:level=L[:chunk=K]         (K-th chunk of level L)
 *
 * Parse-time hardening: count=0 (a vacuously-inert spec) and
 * self-links (SRC-DST with both endpoints concrete and equal — a
 * node never faults its own local accesses) are rejected with clear
 * messages; id *ranges* depend on the deployment, so validate()
 * checks them once the cluster geometry is known.
 */
class FaultPlan
{
  public:
    /** Parse and append one spec; throws FatalError on bad syntax. */
    void add(const std::string &spec);

    void
    add(const FaultSpec &spec)
    {
        specs_.push_back(spec);
    }

    const std::vector<FaultSpec> &specs() const { return specs_; }

    bool empty() const { return specs_.empty(); }

    /** Check every endpoint / node / unit id against the deployment
     *  geometry; throws FatalError naming the offending spec.  The
     *  engine calls this at construction. */
    void validate(NodeId num_nodes, unsigned num_units) const;

    /** True if any spec is a unit crash (arms checkpointing). */
    bool hasCrash() const;

    /** Retry attempts after the first failure of a batch. */
    unsigned maxRetries = 3;

  private:
    std::vector<FaultSpec> specs_;
};

/** What the fault layer decided about one transfer attempt. */
struct FaultOutcome
{
    bool faulted = false;  ///< attempt failed (retry or give up)
    bool degraded = false; ///< attempt served at a degraded price
    FaultKind kind = FaultKind::Drop; ///< valid when faulted/degraded
    double chargeNs = 0;   ///< modeled cost of this attempt
};

/**
 * One execution unit's deterministic fault cursor: a per-link
 * message-ordinal counter and a modeled communication clock, both
 * advanced only by the unit's own deterministic activity (transfer
 * charges and retry backoffs).  Everything here is per-unit state,
 * which is what makes fault decisions independent of the host
 * thread count.
 */
class FaultSession
{
  public:
    FaultSession(const FaultPlan &plan, NodeId num_nodes);

    /**
     * Consult the plan for the next message on link (src, dst):
     * advances the link ordinal, decides the outcome, charges it to
     * the modeled clock and returns it.  @p base_ns is the fault-free
     * modeled transfer time; @p timeout_ns the configured timeout
     * charge for unanswered attempts.
     */
    FaultOutcome onTransfer(NodeId src, NodeId dst, double base_ns,
                            double timeout_ns);

    /** Advance the modeled clock by a retry backoff. */
    void advance(double ns) { clockNs_ += ns; }

    /** The unit's modeled communication clock (ns). */
    double clockNs() const { return clockNs_; }

    /** @p node unreachable forever (reroute, don't retry). */
    bool nodePermanentlyDown(NodeId node) const;

    /** Retry attempts after the first failure of a batch. */
    unsigned maxRetries() const { return plan_->maxRetries; }

    /** Clear ordinals and the clock (with the stats/ledger wipe). */
    void reset();

  private:
    bool nodeDownNow(NodeId node) const;

    const FaultPlan *plan_;
    NodeId numNodes_;
    std::vector<std::uint64_t> linkMsgs_;
    double clockNs_ = 0;
};

} // namespace sim
} // namespace khuzdul

#endif // KHUZDUL_SIM_FAULTS_HH
