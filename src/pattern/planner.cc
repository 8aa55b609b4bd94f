#include "pattern/planner.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <set>
#include <sstream>

#include "pattern/isomorphism.hh"
#include "support/check.hh"

namespace khuzdul
{

namespace
{

/** Factorial for IEP coefficients (n <= 7). */
std::int64_t
factorial(int n)
{
    std::int64_t f = 1;
    for (int i = 2; i <= n; ++i)
        f *= i;
    return f;
}

/**
 * Orbit-chain symmetry breaking (GraphZero style).  Given the group
 * @p autos acting on positions, emit "position i < position j"
 * restrictions that keep exactly one representative per group orbit
 * of each injective tuple; only positions < prefix_len are
 * considered (the group must map that prefix to itself).
 */
void
orbitRestrictions(std::vector<iso::Permutation> autos, int prefix_len,
                  std::vector<PlanLevel> &levels)
{
    for (int i = 0; i < prefix_len; ++i) {
        PositionMask orbit = 0;
        for (const auto &sigma : autos)
            orbit |= 1u << sigma[i];
        orbit &= ~(1u << i);
        for (int j = 0; j < prefix_len; ++j)
            if ((orbit >> j) & 1u)
                levels[j].greaterThanMask |= 1u << i;
        std::erase_if(autos, [i](const iso::Permutation &sigma) {
            return sigma[i] != i;
        });
    }
}

/** Lists needed to extend a level-(i-1) embedding to level i. */
PositionMask
neededLists(const ExtendPlan &plan, int i)
{
    const PlanLevel &level = plan.levels[i];
    PositionMask mask = level.reuseParent
        ? (level.extraDepMask | level.extraAntiMask)
        : (level.depMask | level.antiMask);
    return mask;
}

} // namespace

GraphProfile
GraphProfile::fromGraph(const Graph &g)
{
    GraphProfile profile;
    profile.numVertices = std::max<double>(1.0, g.numVertices());
    profile.avgDegree = g.numVertices() == 0
        ? 1.0
        : static_cast<double>(g.numArcs()) / g.numVertices();
    return profile;
}

namespace
{

/** Plans exist only for connected non-empty patterns: each position
 *  after the first extends from an earlier one. */
void
requirePlannable(const Pattern &p)
{
    KHUZDUL_REQUIRE(p.size() >= 1 && p.connected(),
                    "plans need a connected non-empty pattern");
}

/** The position of each pattern vertex under @p order (the inverse
 *  of the order); REQUIREs that @p order permutes 0..n-1. */
iso::Permutation
positionsOf(const std::vector<int> &order)
{
    const int n = static_cast<int>(order.size());
    iso::Permutation to_position{};
    std::uint32_t used = 0;
    for (int i = 0; i < n; ++i) {
        const int v = order[i];
        KHUZDUL_REQUIRE(v >= 0 && v < n && !((used >> v) & 1u),
                        "matching order must be a permutation");
        used |= 1u << v;
        to_position[v] = i;
    }
    return to_position;
}

/** buildPlan() given Aut(@p p) as @p autos. */
ExtendPlan
planOrder(const Pattern &p, const std::vector<iso::Permutation> &autos,
          const std::vector<int> &order, const PlanOptions &options,
          int iep_suffix)
{
    const int n = p.size();
    requirePlannable(p);
    KHUZDUL_REQUIRE(static_cast<int>(order.size()) == n,
                    "matching order size must equal pattern size");
    KHUZDUL_REQUIRE(iep_suffix >= 0 && iep_suffix < n,
                    "IEP suffix must leave at least one prefix level");
    if (options.induced)
        KHUZDUL_REQUIRE(iep_suffix == 0,
                        "IEP is incompatible with induced matching");

    // Reorder the pattern so that position i == pattern vertex i.
    const iso::Permutation to_position = positionsOf(order);
    ExtendPlan plan;
    plan.pattern = p.permuted(to_position);
    plan.induced = options.induced;
    plan.levels.resize(n);

    const int prefix_len = n - iep_suffix;

    // Dependency and exclusion masks; validate prefix connectivity.
    for (int i = 1; i < n; ++i) {
        PlanLevel &level = plan.levels[i];
        const PositionMask earlier = (1u << i) - 1;
        level.depMask = plan.pattern.adjacency(i) & earlier;
        KHUZDUL_REQUIRE(level.depMask != 0,
                        "matching order prefix must stay connected "
                        "(position " << i << ")");
        if (options.induced)
            level.antiMask = earlier & ~level.depMask;
        if (plan.pattern.labeled()) {
            level.hasLabelFilter = true;
            level.labelFilter = plan.pattern.label(i);
        }
    }
    if (plan.pattern.labeled()) {
        plan.levels[0].hasLabelFilter = true;
        plan.levels[0].labelFilter = plan.pattern.label(0);
    }

    // IEP terminal block: trailing positions must be pairwise
    // non-adjacent so injective assignments can be counted by
    // inclusion-exclusion over set partitions.
    if (iep_suffix >= 1) {
        KHUZDUL_REQUIRE(!plan.pattern.labeled(),
                        "IEP is unsupported for labeled patterns");
        for (int a = prefix_len; a < n; ++a)
            for (int b = a + 1; b < n; ++b)
                KHUZDUL_REQUIRE(!plan.pattern.hasEdge(a, b),
                                "IEP suffix positions must be pairwise "
                                "non-adjacent");
        plan.hasIep = true;
        plan.iep.suffixSize = iep_suffix;
        const auto partitions = setPartitions(iep_suffix);
        for (const auto &partition : partitions) {
            IepBlock::Term term;
            for (const auto &block : partition) {
                PositionMask mask = 0;
                for (const int t : block)
                    mask |= plan.levels[prefix_len + t].depMask;
                const int b = static_cast<int>(block.size());
                term.coefficient *= (b % 2 == 0 ? -1 : 1) * factorial(b - 1);
                auto it = std::find(plan.iep.masks.begin(),
                                    plan.iep.masks.end(), mask);
                if (it == plan.iep.masks.end()) {
                    plan.iep.masks.push_back(mask);
                    it = std::prev(plan.iep.masks.end());
                }
                term.maskIndex.push_back(
                    static_cast<int>(it - plan.iep.masks.begin()));
            }
            plan.iep.terms.push_back(std::move(term));
        }
    }

    // Symmetry breaking and the count divisor.  With
    //   G  = Aut(reordered pattern) = Aut(p) carried onto positions,
    //   K  = {sigma in G : sigma maps the prefix to itself},
    //   K0 = {sigma in G : sigma fixes every prefix position},
    // orbit-chain restrictions over K keep one canonical prefix per
    // K-orbit, so every embedding is matched (|G|/|K|) * |K0| times.
    const auto group = iso::conjugated(autos, to_position, n);
    std::vector<iso::Permutation> prefix_stable;
    std::int64_t k0_size = 0;
    for (const auto &sigma : group) {
        bool stable = true;
        bool fixes_all = true;
        for (int i = 0; i < prefix_len; ++i) {
            if (sigma[i] >= prefix_len)
                stable = false;
            if (sigma[i] != i)
                fixes_all = false;
        }
        if (stable)
            prefix_stable.push_back(sigma);
        if (fixes_all)
            ++k0_size;
    }
    const auto g_size = static_cast<std::int64_t>(group.size());
    const auto k_size = static_cast<std::int64_t>(prefix_stable.size());
    if (options.symmetryBreaking) {
        orbitRestrictions(prefix_stable, prefix_len, plan.levels);
        plan.countDivisor = (g_size / k_size) * k0_size;
    } else {
        plan.countDivisor = g_size;
    }

    // Vertical computation sharing: reuse the parent's materialized
    // candidate set when this level's constraints extend it.
    if (options.verticalSharing) {
        for (int i = 2; i < prefix_len; ++i) {
            PlanLevel &level = plan.levels[i];
            const PlanLevel &parent = plan.levels[i - 1];
            const bool deps_extend =
                (level.depMask & parent.depMask) == parent.depMask;
            const bool antis_extend =
                (level.antiMask & parent.antiMask) == parent.antiMask;
            // Reusing a one-list "intersection" saves nothing.
            if (deps_extend && antis_extend
                && std::popcount(parent.depMask) >= 2) {
                level.reuseParent = true;
                level.extraDepMask = level.depMask & ~parent.depMask;
                level.extraAntiMask = level.antiMask & ~parent.antiMask;
                plan.levels[i - 1].storeResult = true;
            }
        }
    }

    // Vertical sharing into the IEP terminal block: a mask that
    // extends the last prefix level's dependency set can reuse its
    // stored candidate set (GraphPi computes these intersections
    // incrementally too).
    if (plan.hasIep && options.verticalSharing && prefix_len >= 2) {
        PlanLevel &last = plan.levels[prefix_len - 1];
        plan.iep.maskReuse.assign(plan.iep.masks.size(), false);
        plan.iep.maskExtra.assign(plan.iep.masks.size(), 0);
        if (std::popcount(last.depMask) >= 2 && last.antiMask == 0) {
            for (std::size_t m = 0; m < plan.iep.masks.size(); ++m) {
                const PositionMask mask = plan.iep.masks[m];
                if ((mask & last.depMask) == last.depMask) {
                    plan.iep.maskReuse[m] = true;
                    plan.iep.maskExtra[m] = mask & ~last.depMask;
                    last.storeResult = true;
                }
            }
        }
    }

    // Active edge lists (anti-monotone): a position stays active at
    // level i when some later extension or the IEP still reads its
    // edge list.
    PositionMask iep_union = 0;
    if (plan.hasIep)
        for (const PositionMask mask : plan.iep.masks)
            iep_union |= mask;
    for (int i = 0; i < prefix_len; ++i) {
        PositionMask future = iep_union;
        for (int j = i + 1; j < prefix_len; ++j)
            future |= neededLists(plan, j);
        plan.levels[i].activeMask = future & ((1u << (i + 1)) - 1);
        plan.levels[i].fetchEdgeList = ((future >> i) & 1u) != 0;
    }

    return plan;
}

} // namespace

ExtendPlan
buildPlan(const Pattern &p, const std::vector<int> &order,
          const PlanOptions &options, int iep_suffix)
{
    return planOrder(p, iso::automorphisms(p), order, options, iep_suffix);
}

std::vector<std::vector<int>>
distinctOrders(const Pattern &p)
{
    const int n = p.size();
    std::vector<std::vector<int>> orders;
    if (n == 0)
        return orders;
    // A reordered pattern as a key: adjacency rows, then labels, by
    // position.
    std::set<std::array<std::uint32_t, 2 * kMaxPatternSize>> planned;
    std::vector<int> order(n);
    for (int i = 0; i < n; ++i)
        order[i] = i;
    do {
        // Prefix connectivity check (cheap reject before reordering).
        std::uint32_t seen = 1u << order[0];
        bool connected = true;
        for (int i = 1; i < n && connected; ++i) {
            if ((p.adjacency(order[i]) & seen) == 0)
                connected = false;
            seen |= 1u << order[i];
        }
        if (!connected)
            continue;
        const Pattern reordered = p.permuted(positionsOf(order));
        std::array<std::uint32_t, 2 * kMaxPatternSize> key{};
        for (int i = 0; i < n; ++i) {
            key[i] = reordered.adjacency(i);
            key[kMaxPatternSize + i] = reordered.label(i);
        }
        if (planned.insert(key).second)
            orders.push_back(order);
    } while (std::next_permutation(order.begin(), order.end()));
    return orders;
}

std::vector<int>
automineOrder(const Pattern &p)
{
    const int n = p.size();
    std::vector<int> order;
    std::uint32_t chosen = 0;
    // Start at a maximum-degree vertex; then greedily add the vertex
    // with the most edges into the prefix (ties: higher degree, then
    // lower id), which keeps intersections selective early.
    int best = 0;
    for (int v = 1; v < n; ++v)
        if (p.degree(v) > p.degree(best))
            best = v;
    order.push_back(best);
    chosen |= 1u << best;
    while (static_cast<int>(order.size()) < n) {
        int pick = -1;
        int pick_links = -1;
        for (int v = 0; v < n; ++v) {
            if ((chosen >> v) & 1u)
                continue;
            const int links = std::popcount(p.adjacency(v) & chosen);
            if (links == 0)
                continue;
            if (links > pick_links
                || (links == pick_links
                    && p.degree(v) > p.degree(pick))) {
                pick = v;
                pick_links = links;
            }
        }
        KHUZDUL_CHECK(pick >= 0, "disconnected pattern in order search");
        order.push_back(pick);
        chosen |= 1u << pick;
    }
    return order;
}

ExtendPlan
compileAutomine(const Pattern &p, const PlanOptions &options)
{
    requirePlannable(p);
    PlanOptions opts = options;
    opts.useIep = false;
    return buildPlan(p, automineOrder(p), opts, 0);
}

double
estimatePlanCost(const ExtendPlan &plan, const GraphProfile &profile)
{
    const int n = plan.pattern.size();
    const int prefix_len = plan.numMaterializedLevels();
    const double v = profile.numVertices;
    const double d = std::max(1.0, profile.avgDegree);
    const double p_edge = std::min(1.0, d / v);

    double matches = v; // expected level-0 embeddings
    double cost = 0;
    // Materialized levels; the last position (scan) or the IEP
    // block is charged separately below.
    const int loop_end = plan.hasIep ? prefix_len : n - 1;
    for (int i = 1; i < loop_end; ++i) {
        const PlanLevel &level = plan.levels[i];
        const int deps = std::popcount(level.depMask);
        // Intersecting |deps| sorted lists costs ~ deps * d; with a
        // stored parent result only the extra lists are merged.
        const int lists = level.reuseParent
            ? std::popcount(level.extraDepMask | level.extraAntiMask) + 1
            : deps + std::popcount(level.antiMask);
        cost += matches * (static_cast<double>(lists) * d + 8.0);
        double expected = v * std::pow(p_edge, deps);
        // Each ">" restriction roughly halves surviving candidates.
        expected /= std::pow(2.0, std::popcount(level.greaterThanMask));
        matches *= std::max(expected, 1e-3);
    }
    if (plan.hasIep) {
        // IEP replaces the last loops with pure size computations:
        // no per-candidate filtering, no materialization.
        double per_prefix = 0;
        for (const PositionMask mask : plan.iep.masks)
            per_prefix += static_cast<double>(std::popcount(mask)) * d;
        cost += matches * (per_prefix + 8.0);
    } else if (n >= 2) {
        // Terminal candidates are scanned and filtered one by one;
        // the per-candidate checks are what IEP saves.
        const PlanLevel &last = plan.levels[n - 1];
        const int deps = std::popcount(last.depMask);
        const double candidates = v * std::pow(p_edge, deps);
        cost += matches
            * (static_cast<double>(deps) * d + candidates * 2.0 + 8.0);
    }
    return cost;
}

ExtendPlan
compileGraphPi(const Pattern &p, const GraphProfile &profile,
               const PlanOptions &options)
{
    requirePlannable(p);
    const int n = p.size();
    ExtendPlan best;
    double best_cost = 0;
    bool have = false;

    // Exhaustive order search is exact for the pattern sizes GPM
    // uses (<= 7); fall back to the heuristic order above that.
    if (n > 7)
        return compileAutomine(p, options);

    // distinctOrders() skips only orders that reorder p like an
    // earlier one: they would build the same plans at the same costs,
    // and the strict < below keeps the first of equal costs.  Aut(p)
    // is enumerated once; planOrder() carries it onto each order.
    const auto autos = iso::automorphisms(p);
    for (const auto &order : distinctOrders(p)) {
        // Largest admissible IEP suffix for this order.
        int max_suffix = 0;
        if (options.useIep && !options.induced && !p.labeled()) {
            while (max_suffix + 1 < n) {
                const int a = order[n - 1 - max_suffix];
                bool independent = true;
                for (int t = 0; t < max_suffix; ++t)
                    if (p.hasEdge(a, order[n - 1 - t]))
                        independent = false;
                if (!independent)
                    break;
                ++max_suffix;
            }
        }
        for (int suffix = 0; suffix <= max_suffix; ++suffix) {
            ExtendPlan plan = planOrder(p, autos, order, options, suffix);
            const double cost = estimatePlanCost(plan, profile);
            if (!have || cost < best_cost) {
                best = std::move(plan);
                best_cost = cost;
                have = true;
            }
        }
    }

    KHUZDUL_CHECK(have, "no valid matching order found");
    return best;
}

std::vector<std::vector<std::vector<int>>>
setPartitions(int n)
{
    std::vector<std::vector<std::vector<int>>> result;
    std::vector<std::vector<int>> current;
    // Standard recursion: element i joins an existing block or opens
    // a new one.
    auto recurse = [&](auto &&self, int i) -> void {
        if (i == n) {
            result.push_back(current);
            return;
        }
        // Index loop: recursion may grow `current`, invalidating
        // references held by a range-for.
        const std::size_t blocks = current.size();
        for (std::size_t b = 0; b < blocks; ++b) {
            current[b].push_back(i);
            self(self, i + 1);
            current[b].pop_back();
        }
        current.push_back({i});
        self(self, i + 1);
        current.pop_back();
    };
    recurse(recurse, 0);
    return result;
}

std::string
ExtendPlan::toString() const
{
    std::ostringstream os;
    os << "plan(" << pattern.toString()
       << (induced ? ", induced" : "")
       << ", divisor=" << countDivisor << ")\n";
    for (std::size_t i = 0; i < levels.size(); ++i) {
        const PlanLevel &level = levels[i];
        os << "  L" << i << ": dep=" << std::hex << level.depMask
           << " anti=" << level.antiMask
           << " gt=" << level.greaterThanMask
           << " active=" << level.activeMask << std::dec
           << (level.fetchEdgeList ? " fetch" : "")
           << (level.reuseParent ? " reuse" : "")
           << (level.storeResult ? " store" : "") << "\n";
    }
    if (hasIep)
        os << "  IEP suffix=" << iep.suffixSize
           << " masks=" << iep.masks.size()
           << " terms=" << iep.terms.size() << "\n";
    return os.str();
}

} // namespace khuzdul
