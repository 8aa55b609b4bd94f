/**
 * @file
 * Seeded deterministic fault-plan fuzzer (DESIGN.md §9).
 *
 * Generates a fixed battery of mixed fault plans — drop / timeout /
 * degrade / down / crash in every combination the grammar allows,
 * bounded so each plan leaves a recovery path — runs each against
 * the same graph and pattern, and requires the embedding count to
 * match the fault-free oracle exactly.  Every plan string is built
 * from a fixed per-plan seed, so a failure reproduces by rerunning
 * the binary (the offending plan is printed verbatim and can be
 * replayed through `khuzdul count --fault ...`).
 *
 * A slice of the plans additionally re-runs at a second host thread
 * count and asserts the purely modeled stats dump is byte-identical
 * (the §8 determinism contract under faults).
 *
 * Exit code 0 = every plan passed; 1 = mismatch (details on stderr).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "engines/khuzdul_system.hh"
#include "graph/generators.hh"
#include "support/rng.hh"

namespace
{

using namespace khuzdul;

constexpr unsigned kNumPlans = 32;
constexpr std::uint64_t kSeedBase = 0xFA0117ULL;
constexpr NodeId kNodes = 4;
constexpr unsigned kSockets = 2; // 8 execution units

core::EngineConfig
fuzzConfig(bool steal)
{
    core::EngineConfig config;
    config.graph.cluster = sim::ClusterConfig::paperDefault(kNodes);
    config.graph.cluster.socketsPerNode = kSockets;
    config.session.chunkBytes = 16 << 10; // several chunks per level
    config.session.stealEnabled = steal;
    return config;
}

/** One deterministic mixed plan: 1-3 specs drawn from the full
 *  fault ladder, bounded so the run always has a recovery path
 *  (counts <= 4 under the default per-batch retry budget of 3,
 *  at most one crashed unit so survivors remain to adopt). */
std::vector<std::string>
makePlan(Rng &rng)
{
    std::vector<std::string> specs;
    const unsigned n = 1 + static_cast<unsigned>(rng.nextBounded(3));
    bool used_crash = false;
    bool used_down = false;
    for (unsigned s = 0; s < n; ++s) {
        switch (rng.nextBounded(5)) {
        case 0:
            specs.push_back(
                "drop:*-*:msg=" + std::to_string(1 + rng.nextBounded(6))
                + ":count=" + std::to_string(1 + rng.nextBounded(4)));
            break;
        case 1: {
            // A concrete non-self link: dst = src + step (mod N).
            const std::uint64_t src = rng.nextBounded(kNodes);
            const std::uint64_t dst =
                (src + 1 + rng.nextBounded(kNodes - 1)) % kNodes;
            specs.push_back(
                "timeout:" + std::to_string(src) + "-"
                + std::to_string(dst)
                + ":msg=" + std::to_string(1 + rng.nextBounded(6))
                + ":count=" + std::to_string(1 + rng.nextBounded(4)));
            break;
        }
        case 2:
            specs.push_back(
                "degrade:*-*:factor="
                + std::to_string(2 + rng.nextBounded(7)) + ":from=0");
            break;
        case 3:
            if (used_down) // one down node keeps a quorum reachable
                break;
            used_down = true;
            specs.push_back(
                "down:node=" + std::to_string(rng.nextBounded(kNodes))
                + ":from=0");
            break;
        default:
            if (used_crash) // >= 1 survivor must remain to adopt
                break;
            used_crash = true;
            specs.push_back(
                "crash:"
                + std::to_string(rng.nextBounded(kNodes * kSockets))
                + ":level=" + std::to_string(rng.nextBounded(2))
                + ":chunk=" + std::to_string(1 + rng.nextBounded(3)));
            break;
        }
    }
    return specs;
}

Count
runPlan(const Graph &g, const Pattern &p,
        const std::vector<std::string> &specs, bool steal,
        unsigned threads, std::string *modeled_json)
{
    core::EngineConfig config = fuzzConfig(steal);
    config.session.hostThreads = threads;
    for (const std::string &spec : specs)
        config.session.faults.add(spec);
    auto system = engines::KhuzdulSystem::kGraphPi(g, config);
    const Count count = system->count(p);
    if (modeled_json)
        *modeled_json = system->stats().toJson(false);
    return count;
}

} // namespace

int
main()
{
    const Graph g = gen::rmat(280, 1800, 0.5, 0.5 / 3, 0.5 / 3, 99);
    const Pattern p = Pattern::triangle();

    const Count oracle =
        runPlan(g, p, {}, /*steal=*/false, /*threads=*/1, nullptr);
    std::printf("fault_fuzz: oracle count %llu, %u plans\n",
                static_cast<unsigned long long>(oracle), kNumPlans);

    unsigned failures = 0;
    for (unsigned i = 0; i < kNumPlans; ++i) {
        Rng rng(kSeedBase + i);
        const std::vector<std::string> specs = makePlan(rng);
        const bool steal = rng.coin(0.5);
        std::string plan_text;
        for (const std::string &spec : specs)
            plan_text += (plan_text.empty() ? "" : " ") + spec;

        std::string json_a;
        const Count count =
            runPlan(g, p, specs, steal, 1, &json_a);
        bool ok = count == oracle;
        if (!ok)
            std::fprintf(stderr,
                         "plan %u [%s] steal=%d: count %llu != "
                         "oracle %llu\n",
                         i, plan_text.c_str(), steal,
                         static_cast<unsigned long long>(count),
                         static_cast<unsigned long long>(oracle));

        // Every 4th plan: the modeled dump must not depend on the
        // host thread count, faults and all (§8).
        if (ok && i % 4 == 0) {
            std::string json_b;
            runPlan(g, p, specs, steal, 4, &json_b);
            if (json_a != json_b) {
                ok = false;
                std::fprintf(stderr,
                             "plan %u [%s]: modeled stats differ "
                             "between --threads 1 and 4\n",
                             i, plan_text.c_str());
            }
        }
        if (!ok)
            ++failures;
        else
            std::printf("plan %2u ok  [%s] steal=%d\n", i,
                        plan_text.c_str(), steal);
    }

    if (failures > 0) {
        std::fprintf(stderr, "fault_fuzz: %u of %u plans FAILED\n",
                     failures, kNumPlans);
        return 1;
    }
    std::printf("fault_fuzz: all %u plans exact\n", kNumPlans);
    return 0;
}
