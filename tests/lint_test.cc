/**
 * @file
 * khuzdul_lint analyzer tests: fixture snippets fed through
 * analyzeSource (one positive and one suppressed case per rule),
 * allowlist parsing, stale-suppression detection and the --json
 * report shape.  The real-tree gate itself is the khuzdul_lint_src
 * ctest registered in tools/CMakeLists.txt.
 */

#include "tools/lint/analyzer.hh"

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

namespace lint = khuzdul::lint;

namespace
{

lint::Report
run(const std::string &path, const std::string &source,
    std::vector<lint::AllowlistEntry> *allowlist = nullptr)
{
    lint::Report report;
    lint::analyzeSource(path, source, allowlist, report);
    return report;
}

int
liveCount(const lint::Report &report, const std::string &rule)
{
    int n = 0;
    for (const lint::Finding &f : report.findings)
        if (f.rule == rule && f.live())
            ++n;
    return n;
}

int
suppressedCount(const lint::Report &report, const std::string &rule)
{
    int n = 0;
    for (const lint::Finding &f : report.findings)
        if (f.rule == rule && !f.live())
            ++n;
    return n;
}

} // namespace

// ----------------------------------------------------------------
// Rules table.
// ----------------------------------------------------------------

TEST(LintRules, TableListsEveryContractRule)
{
    std::vector<std::string> ids;
    for (const lint::RuleInfo &r : lint::rules())
        ids.push_back(r.id);
    const std::vector<std::string> expected = {
        "wall-clock",   "prng",         "unordered-iter",
        "thread-primitive", "fabric-mutation", "fault-modeled-state",
        "simd-intrinsics",
        "header-guard", "using-namespace-header",
        "taint-wall-clock", "taint-prng", "taint-unordered-iter",
        "taint-thread-primitive", "taint-fabric-mutation",
        "taint-host-time", "layering"};
    EXPECT_EQ(ids, expected);
    for (const std::string &id : ids)
        EXPECT_TRUE(lint::isRuleId(id));
    EXPECT_FALSE(lint::isRuleId("no-such-rule"));
}

// ----------------------------------------------------------------
// wall-clock.
// ----------------------------------------------------------------

TEST(LintWallClock, FlagsSteadyClockAnywhereUnderSrc)
{
    const auto r = run("src/graph/io.cc",
                       "auto t = std::chrono::steady_clock::now();\n");
    EXPECT_EQ(liveCount(r, "wall-clock"), 1);
    EXPECT_EQ(r.findings[0].line, 1);
}

TEST(LintWallClock, SameLineAnnotationSuppressesWithReason)
{
    const auto r = run(
        "src/core/engine.cc",
        "auto t = std::chrono::steady_clock::now(); "
        "// khuzdul-lint: allow(wall-clock) host wall-time only\n");
    EXPECT_EQ(liveCount(r, "wall-clock"), 0);
    EXPECT_EQ(suppressedCount(r, "wall-clock"), 1);
    EXPECT_EQ(r.findings[0].suppression,
              lint::SuppressionKind::Annotation);
    EXPECT_EQ(r.findings[0].reason, "host wall-time only");
    EXPECT_TRUE(r.passes(true));
}

TEST(LintWallClock, CommentsAndStringsAreNotCode)
{
    const auto r = run("src/core/engine.cc",
                       "// steady_clock mentioned in prose\n"
                       "/* system_clock too */\n"
                       "const char *s = \"random_device\";\n");
    EXPECT_TRUE(r.findings.empty());
}

// ----------------------------------------------------------------
// prng.
// ----------------------------------------------------------------

TEST(LintPrng, FlagsStdRandomSources)
{
    const auto r = run("src/graph/generators.cc",
                       "#include <random>\n"
                       "std::random_device rd;\n"
                       "int x = rand() % 7;\n");
    EXPECT_EQ(liveCount(r, "prng"), 3);
}

TEST(LintPrng, PreviousLineAnnotationSuppresses)
{
    const auto r =
        run("src/graph/generators.cc",
            "// khuzdul-lint: allow(prng) seeding jitter for the "
            "host-only warmup path\n"
            "std::random_device rd;\n");
    EXPECT_EQ(liveCount(r, "prng"), 0);
    EXPECT_EQ(suppressedCount(r, "prng"), 1);
}

TEST(LintPrng, DoesNotFlagWordsContainingRand)
{
    const auto r = run("src/core/extender.cc",
                       "int operand = 3; auto rando = operand;\n");
    EXPECT_EQ(liveCount(r, "prng"), 0);
}

// ----------------------------------------------------------------
// unordered-iter.
// ----------------------------------------------------------------

TEST(LintUnordered, FlagsUseInModeledZoneButNotOutside)
{
    const std::string code =
        "std::unordered_map<int, int> m;\n";
    EXPECT_EQ(liveCount(run("src/sim/stats.cc", code),
                        "unordered-iter"),
              1);
    EXPECT_EQ(liveCount(run("src/core/provider.cc", code),
                        "unordered-iter"),
              1);
    EXPECT_EQ(liveCount(run("src/engines/gthinker.cc", code),
                        "unordered-iter"),
              1);
    // graph/, pattern/, apps/, support/ are outside the modeled
    // zones; hash containers are fine there.
    EXPECT_EQ(liveCount(run("src/graph/builder.cc", code),
                        "unordered-iter"),
              0);
    EXPECT_EQ(liveCount(run("src/apps/fsm.cc", code),
                        "unordered-iter"),
              0);
}

TEST(LintUnordered, IncludeLinesAreNotUses)
{
    const auto r = run("src/sim/stats.cc",
                       "#include <unordered_map>\n");
    EXPECT_EQ(liveCount(r, "unordered-iter"), 0);
}

TEST(LintUnordered, LookupOnlyAnnotationSuppresses)
{
    const auto r = run(
        "src/core/cache.hh",
        "#ifndef X\n"
        "// khuzdul-lint: allow(unordered-iter) lookup-only residency "
        "map; order lives elsewhere\n"
        "std::unordered_map<int, int> entries_;\n"
        "#endif\n");
    EXPECT_EQ(liveCount(r, "unordered-iter"), 0);
    EXPECT_EQ(suppressedCount(r, "unordered-iter"), 1);
}

// ----------------------------------------------------------------
// thread-primitive.
// ----------------------------------------------------------------

TEST(LintThread, FlagsPrimitivesInModeledZones)
{
    const auto r = run("src/core/extender.cc",
                       "std::mutex m;\n"
                       "std::atomic<int> a{0};\n"
                       "auto id = std::this_thread::get_id();\n"
                       "#include <thread>\n");
    EXPECT_EQ(liveCount(r, "thread-primitive"), 4);
}

TEST(LintThread, ParallelRuntimeDirIsExempt)
{
    const auto r = run("src/core/parallel/thread_pool.cc",
                       "std::mutex m;\n"
                       "std::condition_variable cv;\n");
    EXPECT_EQ(liveCount(r, "thread-primitive"), 0);
}

TEST(LintThread, ServiceRuntimeDirIsExempt)
{
    // The service layer is host-side scheduling machinery like the
    // pool: thread primitives are its job, not a contract breach.
    const auto r = run("src/core/service/service.cc",
                       "std::mutex m;\n"
                       "std::condition_variable cv;\n"
                       "std::thread dispatcher;\n");
    EXPECT_EQ(liveCount(r, "thread-primitive"), 0);
}

TEST(LintThread, ServiceRuntimeKeepsModeledRules)
{
    // Only thread-primitive is relaxed there: the service must not
    // read wall clocks or iterate unordered containers any more
    // than the engine may.
    const auto r = run(
        "src/core/service/service.cc",
        "auto t = std::chrono::steady_clock::now();\n"
        "for (const auto &kv : map_) use(kv);\n");
    EXPECT_EQ(liveCount(r, "wall-clock"), 1);
    const auto r2 = run("src/core/service/service.hh",
                        "std::unordered_map<int, int> results_;\n"
                        "for (const auto &kv : results_) emit(kv);\n");
    EXPECT_EQ(liveCount(r2, "unordered-iter"), 1);
}

TEST(LintThread, PlainIdentifiersDoNotMatch)
{
    const auto r = run("src/core/engine.cc",
                       "unsigned threads = config.hostThreads;\n"
                       "ThreadPool pool(threads);\n");
    EXPECT_EQ(liveCount(r, "thread-primitive"), 0);
}

TEST(LintThread, AnnotationSuppresses)
{
    const auto r = run("src/sim/trace.cc",
                       "// khuzdul-lint: allow(thread-primitive) "
                       "per-unit flush token, merged in unit order\n"
                       "std::atomic<bool> flushed{false};\n");
    EXPECT_EQ(liveCount(r, "thread-primitive"), 0);
    EXPECT_EQ(suppressedCount(r, "thread-primitive"), 1);
}

// ----------------------------------------------------------------
// fabric-mutation.
// ----------------------------------------------------------------

TEST(LintFabric, FlagsRawMutatorsOutsideFabricImpl)
{
    const auto r = run("src/engines/khuzdul_system.cc",
                       "fabric.setByteCap(1024);\n"
                       "double ns = f.recordTransfer(0, 1, 64, 1);\n"
                       "fabric_.reset();\n"
                       "fabric_.mergeTally(u, tallies[u], nodes);\n");
    EXPECT_EQ(liveCount(r, "fabric-mutation"), 4);
}

TEST(LintFabric, FabricImplAndAnnotationAreExempt)
{
    const std::string mutators = "setByteCap(0);\n"
                                 "recordTransfer(0, 1, 64, 1);\n";
    EXPECT_EQ(liveCount(run("src/sim/fabric.cc", mutators),
                        "fabric-mutation"),
              0);
    const auto r = run("src/core/circulant.cc",
                       "// khuzdul-lint: allow(fabric-mutation) issue "
                       "is the sanctioned entry point\n"
                       "batch.commNs = recorder.recordTransfer(n, d, "
                       "b, l);\n");
    EXPECT_EQ(liveCount(r, "fabric-mutation"), 0);
    EXPECT_EQ(suppressedCount(r, "fabric-mutation"), 1);
}

// ----------------------------------------------------------------
// fault-modeled-state.
// ----------------------------------------------------------------

TEST(LintFaultState, FlagsHostTimeSymbolsInRecoveryPaths)
{
    // The quoted-include form is invisible to token rules (string
    // contents are blanked), but using the header requires naming
    // Timer/elapsedNs, which the rule does see.
    const std::string code = "Timer t;\n"
                             "double ns = t.elapsedNs();\n"
                             "stats.hostWallNs += ns;\n";
    EXPECT_EQ(liveCount(run("src/sim/faults.cc", code),
                        "fault-modeled-state"),
              3);
    EXPECT_EQ(liveCount(run("src/core/provider.cc", code),
                        "fault-modeled-state"),
              3);
    EXPECT_EQ(liveCount(run("src/core/circulant.hh", code),
                        "fault-modeled-state"),
              3);
}

TEST(LintFaultState, OtherModeledFilesAreOutOfScope)
{
    // engine.cc's hostWallNs accounting is policed by the wall-clock
    // rule; this rule fences the fault/recovery TUs specifically.
    const std::string code = "stats.hostWallNs += 1;\n";
    EXPECT_EQ(liveCount(run("src/sim/stats.cc", code),
                        "fault-modeled-state"),
              0);
    EXPECT_EQ(liveCount(run("src/core/engine.cc", code),
                        "fault-modeled-state"),
              0);
    EXPECT_EQ(liveCount(run("src/core/circulant_helper.cc", code),
                        "fault-modeled-state"),
              0);
}

TEST(LintFaultState, StealZoneIsFenced)
{
    // core/steal/ plans migrations from merged modeled ledgers; a
    // host-time read there would make stolen schedules depend on
    // the machine the simulation ran on.
    const std::string code = "Timer t;\n"
                             "double ns = t.elapsedNs();\n"
                             "stats.hostWallNs += ns;\n";
    EXPECT_EQ(liveCount(run("src/core/steal/steal.cc", code),
                        "fault-modeled-state"),
              3);
    EXPECT_EQ(liveCount(run("src/core/steal/steal.hh", code),
                        "fault-modeled-state"),
              3);
    // The thread-primitive fence applies automatically: core/steal/
    // is a modeled zone and not part of the parallel runtime.
    EXPECT_EQ(liveCount(run("src/core/steal/steal.cc",
                            "std::mutex m;\n"
                            "std::atomic<int> n{0};\n"),
                        "thread-primitive"),
              2);
}

TEST(LintFaultState, ModeledClockIdentifiersDoNotMatch)
{
    const auto r = run("src/sim/faults.cc",
                       "clockNs_ += charge.chargeNs;\n"
                       "double backoff = cost->retryBackoffNs;\n"
                       "faults->advance(backoff);\n");
    EXPECT_EQ(liveCount(r, "fault-modeled-state"), 0);
}

TEST(LintFaultState, AnnotationSuppressesWithReason)
{
    const auto r = run("src/core/provider.cc",
                       "// khuzdul-lint: allow(fault-modeled-state) "
                       "host-side debug counter, not a trigger input\n"
                       "double w = t.elapsedNs();\n");
    EXPECT_EQ(liveCount(r, "fault-modeled-state"), 0);
    EXPECT_EQ(suppressedCount(r, "fault-modeled-state"), 1);
}

// ----------------------------------------------------------------
// simd-intrinsics.
// ----------------------------------------------------------------

TEST(LintSimdIntrinsics, FlagsIntrinsicsOutsideKernelTier)
{
    const std::string code = "#include <immintrin.h>\n"
                             "__m256i v = _mm256_loadu_si256(p);\n"
                             "int m = __builtin_ia32_pmovmskb256(x);\n";
    EXPECT_EQ(liveCount(run("src/core/extender.cc", code),
                        "simd-intrinsics"),
              3);
    EXPECT_EQ(liveCount(run("src/graph/graph.cc", code),
                        "simd-intrinsics"),
              3);
    EXPECT_EQ(liveCount(run("src/sim/fabric.cc", code),
                        "simd-intrinsics"),
              3);
}

TEST(LintSimdIntrinsics, KernelTierIsExempt)
{
    const std::string code = "#include <immintrin.h>\n"
                             "__m256i v = _mm256_setzero_si256();\n";
    EXPECT_EQ(liveCount(run("src/core/kernels/simd.cc", code),
                        "simd-intrinsics"),
              0);
    EXPECT_EQ(liveCount(run("src/core/kernels/bitmap.cc", code),
                        "simd-intrinsics"),
              0);
}

TEST(LintSimdIntrinsics, ScalarMentionsAreNotIntrinsics)
{
    // Prose, strings and near-miss identifiers must not trip the
    // token rules; real intrinsic calls in comments are still prose.
    const auto r = run("src/core/engine.cc",
                       "// _mm256_add_epi32 mentioned in prose\n"
                       "const char *s = \"__m256i\";\n"
                       "int simd_merge_calls = 0;\n"
                       "int mm_total = mm_count(3);\n");
    EXPECT_EQ(liveCount(r, "simd-intrinsics"), 0);
}

TEST(LintSimdIntrinsics, AnnotationSuppressesWithReason)
{
    const auto r = run("src/graph/builder.cc",
                       "// khuzdul-lint: allow(simd-intrinsics) "
                       "prefetch hint only, no data-dependent lanes\n"
                       "_mm_prefetch(ptr, 1);\n");
    EXPECT_EQ(liveCount(r, "simd-intrinsics"), 0);
    EXPECT_EQ(suppressedCount(r, "simd-intrinsics"), 1);
}

// ----------------------------------------------------------------
// header hygiene.
// ----------------------------------------------------------------

TEST(LintHeaderGuard, FlagsUnguardedHeader)
{
    const auto r = run("src/graph/new_thing.hh",
                       "/* prose */\n"
                       "int f();\n");
    EXPECT_EQ(liveCount(r, "header-guard"), 1);
    EXPECT_EQ(r.findings[0].line, 2);
}

TEST(LintHeaderGuard, AcceptsGuardOrPragmaAfterComments)
{
    EXPECT_TRUE(run("src/a.hh",
                    "/** @file doc */\n"
                    "#ifndef A_HH\n#define A_HH\n#endif\n")
                    .findings.empty());
    EXPECT_TRUE(
        run("src/b.hh", "#pragma once\nint f();\n").findings.empty());
    // .cc files need no guard.
    EXPECT_TRUE(run("src/c.cc", "int f() { return 0; }\n")
                    .findings.empty());
}

TEST(LintHeaderGuard, AllowlistSuppresses)
{
    std::vector<lint::AllowlistEntry> allow;
    std::vector<std::string> errors;
    allow = lint::parseAllowlist(
        "src/graph/legacy.hh header-guard vendored header kept "
        "verbatim\n",
        "allow.txt", errors);
    ASSERT_TRUE(errors.empty());
    const auto r = run("src/graph/legacy.hh", "int f();\n", &allow);
    EXPECT_EQ(liveCount(r, "header-guard"), 0);
    EXPECT_EQ(suppressedCount(r, "header-guard"), 1);
    EXPECT_EQ(r.findings[0].suppression,
              lint::SuppressionKind::Allowlist);
    EXPECT_TRUE(allow[0].used);
}

TEST(LintUsingNamespace, FlagsHeadersOnly)
{
    const std::string code = "#pragma once\nusing namespace std;\n";
    EXPECT_EQ(liveCount(run("src/core/x.hh", code),
                        "using-namespace-header"),
              1);
    EXPECT_EQ(liveCount(run("src/core/x.cc", "using namespace std;\n"),
                        "using-namespace-header"),
              0);
}

TEST(LintUsingNamespace, AnnotationSuppresses)
{
    const auto r = run("src/core/x.hh",
                       "#pragma once\n"
                       "// khuzdul-lint: allow(using-namespace-header) "
                       "literal operators need it in this TU\n"
                       "using namespace std::literals;\n");
    EXPECT_EQ(liveCount(r, "using-namespace-header"), 0);
    EXPECT_EQ(suppressedCount(r, "using-namespace-header"), 1);
}

// ----------------------------------------------------------------
// Annotation grammar and staleness.
// ----------------------------------------------------------------

TEST(LintAnnotations, UnknownRuleAndMissingReasonAreErrors)
{
    const auto unknown = run("src/core/a.cc",
                             "// khuzdul-lint: allow(bogus-rule) x\n");
    ASSERT_EQ(unknown.errors.size(), 1u);
    EXPECT_NE(unknown.errors[0].find("unknown rule"),
              std::string::npos);
    EXPECT_FALSE(unknown.passes(false));

    const auto bare = run("src/core/a.cc",
                          "std::unordered_map<int,int> m; "
                          "// khuzdul-lint: allow(unordered-iter)\n");
    ASSERT_EQ(bare.errors.size(), 1u);
    EXPECT_NE(bare.errors[0].find("missing its written reason"),
              std::string::npos);
    // The finding stays live: a reasonless annotation grants nothing.
    EXPECT_EQ(liveCount(bare, "unordered-iter"), 1);
}

TEST(LintAnnotations, UnusedAnnotationIsStale)
{
    const auto r = run("src/core/a.cc",
                       "// khuzdul-lint: allow(wall-clock) leftover\n"
                       "int x = 0;\n");
    ASSERT_EQ(r.stale.size(), 1u);
    EXPECT_EQ(r.stale[0].rule, "wall-clock");
    EXPECT_EQ(r.stale[0].line, 1);
    EXPECT_TRUE(r.passes(false));  // advisory by default...
    EXPECT_FALSE(r.passes(true));  // ...fatal under --strict
}

// ----------------------------------------------------------------
// Allowlist parsing.
// ----------------------------------------------------------------

TEST(LintAllowlist, ParsesEntriesSkipsCommentsRejectsMalformed)
{
    std::vector<std::string> errors;
    const auto entries = lint::parseAllowlist(
        "# comment\n"
        "\n"
        "src/support/timer.hh wall-clock host-only stopwatch\n"
        "just-a-path\n"
        "src/a.cc bogus-rule why\n"
        "src/b.cc prng\n",
        "allow.txt", errors);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].path, "src/support/timer.hh");
    EXPECT_EQ(entries[0].rule, "wall-clock");
    EXPECT_EQ(entries[0].reason, "host-only stopwatch");
    EXPECT_EQ(entries[0].line, 3);
    ASSERT_EQ(errors.size(), 3u);
    EXPECT_NE(errors[0].find("allow.txt:4"), std::string::npos);
    EXPECT_NE(errors[1].find("unknown rule"), std::string::npos);
    EXPECT_NE(errors[2].find("missing its written reason"),
              std::string::npos);
}

TEST(LintAllowlist, MatchesAnchoredPathSuffixOnly)
{
    std::vector<std::string> errors;
    auto allow = lint::parseAllowlist(
        "core/engine.cc wall-clock host wall time\n", "allow.txt",
        errors);
    ASSERT_TRUE(errors.empty());
    const std::string clock = "auto t = std::chrono::steady_clock::now();\n";
    // Anchored suffix: matches under any prefix directory...
    EXPECT_EQ(liveCount(run("repo/src/core/engine.cc", clock, &allow),
                        "wall-clock"),
              0);
    // ...but not a partial component.
    EXPECT_EQ(liveCount(run("src/xcore/engine.cc", clock, &allow),
                        "wall-clock"),
              1);
}

// ----------------------------------------------------------------
// Tree scan + JSON shape.
// ----------------------------------------------------------------

namespace
{

/** Temp fixture tree; removed on destruction. */
class FixtureTree
{
  public:
    FixtureTree()
    {
        root_ = std::filesystem::temp_directory_path()
            / ("khuzdul_lint_test_" + std::to_string(::getpid()));
        std::filesystem::remove_all(root_);
        std::filesystem::create_directories(root_);
    }

    ~FixtureTree() { std::filesystem::remove_all(root_); }

    std::string
    write(const std::string &rel, const std::string &content)
    {
        const std::filesystem::path p = root_ / rel;
        std::filesystem::create_directories(p.parent_path());
        std::ofstream out(p);
        out << content;
        return p.generic_string();
    }

    std::string path() const { return root_.generic_string(); }

  private:
    std::filesystem::path root_;
};

} // namespace

TEST(LintTree, ScansRecursivelyAndReportsStaleAllowlist)
{
    FixtureTree tree;
    tree.write("src/sim/bad.cc", "std::unordered_set<int> s;\n");
    tree.write("src/core/ok.cc", "int f() { return 1; }\n");
    tree.write("src/notes.txt", "steady_clock\n"); // not a source
    std::vector<std::string> errors;
    auto allow = lint::parseAllowlist(
        "src/support/timer.hh wall-clock host-only stopwatch\n",
        "allow.txt", errors);
    ASSERT_TRUE(errors.empty());

    const lint::Report report =
        lint::analyzePaths({tree.path()}, std::move(allow),
                           "allow.txt");
    EXPECT_EQ(report.filesScanned, 2u);
    EXPECT_EQ(report.violations(), 1u);
    ASSERT_EQ(report.stale.size(), 1u);
    EXPECT_EQ(report.stale[0].file, "allow.txt");
    EXPECT_FALSE(report.passes(false));
    EXPECT_FALSE(report.passes(true));
}

TEST(LintTree, MissingPathIsAnError)
{
    const lint::Report report =
        lint::analyzePaths({"/no/such/path"}, {}, "");
    ASSERT_EQ(report.errors.size(), 1u);
    EXPECT_FALSE(report.passes(false));
}

TEST(LintJson, ShapeAndEscaping)
{
    lint::Report report;
    lint::analyzeSource(
        "src/sim/bad.cc",
        "std::unordered_map<int, std::string> m; // \"quoted\"\n",
        nullptr, report);
    const std::string json = lint::toJson(report, true);
    EXPECT_NE(json.find("\"tool\": \"khuzdul_lint\""),
              std::string::npos);
    EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"strict\": true"), std::string::npos);
    EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos);
    // Cross-TU summary keys are always present (zero when the
    // per-file seam is used), and every finding carries a chain
    // array (empty for token findings).
    EXPECT_NE(json.find("\"functions\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"call_edges\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"fact_seeds\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"chain\": []"), std::string::npos);
    EXPECT_NE(json.find("\"violations\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"passed\": false"), std::string::npos);
    EXPECT_NE(json.find("\"rule\": \"unordered-iter\""),
              std::string::npos);
    EXPECT_NE(json.find("\"suppression\": \"none\""),
              std::string::npos);
    // The snippet's quotes must arrive escaped.
    EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
    EXPECT_NE(json.find("\"stale_suppressions\": []"),
              std::string::npos);
    EXPECT_NE(json.find("\"errors\": []"), std::string::npos);
}

TEST(LintJson, SuppressedFindingCarriesReasonAndKind)
{
    lint::Report report;
    lint::analyzeSource(
        "src/core/engine.cc",
        "auto t = std::chrono::steady_clock::now(); "
        "// khuzdul-lint: allow(wall-clock) host wall time\n",
        nullptr, report);
    const std::string json = lint::toJson(report, false);
    EXPECT_NE(json.find("\"suppression\": \"annotation\""),
              std::string::npos);
    EXPECT_NE(json.find("\"reason\": \"host wall time\""),
              std::string::npos);
    EXPECT_NE(json.find("\"passed\": true"), std::string::npos);
}

// ----------------------------------------------------------------
// Cross-TU analysis: extraction, call graph, taint, layering.
// ----------------------------------------------------------------

namespace
{

lint::Analysis
runProgram(const FixtureTree &tree, const lint::Options &options)
{
    return lint::analyzeProgram({tree.path()}, {}, "allow.txt",
                                options);
}

int
liveCount(const lint::Analysis &analysis, const std::string &rule)
{
    return liveCount(analysis.report, rule);
}

const lint::FunctionDef *
findFunction(const lint::Program &program, const std::string &qualified)
{
    for (const lint::FunctionDef &fn : program.functions)
        if (fn.qualified == qualified)
            return &fn;
    return nullptr;
}

} // namespace

TEST(LintExtract, NestedNamespacesQualifyNames)
{
    FixtureTree tree;
    tree.write("src/support/util.hh",
               "#ifndef U_HH\n#define U_HH\n"
               "namespace outer\n{\nnamespace inner\n{\n"
               "inline int\nanswer()\n{\n    return 42;\n}\n"
               "}\n}\n"
               "namespace outer::compact\n{\n"
               "struct Box\n{\n    int get() { return 1; }\n};\n"
               "}\n"
               "#endif\n");
    const auto analysis = runProgram(tree, lint::Options{});
    EXPECT_NE(findFunction(analysis.program, "outer::inner::answer"),
              nullptr);
    const lint::FunctionDef *method =
        findFunction(analysis.program, "outer::compact::Box::get");
    ASSERT_NE(method, nullptr);
    EXPECT_TRUE(method->method);
    EXPECT_EQ(analysis.report.functionsExtracted, 2u);
}

TEST(LintExtract, OverloadSetsLinkEveryCandidate)
{
    FixtureTree tree;
    tree.write("src/support/over.hh",
               "#ifndef O_HH\n#define O_HH\n#include <chrono>\n"
               "namespace fx\n{\n"
               "inline double scale(int v) { return v * 1.0; }\n"
               "inline double scale(double v)\n{\n"
               "    // khuzdul-lint: allow(wall-clock) host-only overload\n"
               "    return v + std::chrono::steady_clock::now()"
               ".time_since_epoch().count();\n"
               "}\n}\n#endif\n");
    tree.write("src/core/use.cc",
               "#include \"support/over.hh\"\n"
               "namespace fx\n{\n"
               "double use() { return scale(3); }\n"
               "}\n");
    const auto analysis = runProgram(tree, lint::Options{});
    int overloads = 0;
    for (const lint::FunctionDef &fn : analysis.program.functions)
        if (fn.qualified == "fx::scale")
            ++overloads;
    EXPECT_EQ(overloads, 2);
    // Name resolution cannot pick an overload, so the call links to
    // the whole set — and the tainted overload flags the caller.
    EXPECT_EQ(liveCount(analysis, "taint-wall-clock"), 1);
}

TEST(LintExtract, SharedHeaderFlagsOnlyTheModeledIncluder)
{
    FixtureTree tree;
    const std::string shared =
        "#ifndef S_HH\n#define S_HH\n#include <chrono>\n"
        "namespace fx\n{\n"
        "inline long tick()\n{\n"
        "    // khuzdul-lint: allow(wall-clock) host-only helper\n"
        "    return std::chrono::steady_clock::now()"
        ".time_since_epoch().count();\n"
        "}\n}\n#endif\n";
    tree.write("src/support/shared.hh", shared);
    tree.write("src/apps/report.cc",
               "#include \"support/shared.hh\"\n"
               "namespace fx\n{\n"
               "long hostReport() { return tick(); }\n"
               "}\n");
    tree.write("src/engines/run.cc",
               "#include \"support/shared.hh\"\n"
               "namespace fx\n{\n"
               "long modeledRun() { return tick(); }\n"
               "}\n");
    const auto analysis = runProgram(tree, lint::Options{});
    ASSERT_EQ(liveCount(analysis, "taint-wall-clock"), 1);
    const lint::Finding *taint = nullptr;
    for (const lint::Finding &f : analysis.report.findings)
        if (f.rule == "taint-wall-clock")
            taint = &f;
    ASSERT_NE(taint, nullptr);
    // Same helper, two includers: only the modeled zone is fenced.
    EXPECT_NE(taint->file.find("src/engines/run.cc"),
              std::string::npos);
    EXPECT_NE(taint->message.find("fx::modeledRun"),
              std::string::npos);
}

TEST(LintExtract, RecursiveCallCyclesTerminate)
{
    FixtureTree tree;
    tree.write("src/support/recur.hh",
               "#ifndef R_HH\n#define R_HH\n#include <cstdlib>\n"
               "namespace fx\n{\n"
               "inline int noise()\n{\n"
               "    // khuzdul-lint: allow(prng) host-only jitter\n"
               "    return std::rand();\n"
               "}\n"
               "int pong(int n);\n"
               "inline int ping(int n) { return n <= 0 ? noise() : "
               "pong(n - 1); }\n"
               "inline int pong(int n) { return ping(n - 1); }\n"
               "}\n#endif\n");
    tree.write("src/core/drive.cc",
               "#include \"support/recur.hh\"\n"
               "namespace fx\n{\n"
               "int drive() { return ping(8); }\n"
               "}\n");
    const auto analysis = runProgram(tree, lint::Options{});
    // The ping <-> pong cycle must not loop the BFS or duplicate
    // the frontier finding.
    EXPECT_EQ(liveCount(analysis, "taint-prng"), 1);
}

TEST(LintTaint, TwoHopChainFlaggedAndHopRemovalUnflags)
{
    const std::string clockUtil =
        "#ifndef C_HH\n#define C_HH\n#include <chrono>\n"
        "namespace fx\n{\n"
        "inline double nowSeconds()\n{\n"
        "    // khuzdul-lint: allow(wall-clock) host-only helper\n"
        "    return std::chrono::duration<double>(std::chrono::"
        "steady_clock::now().time_since_epoch()).count();\n"
        "}\n}\n#endif\n";
    const std::string extender =
        "#include \"support/format.hh\"\n"
        "namespace fx\n{\n"
        "double extendBudget() { return stampSeconds() * 2.0; }\n"
        "}\n";

    FixtureTree withHop;
    withHop.write("src/support/clock_util.hh", clockUtil);
    withHop.write("src/support/format.hh",
                  "#ifndef F_HH\n#define F_HH\n"
                  "#include \"support/clock_util.hh\"\n"
                  "namespace fx\n{\n"
                  "inline double stampSeconds() { return "
                  "nowSeconds(); }\n"
                  "}\n#endif\n");
    withHop.write("src/core/extender.cc", extender);
    const auto flagged = runProgram(withHop, lint::Options{});
    ASSERT_EQ(liveCount(flagged, "taint-wall-clock"), 1);
    const lint::Finding *taint = nullptr;
    for (const lint::Finding &f : flagged.report.findings)
        if (f.rule == "taint-wall-clock")
            taint = &f;
    ASSERT_NE(taint, nullptr);
    // The full two-hop chain rides in the message and the finding.
    ASSERT_EQ(taint->chain.size(), 3u);
    EXPECT_NE(taint->chain[0].find("fx::extendBudget"),
              std::string::npos);
    EXPECT_NE(taint->chain[1].find("fx::stampSeconds"),
              std::string::npos);
    EXPECT_NE(taint->chain[2].find("fx::nowSeconds"),
              std::string::npos);
    EXPECT_NE(taint->message.find("fx::extendBudget"),
              std::string::npos);
    EXPECT_NE(taint->message.find("fx::stampSeconds"),
              std::string::npos);
    EXPECT_NE(taint->message.find("fx::nowSeconds"),
              std::string::npos);
    EXPECT_GT(flagged.report.callEdges, 0u);
    EXPECT_GT(flagged.report.factSeeds, 0u);

    // Without the taint layer nothing is live: the only wall-clock
    // read sits in an annotated host-only helper, and the line rules
    // cannot see the modeled caller two hops away.
    const auto line_rules_only =
        runProgram(withHop, lint::Options{.taint = false});
    EXPECT_EQ(line_rules_only.report.violations(), 0u);

    // Cut the middle hop: same files, but the formatter no longer
    // calls the clock helper — the chain breaks, the finding goes.
    FixtureTree withoutHop;
    withoutHop.write("src/support/clock_util.hh", clockUtil);
    withoutHop.write("src/support/format.hh",
                     "#ifndef F_HH\n#define F_HH\n"
                     "#include \"support/clock_util.hh\"\n"
                     "namespace fx\n{\n"
                     "inline double stampSeconds() { return 0.0; }\n"
                     "}\n#endif\n");
    withoutHop.write("src/core/extender.cc", extender);
    const auto clean = runProgram(withoutHop, lint::Options{});
    EXPECT_EQ(liveCount(clean, "taint-wall-clock"), 0);
}

TEST(LintTaint, ModeledZoneAnnotationSanctionsItsSeed)
{
    // An annotated fact site *inside* the restricted zone is a
    // reviewed carve-out: it does not seed, so callers stay clean.
    FixtureTree tree;
    tree.write("src/core/obs.hh",
               "#ifndef OB_HH\n#define OB_HH\n#include <chrono>\n"
               "namespace fx\n{\n"
               "inline double hostNow()\n{\n"
               "    // khuzdul-lint: allow(wall-clock) host "
               "observability, excluded from modeled stats\n"
               "    return std::chrono::duration<double>(std::chrono::"
               "steady_clock::now().time_since_epoch()).count();\n"
               "}\n}\n#endif\n");
    tree.write("src/core/run.cc",
               "#include \"core/obs.hh\"\n"
               "namespace fx\n{\n"
               "double run() { return hostNow(); }\n"
               "}\n");
    const auto analysis = runProgram(tree, lint::Options{});
    EXPECT_EQ(liveCount(analysis, "taint-wall-clock"), 0);
    EXPECT_EQ(analysis.report.factSeeds, 0u);
    EXPECT_TRUE(analysis.report.passes(true));
}

TEST(LintTaint, FrontierReportsFirstRestrictedFunctionOnly)
{
    // support seed <- core helper <- core caller: the helper is the
    // taint frontier; the caller above it is not re-flagged.
    FixtureTree tree;
    tree.write("src/support/seed.hh",
               "#ifndef SD_HH\n#define SD_HH\n#include <cstdlib>\n"
               "namespace fx\n{\n"
               "inline int jitter()\n{\n"
               "    // khuzdul-lint: allow(prng) host-only jitter\n"
               "    return std::rand();\n"
               "}\n}\n#endif\n");
    tree.write("src/core/mid.hh",
               "#ifndef MID_HH\n#define MID_HH\n"
               "#include \"support/seed.hh\"\n"
               "namespace fx\n{\n"
               "inline int middle() { return jitter(); }\n"
               "}\n#endif\n");
    tree.write("src/core/top.cc",
               "#include \"core/mid.hh\"\n"
               "namespace fx\n{\n"
               "int top() { return middle(); }\n"
               "}\n");
    const auto analysis = runProgram(tree, lint::Options{});
    ASSERT_EQ(liveCount(analysis, "taint-prng"), 1);
    const lint::Finding *taint = nullptr;
    for (const lint::Finding &f : analysis.report.findings)
        if (f.rule == "taint-prng")
            taint = &f;
    ASSERT_NE(taint, nullptr);
    EXPECT_NE(taint->message.find("fx::middle"), std::string::npos);
    EXPECT_EQ(taint->message.find("fx::top"), std::string::npos);
}

TEST(LintTaint, WhyTextExplainsChainsAndUnknownSymbols)
{
    FixtureTree tree;
    tree.write("src/support/clock_util.hh",
               "#ifndef C_HH\n#define C_HH\n#include <chrono>\n"
               "namespace fx\n{\n"
               "inline double nowSeconds()\n{\n"
               "    // khuzdul-lint: allow(wall-clock) host-only\n"
               "    return std::chrono::duration<double>(std::chrono::"
               "steady_clock::now().time_since_epoch()).count();\n"
               "}\n"
               "inline double stamp() { return nowSeconds(); }\n"
               "}\n#endif\n");
    const auto analysis = runProgram(tree, lint::Options{});
    bool found = false;
    const std::string why = lint::whyText(
        analysis.program, analysis.taint, "stamp", found);
    EXPECT_TRUE(found);
    EXPECT_NE(why.find("fx::stamp"), std::string::npos);
    EXPECT_NE(why.find("wall-clock"), std::string::npos);
    EXPECT_NE(why.find("fx::nowSeconds"), std::string::npos);

    const std::string seed = [&] {
        bool seedFound = false;
        return lint::whyText(analysis.program, analysis.taint,
                             "fx::nowSeconds", seedFound);
    }();
    EXPECT_NE(seed.find("direct seed"), std::string::npos);

    bool missing = true;
    lint::whyText(analysis.program, analysis.taint, "noSuchFn",
                  missing);
    EXPECT_FALSE(missing);
}

TEST(LintTaint, FactsJsonIsDeterministic)
{
    FixtureTree tree;
    tree.write("src/support/a.hh",
               "#ifndef A_HH\n#define A_HH\n#include <cstdlib>\n"
               "namespace fx\n{\n"
               "inline int a()\n{\n"
               "    // khuzdul-lint: allow(prng) host-only\n"
               "    return std::rand();\n"
               "}\n}\n#endif\n");
    tree.write("src/core/b.cc",
               "#include \"support/a.hh\"\n"
               "namespace fx\n{\n"
               "int b() { return a(); }\n"
               "}\n");
    const auto first = runProgram(tree, lint::Options{});
    const auto second = runProgram(tree, lint::Options{});
    const std::string json1 = lint::factsJson(
        first.program, first.graph, first.taint);
    const std::string json2 = lint::factsJson(
        second.program, second.graph, second.taint);
    EXPECT_EQ(json1, json2);
    EXPECT_NE(json1.find("\"schema_version\": 2"), std::string::npos);
    EXPECT_NE(json1.find("\"fact\": \"prng\""), std::string::npos);
    EXPECT_NE(json1.find("fx::a"), std::string::npos);
}

TEST(LintLayering, UpwardIncludeFlagsDownwardIsFine)
{
    lint::Options options;
    options.taint = false;
    options.layering = true;

    FixtureTree tree;
    tree.write("src/support/util.hh",
               "#ifndef U_HH\n#define U_HH\n"
               "#include \"core/engine.hh\"\n"
               "#endif\n");
    tree.write("src/core/engine.hh",
               "#ifndef E_HH\n#define E_HH\n"
               "#include \"support/other.hh\"\n"
               "#include \"sim/fabric.hh\"\n"
               "#endif\n");
    tree.write("src/support/other.hh",
               "#ifndef OT_HH\n#define OT_HH\n#endif\n");
    tree.write("src/sim/fabric.hh",
               "#ifndef FB_HH\n#define FB_HH\n"
               "#include \"support/other.hh\"\n"
               "#endif\n");
    const auto analysis = runProgram(tree, options);
    ASSERT_EQ(liveCount(analysis, "layering"), 1);
    const lint::Finding &f = analysis.report.findings[0];
    EXPECT_NE(f.file.find("src/support/util.hh"), std::string::npos);
    EXPECT_EQ(f.line, 3);
    EXPECT_NE(f.message.find("'support'"), std::string::npos);
    EXPECT_NE(f.message.find("'core'"), std::string::npos);
}

TEST(LintLayering, IncludeCyclesAreFlagged)
{
    lint::Options options;
    options.taint = false;
    options.layering = true;

    FixtureTree tree;
    tree.write("src/core/a.hh",
               "#ifndef A_HH\n#define A_HH\n"
               "#include \"core/b.hh\"\n"
               "#endif\n");
    tree.write("src/core/b.hh",
               "#ifndef B_HH\n#define B_HH\n"
               "#include \"core/a.hh\"\n"
               "#endif\n");
    const auto analysis = runProgram(tree, options);
    ASSERT_EQ(liveCount(analysis, "layering"), 1);
    EXPECT_NE(analysis.report.findings[0].message.find(
                  "include cycle"),
              std::string::npos);
}

TEST(LintLayering, AnnotationSuppressesWithReason)
{
    lint::Options options;
    options.taint = false;
    options.layering = true;

    FixtureTree tree;
    tree.write("src/support/shim.hh",
               "#ifndef SH_HH\n#define SH_HH\n"
               "#include \"core/engine.hh\" // khuzdul-lint: "
               "allow(layering) transitional shim, tracked in ROADMAP\n"
               "#endif\n");
    tree.write("src/core/engine.hh",
               "#ifndef E_HH\n#define E_HH\n#endif\n");
    const auto analysis = runProgram(tree, options);
    EXPECT_EQ(liveCount(analysis, "layering"), 0);
    EXPECT_EQ(suppressedCount(analysis.report, "layering"), 1);
    EXPECT_TRUE(analysis.report.passes(true));
}

// ----------------------------------------------------------------
// CLI surfaces: --rules snapshot, --help exit-code contract.
// ----------------------------------------------------------------

TEST(LintCli, RulesTextSnapshot)
{
    const std::string text = lint::rulesText();
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    // Header, one row per rule, a blank line, two grammar lines.
    ASSERT_EQ(lines.size(), 2 + lint::rules().size() + 3);
    EXPECT_EQ(lines[0],
              "rule                     scope     contract");
    EXPECT_EQ(lines[1],
              "----                     -----     --------");
    for (std::size_t i = 0; i < lint::rules().size(); ++i)
        EXPECT_EQ(lines[2 + i].rfind(lint::rules()[i].id, 0), 0u)
            << "row " << i << " must lead with the rule id";
    EXPECT_NE(text.find("taint-wall-clock"), std::string::npos);
    EXPECT_NE(text.find("layering"), std::string::npos);
    // The fabric-mutation row names the one ledger-write entry point.
    EXPECT_NE(text.find("only via the post-barrier Fabric::mergeTally"),
              std::string::npos);
    EXPECT_EQ(text.find("Fabric::apply"), std::string::npos);
    EXPECT_NE(text.find("suppress one line:"), std::string::npos);
    EXPECT_NE(text.find("suppress one file:"), std::string::npos);
}

TEST(LintCli, UsageDocumentsOptionsAndExitCodes)
{
    const std::string usage = lint::usageText();
    EXPECT_EQ(usage.rfind("usage: khuzdul_lint", 0), 0u);
    for (const char *flag :
         {"--allowlist", "--strict", "--json", "--layering",
          "--no-taint", "--facts", "--why", "--rules", "--help"})
        EXPECT_NE(usage.find(flag), std::string::npos) << flag;
    // The exit-code contract is part of --help (ISSUE 9 satellite).
    EXPECT_NE(usage.find("exit status:"), std::string::npos);
    EXPECT_NE(usage.find("0  clean"), std::string::npos);
    EXPECT_NE(usage.find("1  contract violations"), std::string::npos);
    EXPECT_NE(usage.find("2  usage error"), std::string::npos);
}
