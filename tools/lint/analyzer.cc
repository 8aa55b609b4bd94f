#include "tools/lint/analyzer.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>

namespace khuzdul
{
namespace lint
{

namespace
{

// ---------------------------------------------------------------
// Rules table.
// ---------------------------------------------------------------

const std::vector<RuleInfo> &
ruleTable()
{
    static const std::vector<RuleInfo> table = {
        {"wall-clock", RuleScope::AllSources,
         "no wall-clock reads (steady_clock/system_clock/...) — "
         "modeled time comes from the cost model; host-observability "
         "sites need an annotation or allowlist entry"},
        {"prng", RuleScope::AllSources,
         "no std PRNG sources (random_device/mt19937/rand/...) — "
         "all randomness derives from support/rng.hh seeds"},
        {"unordered-iter", RuleScope::ModeledZones,
         "no std::unordered_{map,set} in modeled zones — iteration "
         "order is nondeterministic; lookup-only uses must be "
         "annotated with a reason, iterated uses replaced by sorted "
         "containers"},
        {"thread-primitive", RuleScope::ModeledZones,
         "no std threading/atomics in modeled zones outside "
         "core/parallel/ and core/service/ — units communicate only "
         "via per-unit deltas merged in unit order"},
        {"fabric-mutation", RuleScope::ModeledZones,
         "fabric ledger mutation only via the post-barrier "
         "Fabric::mergeTally outside sim/fabric.cc — no raw "
         "recordTransfer/mergeTally/setByteCap/reset calls"},
        {"fault-modeled-state", RuleScope::RecoveryPaths,
         "fault triggers, recovery decisions and steal planning read "
         "only modeled ledger state — no Timer/hostWallNs/elapsedNs "
         "or support/timer.hh in sim/faults.*, the provider/circulant "
         "recovery paths, core/steal/, or core/recovery/"},
        {"simd-intrinsics", RuleScope::AllSources,
         "x86 intrinsics (immintrin.h/_mm*/__m256/...) only in "
         "src/core/kernels/ — the SIMD tier is the one place where "
         "host CPU features may shape execution; everywhere else "
         "needs an annotation or allowlist entry"},
        {"header-guard", RuleScope::HeadersOnly,
         "every header opens with #pragma once or an #ifndef guard"},
        {"using-namespace-header", RuleScope::HeadersOnly,
         "no `using namespace` at header scope"},
        {"taint-wall-clock", RuleScope::ModeledZones,
         "no modeled-zone call chain may reach a wall-clock source "
         "in any layer — reported with the full chain; see --why"},
        {"taint-prng", RuleScope::ModeledZones,
         "no modeled-zone call chain may reach a std PRNG source — "
         "support helpers doing their own seeding taint every "
         "modeled caller"},
        {"taint-unordered-iter", RuleScope::ModeledZones,
         "no modeled-zone call chain may reach unordered-container "
         "code outside the zone's own annotated carve-outs"},
        {"taint-thread-primitive", RuleScope::ModeledZones,
         "no modeled-zone call chain (outside core/parallel/ and "
         "core/service/) may reach std threading/atomics"},
        {"taint-fabric-mutation", RuleScope::ModeledZones,
         "no modeled-zone call chain may reach a raw fabric ledger "
         "mutation outside sim/fabric.*"},
        {"taint-host-time", RuleScope::RecoveryPaths,
         "no fault/recovery/steal-planning call chain may reach "
         "Timer/hostWallNs/elapsedNs host-timing state"},
        {"layering", RuleScope::AllSources,
         "includes must respect the layer order support -> graph/sim "
         "-> core -> engines -> apps/tools and stay acyclic"},
    };
    return table;
}

/** The token pattern shared with the taint facts (symbols.hh). */
const std::string &
factPatternSource(const std::string &id)
{
    for (const auto &[fact, source] : factPatterns())
        if (fact == id)
            return source;
    static const std::string empty;
    return empty;
}

// ---------------------------------------------------------------
// Annotation parsing: // khuzdul-lint: allow(<rule>) <reason>
// ---------------------------------------------------------------

struct Annotation
{
    std::string rule;
    std::string reason;
    int sourceLine = 0; ///< where the annotation itself sits
    bool used = false;
};

const char kAnnotationMarker[] = "khuzdul-lint:";

/**
 * Parse every annotation on @p raw (a raw source line).  Grammar
 * errors append to @p errors and yield no annotation.
 */
std::vector<Annotation>
parseAnnotations(const std::string &path, int line_no,
                 const std::string &raw, std::vector<std::string> &errors)
{
    std::vector<Annotation> result;
    static const std::regex grammar(
        R"(khuzdul-lint:\s*allow\(([A-Za-z0-9_-]+)\)[ \t]*(.*))");
    std::size_t pos = raw.find(kAnnotationMarker);
    while (pos != std::string::npos) {
        std::smatch m;
        const std::string tail = raw.substr(pos);
        std::ostringstream where;
        where << path << ":" << line_no;
        if (!std::regex_search(tail, m, grammar)
            || m.position(0) != 0) {
            errors.push_back(where.str()
                             + ": malformed khuzdul-lint annotation "
                               "(expected `khuzdul-lint: "
                               "allow(<rule>) <reason>`)");
            break;
        }
        Annotation a;
        a.rule = m[1].str();
        a.reason = trimCopy(m[2].str());
        a.sourceLine = line_no;
        if (!isRuleId(a.rule)) {
            errors.push_back(where.str() + ": annotation names unknown "
                                           "rule `" + a.rule + "`");
        } else if (a.reason.empty()) {
            errors.push_back(where.str() + ": allow(" + a.rule
                             + ") annotation is missing its written "
                               "reason");
        } else {
            result.push_back(std::move(a));
        }
        pos = raw.find(kAnnotationMarker,
                       pos + sizeof(kAnnotationMarker) - 1);
    }
    return result;
}

// ---------------------------------------------------------------
// Token rules.
// ---------------------------------------------------------------

struct TokenRule
{
    const char *id;
    std::regex pattern;
    const char *message;
    bool skipIncludeLines;
};

const std::vector<TokenRule> &
tokenRules()
{
    static const std::vector<TokenRule> rules = [] {
        std::vector<TokenRule> r;
        // The first six patterns are the taint facts: built from
        // the same strings (symbols.hh factPatterns) so the two
        // layers can never drift.
        r.push_back(
            {"wall-clock",
             std::regex(factPatternSource("wall-clock")),
             "wall-clock source — modeled results must not read host "
             "time; annotate genuine host-observability sites",
             false});
        r.push_back(
            {"prng",
             std::regex(factPatternSource("prng")),
             "std PRNG source — derive all randomness from "
             "support/rng.hh so runs are bit-exact",
             false});
        r.push_back(
            {"unordered-iter",
             std::regex(factPatternSource("unordered-iter")),
             "unordered container in a modeled zone — iteration order "
             "is nondeterministic; use a sorted container or annotate "
             "the lookup-only use",
             true});
        r.push_back(
            {"thread-primitive",
             std::regex(factPatternSource("thread-primitive")),
             "threading primitive in a modeled zone — host "
             "parallelism lives in core/parallel/ and the query "
             "scheduler in core/service/; units exchange state only "
             "via per-unit deltas merged in unit order",
             false});
        r.push_back(
            {"fabric-mutation",
             std::regex(factPatternSource("fabric-mutation")),
             "direct fabric ledger mutation — units tally their "
             "transfers; the ledger is written by the post-barrier "
             "Fabric::mergeTally",
             false});
        r.push_back(
            {"simd-intrinsics",
             std::regex(R"(#\s*include\s*<(immintrin|x86intrin|emmintrin|xmmintrin|smmintrin|tmmintrin|nmmintrin|avxintrin|avx2intrin)\.h>|\b_mm\d*_\w+\s*\(|\b__m(128|256|512)[id]?\b|\b__builtin_ia32_\w+)"),
             "x86 intrinsic outside src/core/kernels/ — vectorized "
             "code lives in the kernel tier behind runtime feature "
             "detection so every other layer stays portable and "
             "host-invariant",
             false});
        r.push_back(
            {"fault-modeled-state",
             std::regex(factPatternSource("fault-modeled-state")),
             "host-time symbol in a fault/recovery path — fault "
             "triggers and retry pricing must read only modeled "
             "ledger state (link ordinals, the modeled clock) so "
             "plans replay bit-identically",
             false});
        return r;
    }();
    return rules;
}

bool
ruleAppliesTo(const std::string &rule, const std::string &path)
{
    if (rule == "unordered-iter")
        return isModeledZone(path);
    if (rule == "thread-primitive")
        return isModeledZone(path) && !isParallelRuntime(path)
            && !isServiceRuntime(path);
    if (rule == "fabric-mutation")
        return isModeledZone(path) && !isFabricImpl(path);
    if (rule == "fault-modeled-state")
        return isRecoveryPath(path);
    if (rule == "simd-intrinsics")
        return !isKernelTier(path);
    return true; // wall-clock, prng: every scanned file
}

bool
isIncludeLine(const std::string &code)
{
    const std::string t = trimCopy(code);
    return t.rfind("#include", 0) == 0
        || (t.rfind("#", 0) == 0
            && trimCopy(t.substr(1)).rfind("include", 0) == 0);
}

// ---------------------------------------------------------------
// JSON helpers.
// ---------------------------------------------------------------

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

const char *
suppressionName(SuppressionKind kind)
{
    switch (kind) {
    case SuppressionKind::None:
        return "none";
    case SuppressionKind::Annotation:
        return "annotation";
    case SuppressionKind::Allowlist:
        return "allowlist";
    }
    return "none";
}

} // namespace

// ---------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------

const std::vector<RuleInfo> &
rules()
{
    return ruleTable();
}

bool
isRuleId(const std::string &id)
{
    for (const RuleInfo &r : ruleTable())
        if (r.id == id)
            return true;
    return false;
}

std::size_t
Report::violations() const
{
    return static_cast<std::size_t>(
        std::count_if(findings.begin(), findings.end(),
                      [](const Finding &f) { return f.live(); }));
}

std::size_t
Report::suppressed() const
{
    return findings.size() - violations();
}

bool
Report::passes(bool strict) const
{
    if (violations() > 0 || !errors.empty())
        return false;
    if (strict && !stale.empty())
        return false;
    return true;
}

std::vector<AllowlistEntry>
parseAllowlist(const std::string &content, const std::string &file,
               std::vector<std::string> &errors)
{
    std::vector<AllowlistEntry> entries;
    std::istringstream in(content);
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const std::string t = trimCopy(line);
        if (t.empty() || t[0] == '#')
            continue;
        std::istringstream fields(t);
        AllowlistEntry e;
        fields >> e.path >> e.rule;
        std::getline(fields, e.reason);
        e.reason = trimCopy(e.reason);
        e.line = line_no;
        std::ostringstream where;
        where << file << ":" << line_no;
        if (e.path.empty() || e.rule.empty()) {
            errors.push_back(where.str()
                             + ": allowlist line needs `<path> <rule> "
                               "<reason>`");
            continue;
        }
        if (!isRuleId(e.rule)) {
            errors.push_back(where.str() + ": allowlist names unknown "
                                           "rule `" + e.rule + "`");
            continue;
        }
        if (e.reason.empty()) {
            errors.push_back(where.str() + ": allowlist entry for "
                             + e.path + " is missing its written "
                                        "reason");
            continue;
        }
        e.path = normalizePath(e.path);
        entries.push_back(std::move(e));
    }
    return entries;
}

namespace
{

/** Whether allowlist @p entry covers @p path (anchored suffix). */
bool
allowlistCovers(const AllowlistEntry &entry, const std::string &path)
{
    if (path == entry.path)
        return true;
    return endsWith(path, "/" + entry.path);
}

/** One file's scan state: sanitized lines, annotation shields and
 *  the as-yet-unsuppressed token findings. */
struct FileScan
{
    std::string path;
    std::vector<std::string> rawLines;
    std::vector<std::string> codeLines;
    /** shielded line → annotations targeting it */
    std::map<int, std::vector<Annotation>> shields;
    std::vector<Finding> findings;
};

FileScan
scanOne(const std::string &raw_path, const std::string &content,
        std::vector<std::string> &errors)
{
    FileScan scan;
    scan.path = normalizePath(raw_path);

    {
        std::istringstream in(content);
        std::string line;
        while (std::getline(in, line))
            scan.rawLines.push_back(line);
    }

    // Pass 1: sanitize (comments/strings blanked) and collect
    // annotations keyed by the line they shield: their own line if
    // it carries code, otherwise the next line.
    scan.codeLines.resize(scan.rawLines.size());
    bool in_block = false;
    for (std::size_t i = 0; i < scan.rawLines.size(); ++i) {
        scan.codeLines[i] = sanitizeLine(scan.rawLines[i], in_block);
        auto annotations = parseAnnotations(
            scan.path, static_cast<int>(i + 1), scan.rawLines[i],
            errors);
        if (annotations.empty())
            continue;
        const int target = isBlank(scan.codeLines[i])
            ? static_cast<int>(i + 2)
            : static_cast<int>(i + 1);
        auto &bucket = scan.shields[target];
        bucket.insert(bucket.end(), annotations.begin(),
                      annotations.end());
    }

    const auto emit = [&](int line_no, const std::string &rule,
                          const std::string &message) {
        Finding f;
        f.file = scan.path;
        f.line = line_no;
        f.rule = rule;
        f.message = message;
        f.snippet = line_no >= 1
                && line_no <= static_cast<int>(scan.rawLines.size())
            ? trimCopy(
                  scan.rawLines[static_cast<std::size_t>(line_no - 1)])
            : std::string();
        scan.findings.push_back(std::move(f));
    };

    // Header hygiene.
    if (isHeaderPath(scan.path)) {
        int first_code = 0;
        for (std::size_t i = 0; i < scan.codeLines.size(); ++i) {
            if (!isBlank(scan.codeLines[i])) {
                first_code = static_cast<int>(i + 1);
                break;
            }
        }
        const std::string opening = first_code == 0
            ? std::string()
            : trimCopy(scan.codeLines[static_cast<std::size_t>(
                  first_code - 1)]);
        const bool guarded = opening.rfind("#pragma once", 0) == 0
            || opening.rfind("#ifndef", 0) == 0;
        if (!guarded)
            emit(first_code == 0 ? 1 : first_code, "header-guard",
                 "header must open with #pragma once or an #ifndef "
                 "include guard");
        static const std::regex using_ns(R"(\busing\s+namespace\b)");
        for (std::size_t i = 0; i < scan.codeLines.size(); ++i)
            if (std::regex_search(scan.codeLines[i], using_ns))
                emit(static_cast<int>(i + 1), "using-namespace-header",
                     "`using namespace` in a header leaks into every "
                     "includer");
    }

    // Token rules.
    for (const TokenRule &rule : tokenRules()) {
        if (!ruleAppliesTo(rule.id, scan.path))
            continue;
        for (std::size_t i = 0; i < scan.codeLines.size(); ++i) {
            if (scan.codeLines[i].empty())
                continue;
            if (rule.skipIncludeLines && isIncludeLine(scan.codeLines[i]))
                continue;
            if (std::regex_search(scan.codeLines[i], rule.pattern))
                emit(static_cast<int>(i + 1), rule.id, rule.message);
        }
    }

    return scan;
}

/** Per-line annotation first, then the allowlist. */
void
applySuppression(Finding &f,
                 std::map<int, std::vector<Annotation>> &shields,
                 std::vector<AllowlistEntry> *allowlist)
{
    const auto it = shields.find(f.line);
    if (it != shields.end()) {
        for (Annotation &a : it->second) {
            if (a.rule == f.rule) {
                f.suppression = SuppressionKind::Annotation;
                f.reason = a.reason;
                a.used = true;
                return;
            }
        }
    }
    if (allowlist != nullptr) {
        for (AllowlistEntry &e : *allowlist) {
            if (e.rule == f.rule && allowlistCovers(e, f.file)) {
                f.suppression = SuppressionKind::Allowlist;
                f.reason = e.reason;
                e.used = true;
                return;
            }
        }
    }
}

void
emitStaleAnnotations(const FileScan &scan, Report &out)
{
    for (const auto &[target, bucket] : scan.shields) {
        (void)target;
        for (const Annotation &a : bucket) {
            if (a.used)
                continue;
            StaleSuppression s;
            s.file = scan.path;
            s.line = a.sourceLine;
            s.rule = a.rule;
            s.detail = "allow(" + a.rule
                + ") annotation suppresses nothing";
            out.stale.push_back(std::move(s));
        }
    }
}

void
sortFindings(std::vector<Finding> &findings)
{
    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
}

} // namespace

void
analyzeSource(const std::string &raw_path, const std::string &content,
              std::vector<AllowlistEntry> *allowlist, Report &out)
{
    ++out.filesScanned;
    FileScan scan = scanOne(raw_path, content, out.errors);
    for (Finding &f : scan.findings) {
        applySuppression(f, scan.shields, allowlist);
        out.findings.push_back(std::move(f));
    }
    emitStaleAnnotations(scan, out);
}

Analysis
analyzeProgram(const std::vector<std::string> &paths,
               std::vector<AllowlistEntry> allowlist,
               const std::string &allowlist_file,
               const Options &options)
{
    namespace fs = std::filesystem;
    Analysis analysis;
    Report &report = analysis.report;

    std::vector<std::string> files;
    for (const std::string &p : paths) {
        std::error_code ec;
        if (fs::is_directory(p, ec)) {
            for (fs::recursive_directory_iterator it(p, ec), end;
                 it != end; it.increment(ec)) {
                if (ec)
                    break;
                if (!it->is_regular_file())
                    continue;
                const std::string f =
                    normalizePath(it->path().generic_string());
                if (isSourcePath(f))
                    files.push_back(f);
            }
        } else if (fs::is_regular_file(p, ec)) {
            files.push_back(normalizePath(p));
        } else {
            report.errors.push_back("cannot open path: " + p);
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    std::vector<FileScan> scans;
    scans.reserve(files.size());
    for (const std::string &file : files) {
        std::ifstream in(file, std::ios::binary);
        if (!in) {
            report.errors.push_back("cannot read file: " + file);
            continue;
        }
        std::ostringstream content;
        content << in.rdbuf();
        ++report.filesScanned;
        FileScan scan = scanOne(file, content.str(), report.errors);

        SourceFile source;
        source.path = scan.path;
        source.codeLines = scan.codeLines;
        for (const auto &[target, bucket] : scan.shields)
            for (const Annotation &a : bucket)
                source.allowedRules[target][a.rule] = a.reason;
        extractFile(analysis.program, std::move(source),
                    scan.rawLines);
        scans.push_back(std::move(scan));
    }
    finalizeProgram(analysis.program);
    analysis.graph = buildCallGraph(analysis.program);
    report.functionsExtracted = analysis.program.functions.size();
    report.callEdges = analysis.graph.edges.size();

    std::map<std::string, std::size_t> scanIndex;
    for (std::size_t i = 0; i < scans.size(); ++i)
        scanIndex[scans[i].path] = i;

    const auto attach = [&](Finding f) {
        const auto it = scanIndex.find(f.file);
        if (it == scanIndex.end()) {
            report.findings.push_back(std::move(f));
            return;
        }
        FileScan &scan = scans[it->second];
        if (f.snippet.empty() && f.line >= 1
            && f.line <= static_cast<int>(scan.rawLines.size()))
            f.snippet = trimCopy(
                scan.rawLines[static_cast<std::size_t>(f.line - 1)]);
        scan.findings.push_back(std::move(f));
    };

    if (options.taint) {
        analysis.taint
            = propagateTaint(analysis.program, analysis.graph);
        report.factSeeds
            = static_cast<std::size_t>(analysis.taint.seedCount);
        for (const TaintFinding &tf : analysis.taint.findings) {
            Finding f;
            f.file = tf.file;
            f.line = tf.line;
            f.rule = tf.rule;
            f.message = tf.message;
            f.chain = tf.chain;
            attach(std::move(f));
        }
    }

    if (options.layering) {
        for (const LayerViolation &lv :
             checkLayering(analysis.program)) {
            Finding f;
            f.file = lv.file;
            f.line = lv.line;
            f.rule = "layering";
            f.message = lv.message;
            attach(std::move(f));
        }
    }

    // Suppression and stale resolution run only after every layer
    // has produced its findings, so an annotation that shields a
    // taint or layering finding is never misreported as stale.
    for (FileScan &scan : scans) {
        for (Finding &f : scan.findings) {
            applySuppression(f, scan.shields, &allowlist);
            report.findings.push_back(std::move(f));
        }
    }
    for (const FileScan &scan : scans)
        emitStaleAnnotations(scan, report);

    for (const AllowlistEntry &e : allowlist) {
        if (e.used)
            continue;
        StaleSuppression s;
        s.file = allowlist_file.empty() ? "<allowlist>" : allowlist_file;
        s.line = e.line;
        s.rule = e.rule;
        s.detail = "allowlist entry `" + e.path + " " + e.rule
            + "` matches no finding";
        report.stale.push_back(std::move(s));
    }

    sortFindings(report.findings);
    return analysis;
}

Report
analyzePaths(const std::vector<std::string> &paths,
             std::vector<AllowlistEntry> allowlist,
             const std::string &allowlist_file, const Options &options)
{
    return analyzeProgram(paths, std::move(allowlist), allowlist_file,
                          options)
        .report;
}

std::string
toJson(const Report &report, bool strict)
{
    std::ostringstream out;
    out << "{\n";
    out << "  \"tool\": \"khuzdul_lint\",\n";
    out << "  \"schema_version\": 2,\n";
    out << "  \"strict\": " << (strict ? "true" : "false") << ",\n";
    out << "  \"files_scanned\": " << report.filesScanned << ",\n";
    out << "  \"functions\": " << report.functionsExtracted << ",\n";
    out << "  \"call_edges\": " << report.callEdges << ",\n";
    out << "  \"fact_seeds\": " << report.factSeeds << ",\n";
    out << "  \"violations\": " << report.violations() << ",\n";
    out << "  \"suppressed\": " << report.suppressed() << ",\n";
    out << "  \"passed\": " << (report.passes(strict) ? "true" : "false")
        << ",\n";
    out << "  \"findings\": [";
    for (std::size_t i = 0; i < report.findings.size(); ++i) {
        const Finding &f = report.findings[i];
        out << (i == 0 ? "\n" : ",\n");
        out << "    {\"file\": \"" << jsonEscape(f.file)
            << "\", \"line\": " << f.line << ", \"rule\": \""
            << jsonEscape(f.rule) << "\", \"message\": \""
            << jsonEscape(f.message) << "\", \"snippet\": \""
            << jsonEscape(f.snippet) << "\", \"chain\": [";
        for (std::size_t h = 0; h < f.chain.size(); ++h) {
            if (h != 0)
                out << ", ";
            out << "\"" << jsonEscape(f.chain[h]) << "\"";
        }
        out << "], \"suppression\": \""
            << suppressionName(f.suppression) << "\", \"reason\": \""
            << jsonEscape(f.reason) << "\"}";
    }
    out << (report.findings.empty() ? "]" : "\n  ]") << ",\n";
    out << "  \"stale_suppressions\": [";
    for (std::size_t i = 0; i < report.stale.size(); ++i) {
        const StaleSuppression &s = report.stale[i];
        out << (i == 0 ? "\n" : ",\n");
        out << "    {\"file\": \"" << jsonEscape(s.file)
            << "\", \"line\": " << s.line << ", \"rule\": \""
            << jsonEscape(s.rule) << "\", \"detail\": \""
            << jsonEscape(s.detail) << "\"}";
    }
    out << (report.stale.empty() ? "]" : "\n  ]") << ",\n";
    out << "  \"errors\": [";
    for (std::size_t i = 0; i < report.errors.size(); ++i) {
        out << (i == 0 ? "\n" : ",\n");
        out << "    \"" << jsonEscape(report.errors[i]) << "\"";
    }
    out << (report.errors.empty() ? "]" : "\n  ]") << "\n";
    out << "}\n";
    return out.str();
}

std::string
toText(const Report &report, bool strict)
{
    std::ostringstream out;
    for (const Finding &f : report.findings) {
        if (!f.live())
            continue;
        out << f.file << ":" << f.line << ": [" << f.rule << "] "
            << f.message << "\n";
        if (!f.snippet.empty())
            out << "    " << f.snippet << "\n";
    }
    for (const std::string &e : report.errors)
        out << "error: " << e << "\n";
    if (strict) {
        for (const StaleSuppression &s : report.stale)
            out << s.file << ":" << s.line << ": [stale] " << s.detail
                << "\n";
    }
    out << "khuzdul_lint: " << report.filesScanned << " files, "
        << report.violations() << " violation(s), "
        << report.suppressed() << " suppressed";
    if (strict)
        out << ", " << report.stale.size() << " stale suppression(s)";
    out << " — " << (report.passes(strict) ? "PASS" : "FAIL") << "\n";
    return out.str();
}

std::string
rulesText()
{
    std::ostringstream out;
    out << "rule                     scope     contract\n";
    out << "----                     -----     --------\n";
    for (const RuleInfo &r : rules()) {
        const char *scope = "src";
        if (r.scope == RuleScope::ModeledZones)
            scope = "modeled";
        else if (r.scope == RuleScope::HeadersOnly)
            scope = "headers";
        else if (r.scope == RuleScope::RecoveryPaths)
            scope = "recovery";
        char row[64];
        std::snprintf(row, sizeof row, "%-24s %-9s ", r.id.c_str(),
                      scope);
        out << row << r.summary << "\n";
    }
    out << "\nsuppress one line:  // khuzdul-lint: allow(<rule>) "
           "<reason>\n";
    out << "suppress one file:  `<path> <rule> <reason>` in the "
           "allowlist\n";
    return out.str();
}

std::string
usageText()
{
    return "usage: khuzdul_lint [options] <path>...\n"
           "\n"
           "Static determinism-contract analyzer for the khuzdul\n"
           "modeled zones (DESIGN.md section 8): per-line token\n"
           "rules plus cross-TU taint propagation and the\n"
           "architecture-layering check.\n"
           "\n"
           "options:\n"
           "  --allowlist <file>  load whole-file suppressions\n"
           "  --strict            fail on stale suppressions too\n"
           "  --json              machine-readable report (schema v2)\n"
           "  --layering          enforce the include-layer order\n"
           "  --no-taint          token rules only, no cross-TU pass\n"
           "  --facts             dump symbol/fact tables as JSON, exit\n"
           "  --why <symbol>      explain a symbol's taint chains, exit\n"
           "  --rules             print the rules table and exit\n"
           "  --help              this text\n"
           "\n"
           "exit status:\n"
           "  0  clean (and, under --strict, no stale suppressions)\n"
           "  1  contract violations, or stale suppressions under\n"
           "     --strict\n"
           "  2  usage error, unreadable input, or unknown --why\n"
           "     symbol\n";
}

} // namespace lint
} // namespace khuzdul
