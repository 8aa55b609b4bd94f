/**
 * @file
 * End-to-end tests of the `khuzdul` command-line tool: each test
 * shells out to the real binary (path injected by CMake) and checks
 * exit codes and output fragments.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>

#ifndef KHUZDUL_CLI_PATH
#error "KHUZDUL_CLI_PATH must be defined by the build"
#endif

namespace
{

/** Run a CLI invocation, capturing stdout+stderr and exit code. */
std::pair<int, std::string>
runCli(const std::string &args)
{
    const std::string command =
        std::string(KHUZDUL_CLI_PATH) + " " + args + " 2>&1";
    FILE *pipe = popen(command.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    std::string output;
    std::array<char, 4096> buffer;
    while (fgets(buffer.data(), buffer.size(), pipe))
        output += buffer.data();
    const int status = pclose(pipe);
    return {WEXITSTATUS(status), output};
}

TEST(Cli, HelpListsSubcommands)
{
    const auto [code, out] = runCli("help");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("count"), std::string::npos);
    EXPECT_NE(out.find("fsm"), std::string::npos);
}

TEST(Cli, HelpTopicPrintsUsage)
{
    const auto [code, out] = runCli("help count");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("--pattern"), std::string::npos);
    EXPECT_NE(out.find("--stats-json"), std::string::npos);
}

TEST(Cli, UnknownSubcommandFails)
{
    // Exit 1, like every other bad invocation: exit 2 is reserved
    // for unrecoverable modeled faults (see ExitCodeTwo... below).
    const auto [code, out] = runCli("frobnicate");
    EXPECT_EQ(code, 1);
    EXPECT_NE(out.find("unknown subcommand"), std::string::npos);
}

TEST(Cli, CountTrianglesOnGeneratedGraph)
{
    const auto [code, out] =
        runCli("count --graph er:500:2000:3 --pattern triangle "
               "--nodes 2");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("embeddings of P3[0-1,0-2,1-2]"),
              std::string::npos);
    EXPECT_NE(out.find("modeled cluster time"), std::string::npos);
}

TEST(Cli, CountMatchesAcrossSystems)
{
    const auto a = runCli("count --graph rmat:800:4000:0.5:9 "
                          "--pattern clique4 --system automine");
    const auto b = runCli("count --graph rmat:800:4000:0.5:9 "
                          "--pattern clique4 --system graphpi");
    EXPECT_EQ(a.first, 0);
    EXPECT_EQ(b.first, 0);
    // First line carries the count; it must be identical.
    EXPECT_EQ(a.second.substr(0, a.second.find('\n')),
              b.second.substr(0, b.second.find('\n')));
}

TEST(Cli, KernelModesAreObservationallyEquivalent)
{
    // Every --kernel mode must report the same count AND the same
    // modeled cluster time: kernels change wall-clock only, never
    // the simulated machine.  Also exercises the --key=value form.
    const auto modeled = [](const std::string &out) {
        // Everything up to (but excluding) the host wall-time line,
        // the only nondeterministic part of the report.
        const auto pos = out.find("host wall time");
        EXPECT_NE(pos, std::string::npos);
        return out.substr(0, pos);
    };
    const std::string base = "count --graph rmat:800:4000:0.5:9 "
                             "--pattern clique4 --nodes 2 ";
    const auto reference = runCli(base + "--kernel merge");
    ASSERT_EQ(reference.first, 0);
    EXPECT_NE(reference.second.find("modeled cluster time"),
              std::string::npos);
    for (const std::string flag :
         {"--kernel auto", "--kernel=gallop"}) {
        const auto [code, out] = runCli(base + flag);
        EXPECT_EQ(code, 0) << flag;
        EXPECT_EQ(modeled(out), modeled(reference.second)) << flag;
    }
    // Unknown kernel names still abort with the usage string.
    EXPECT_EQ(runCli(base + "--kernel avx2").first, 1);
    EXPECT_EQ(runCli(base + "--kernel simd").first, 1);
    EXPECT_EQ(runCli(base + "--kernel=bitmap").first, 1);
}

TEST(Cli, PlanPrintsLevels)
{
    const auto [code, out] =
        runCli("plan --pattern 0-1,1-2,2-0 --system automine");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("L1:"), std::string::npos);
    EXPECT_NE(out.find("divisor=1"), std::string::npos);
}

TEST(Cli, PlanWithGraphShowsThePlanCountRuns)
{
    // count on standin:lj compiles GraphPi's clique5 against the
    // graph's degree profile, which folds the last position into IEP.
    const auto [code, out] =
        runCli("plan --graph standin:lj --pattern clique5");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("divisor=5"), std::string::npos) << out;
    EXPECT_NE(out.find("IEP suffix=1"), std::string::npos) << out;
    // Without a graph the default profile (100k vertices, degree 16)
    // picks a plan with no IEP; the documented profile options can
    // describe the graph instead.
    EXPECT_EQ(runCli("plan --pattern clique5").second.find("IEP"),
              std::string::npos);
    const auto profiled = runCli("plan --pattern clique5 "
                                 "--profile-vertices 16000 "
                                 "--profile-degree 12.53");
    EXPECT_EQ(profiled.first, 0);
    EXPECT_NE(profiled.second.find("IEP suffix=1"), std::string::npos)
        << profiled.second;
    // A graph and explicit profile options contradict each other.
    EXPECT_EQ(runCli("plan --graph standin:lj --pattern clique5 "
                     "--profile-degree 4")
                  .first,
              1);
}

TEST(Cli, PlanListsMemoizedLevels)
{
    const auto [code, out] = runCli("plan --pattern house");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("  memo: L4 key={0,3}\n"), std::string::npos)
        << out;
    for (const char *spec : {"clique4", "cycle4", "house --induced"})
        EXPECT_EQ(runCli(std::string("plan --pattern ") + spec)
                      .second.find("memo"),
                  std::string::npos)
            << spec;
}

TEST(Cli, PlanListsCountOnlyTerminal)
{
    const std::pair<const char *, const char *> counted[] = {
        {"cycle4", "  count: L3\n"}, {"clique6", "  count: L5\n"}};
    for (const auto &[spec, line] : counted) {
        const auto [code, out] =
            runCli(std::string("plan --pattern ") + spec);
        EXPECT_EQ(code, 0);
        EXPECT_NE(out.find(line), std::string::npos) << out;
    }
    for (const char *spec : {"house", "cycle4 --induced"})
        EXPECT_EQ(runCli(std::string("plan --pattern ") + spec)
                      .second.find("count:"),
                  std::string::npos)
            << spec;
}

TEST(Cli, HelpDocumentsPlan)
{
    const auto [code, out] = runCli("help plan");
    EXPECT_EQ(code, 0);
    for (const char *flag :
         {"--graph", "--profile-vertices", "--profile-degree",
          "--system", "--induced", "memo"})
        EXPECT_NE(out.find(flag), std::string::npos) << flag;
}

TEST(Cli, GenerateConvertInfoRoundTrip)
{
    const std::string el = testing::TempDir() + "/cli_test.el";
    const std::string bin = testing::TempDir() + "/cli_test.bin";
    auto [gcode, gout] =
        runCli("generate --spec sw:1000:3:0.1:5 --out " + el);
    EXPECT_EQ(gcode, 0);
    auto [ccode, cout_] =
        runCli("convert --in " + el + " --out " + bin
               + " --format binary");
    EXPECT_EQ(ccode, 0);
    auto [icode, iout] = runCli("info --graph " + bin);
    EXPECT_EQ(icode, 0);
    EXPECT_NE(iout.find("vertices:    1,000"), std::string::npos);
    std::remove(el.c_str());
    std::remove(bin.c_str());
}

TEST(Cli, MotifsAndFsmRun)
{
    const auto motifs =
        runCli("motifs --graph er:400:1600:2 --size 3 --nodes 2");
    EXPECT_EQ(motifs.first, 0);
    // Both size-3 motifs appear (wedge + triangle).
    EXPECT_NE(motifs.second.find("P3[0-1,0-2,1-2]"),
              std::string::npos);

    const auto fsm = runCli("fsm --graph er:400:1600:2 --labels 2 "
                            "--support 50 --max-edges 2 --nodes 2");
    EXPECT_EQ(fsm.first, 0);
    EXPECT_NE(fsm.second.find("frequent patterns"), std::string::npos);
}

TEST(Cli, ServeRunsQueriesConcurrently)
{
    const auto [code, out] =
        runCli("serve --graph rmat:800:4000:0.5:9 "
               "--query triangle --query triangle --query diamond "
               "--nodes 3 --max-in-flight 2");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("query 0"), std::string::npos);
    EXPECT_NE(out.find("query 2"), std::string::npos);
    EXPECT_NE(out.find("3 queries"), std::string::npos);
    EXPECT_NE(out.find("cross-query shared-cache hits"),
              std::string::npos);
    // The determinism contract in action: the identical queries 0
    // and 1 print identical count + modeled-time lines.
    const auto line_of = [&out](const std::string &prefix) {
        const std::size_t at = out.find(prefix);
        EXPECT_NE(at, std::string::npos) << prefix;
        return out.substr(at + prefix.size(),
                          out.find('\n', at) - at - prefix.size());
    };
    EXPECT_EQ(line_of("query 0"), line_of("query 1"));
}

TEST(Cli, ServeCountsMatchSingleQueryCount)
{
    const auto serve =
        runCli("serve --graph er:500:2000:3 --query clique4 "
               "--nodes 2");
    const auto count =
        runCli("count --graph er:500:2000:3 --pattern clique4 "
               "--nodes 2");
    EXPECT_EQ(serve.first, 0);
    EXPECT_EQ(count.first, 0);
    // `count` prints "N embeddings of ..."; the serve row must
    // contain the same formatted N.
    const std::size_t end = count.second.find(" embeddings of");
    ASSERT_NE(end, std::string::npos);
    const std::string n = count.second.substr(0, end);
    EXPECT_NE(serve.second.find(n + " embeddings"),
              std::string::npos)
        << serve.second;
}

TEST(Cli, ServeAdmissionBoundIsAtMostTheQueryCount)
{
    const auto [code, out] =
        runCli("serve --graph er:200:800:3 --nodes 1 --sockets 1 "
               "--query triangle --max-in-flight 64");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("admission bound 1)"), std::string::npos)
        << out;
}

TEST(Cli, ServeRequiresAQuery)
{
    const auto [code, out] =
        runCli("serve --graph er:200:800:3");
    EXPECT_EQ(code, 1);
    EXPECT_NE(out.find("--query"), std::string::npos);
}

TEST(Cli, HelpDocumentsServe)
{
    const auto [code, out] = runCli("help serve");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("--max-in-flight"), std::string::npos);
    EXPECT_NE(out.find("bit-identical"), std::string::npos);
}

TEST(Cli, StatsJsonWritesMachineReadableDump)
{
    const std::string path = testing::TempDir() + "/cli_stats.json";
    const auto [code, out] =
        runCli("count --graph er:500:2000:3 --pattern triangle "
               "--nodes 2 --stats-json " + path);
    EXPECT_EQ(code, 0);
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::stringstream content;
    content << in.rdbuf();
    const std::string json = content.str();
    EXPECT_NE(json.find("\"makespan_ns\":"), std::string::npos);
    EXPECT_NE(json.find("\"bytes_sent\":"), std::string::npos);
    EXPECT_NE(json.find("\"nodes\": ["), std::string::npos);
    std::remove(path.c_str());
}

TEST(Cli, ThreadsFlagIsParsedAndResultInvariant)
{
    // The first line (count) and the modeled cluster time must be
    // identical for every --threads value; both spellings of the
    // flag parse; garbage is rejected.
    const auto modeled = [](const std::string &out) {
        const auto pos = out.find("host wall time");
        EXPECT_NE(pos, std::string::npos);
        return out.substr(0, pos);
    };
    const std::string base = "count --graph rmat:800:4000:0.5:9 "
                             "--pattern clique4 --nodes 2 ";
    const auto reference = runCli(base + "--threads 1");
    ASSERT_EQ(reference.first, 0);
    for (const std::string flag :
         {"--threads 2", "--threads=4", "--threads 0"}) {
        const auto [code, out] = runCli(base + flag);
        EXPECT_EQ(code, 0) << flag;
        EXPECT_EQ(modeled(out), modeled(reference.second)) << flag;
    }
    EXPECT_EQ(runCli(base + "--threads lots").first, 1);
}

TEST(Cli, StatsJsonReportsHostThreads)
{
    // --nodes 2 with the default two sockets gives four execution
    // units, so a three-thread request is used as-is.
    const std::string path = testing::TempDir() + "/cli_host.json";
    const auto [code, out] =
        runCli("count --graph er:500:2000:3 --pattern triangle "
               "--nodes 2 --threads 3 --stats-json " + path);
    EXPECT_EQ(code, 0);
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::stringstream content;
    content << in.rdbuf();
    const std::string json = content.str();
    EXPECT_NE(json.find("\"host\": {\"threads\": 3"),
              std::string::npos);
    EXPECT_NE(json.find("\"wall_ns\":"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Cli, TraceWritesJsonLines)
{
    const std::string path = testing::TempDir() + "/cli_trace.jsonl";
    const auto [code, out] =
        runCli("count --graph er:500:2000:3 --pattern triangle "
               "--nodes 2 --trace " + path);
    EXPECT_EQ(code, 0);
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::string line;
    ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));
    EXPECT_EQ(line.rfind("{\"event\":\"", 0), 0u);
    EXPECT_NE(line.find("\"unit\":"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Cli, FaultPlanRoundTripsIntoStatsJson)
{
    // --fault is repeatable; every spec lands in the plan and the
    // run reports its recovery work in the faults block — with the
    // count unchanged from the healthy run.
    const std::string path = testing::TempDir() + "/cli_faults.json";
    const std::string base =
        "count --graph er:500:2000:3 --pattern triangle --nodes 4 ";
    const auto healthy = runCli(base);
    ASSERT_EQ(healthy.first, 0);
    const auto [code, out] =
        runCli(base
               + "--fault drop:0-1:msg=1:count=2 "
                 "--fault 'timeout:*-*:msg=2' --stats-json " + path);
    EXPECT_EQ(code, 0);
    // First line carries the count; faults must not change it.
    EXPECT_EQ(out.substr(0, out.find('\n')),
              healthy.second.substr(0, healthy.second.find('\n')));
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::stringstream content;
    content << in.rdbuf();
    const std::string json = content.str();
    EXPECT_NE(json.find("\"faults\": {\"injected\": "),
              std::string::npos);
    EXPECT_NE(json.find("\"recovery_ns\": "), std::string::npos);
    EXPECT_EQ(json.find("\"injected\": 0,"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Cli, FaultedStatsAreThreadCountInvariant)
{
    const std::string base =
        "count --graph er:500:2000:3 --pattern triangle --nodes 4 "
        "--fault 'drop:*-*:msg=1:count=4' --fault down:node=2:from=0 ";
    const auto modeled = [](const std::string &out) {
        const auto pos = out.find("host wall time");
        EXPECT_NE(pos, std::string::npos);
        return out.substr(0, pos);
    };
    const auto reference = runCli(base + "--threads 1");
    ASSERT_EQ(reference.first, 0);
    for (const std::string flag : {"--threads 2", "--threads 8"}) {
        const auto [code, out] = runCli(base + flag);
        EXPECT_EQ(code, 0) << flag;
        EXPECT_EQ(modeled(out), modeled(reference.second)) << flag;
    }
}

TEST(Cli, MalformedFaultSpecsAreRejected)
{
    const std::string base =
        "count --graph er:200:800:3 --pattern triangle ";
    for (const std::string spec :
         {"drop:0-1", "explode:0-1:msg=1", "degrade:0-1:factor=0.5",
          "down:from=10"}) {
        const auto [code, out] = runCli(base + "--fault '" + spec + "'");
        EXPECT_EQ(code, 1) << spec;
        EXPECT_NE(out.find("fault"), std::string::npos) << spec;
    }
}

TEST(Cli, HelpDocumentsFaultGrammar)
{
    const auto [code, out] = runCli("help count");
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.find("--fault"), std::string::npos);
    EXPECT_NE(out.find("drop:SRC-DST:msg=N"), std::string::npos);
    EXPECT_NE(out.find("--fault-retries"), std::string::npos);
}

TEST(Cli, HelpDocumentsKernelFaultAndStealFlagsEverywhere)
{
    // PRs 5-7 grew the engine flags; every counting subcommand's
    // help must document them, not just `count`.
    for (const std::string topic :
         {"help count", "help motifs", "help fsm"}) {
        const auto [code, out] = runCli(topic);
        EXPECT_EQ(code, 0) << topic;
        EXPECT_NE(out.find("--kernel"), std::string::npos) << topic;
        EXPECT_NE(out.find("--fault"), std::string::npos) << topic;
        EXPECT_NE(out.find("--threads"), std::string::npos) << topic;
        EXPECT_NE(out.find("--steal"), std::string::npos) << topic;
        EXPECT_NE(out.find("--steal-threshold"), std::string::npos)
            << topic;
    }
}

TEST(Cli, StealFlagKeepsCountsAndReportsStealsBlock)
{
    // --steal on must leave the count untouched, and the stats dump
    // must carry the steals block (present even when nothing was
    // stolen, so consumers can rely on the key).
    const std::string path = testing::TempDir() + "/cli_steal.json";
    const std::string base =
        "count --graph rmat:800:4000:0.5:9 --pattern clique4 "
        "--nodes 4 ";
    const auto off = runCli(base + "--steal off");
    ASSERT_EQ(off.first, 0);
    const auto [code, out] =
        runCli(base + "--steal on --stats-json " + path);
    EXPECT_EQ(code, 0);
    // First line carries the count; stealing moves modeled time,
    // never work.
    EXPECT_EQ(out.substr(0, out.find('\n')),
              off.second.substr(0, off.second.find('\n')));
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::stringstream content;
    content << in.rdbuf();
    const std::string json = content.str();
    EXPECT_NE(json.find("\"steals\": {\"stolen\": "),
              std::string::npos);
    EXPECT_NE(json.find("\"chunks_stolen\": "), std::string::npos);
    std::remove(path.c_str());

    // Garbage values are rejected with the flag named.
    const auto bad = runCli(base + "--steal banana");
    EXPECT_EQ(bad.first, 1);
    EXPECT_NE(bad.second.find("--steal"), std::string::npos);
}

TEST(Cli, StolenStatsAreThreadCountInvariant)
{
    const std::string base =
        "count --graph er:500:2000:3 --pattern triangle --nodes 4 "
        "--steal on --fault 'degrade:3-*:factor=5:from=0' ";
    const auto modeled = [](const std::string &out) {
        const auto pos = out.find("host wall time");
        EXPECT_NE(pos, std::string::npos);
        return out.substr(0, pos);
    };
    const auto reference = runCli(base + "--threads 1");
    ASSERT_EQ(reference.first, 0);
    for (const std::string flag : {"--threads 2", "--threads 8"}) {
        const auto [code, out] = runCli(base + flag);
        EXPECT_EQ(code, 0) << flag;
        EXPECT_EQ(modeled(out), modeled(reference.second)) << flag;
    }
}

TEST(Cli, CrashFaultKeepsCountAndReportsRecoveryBlock)
{
    const std::string path = testing::TempDir() + "/cli_crash.json";
    const std::string base =
        "count --graph er:500:2000:3 --pattern triangle --nodes 4 "
        "--chunk-bytes 65536 ";
    const auto healthy = runCli(base);
    ASSERT_EQ(healthy.first, 0);
    const auto [code, out] =
        runCli(base + "--fault crash:1:level=1:chunk=1 --stats-json "
               + path);
    EXPECT_EQ(code, 0);
    // First line carries the count; a crash re-attributes modeled
    // time, it never loses work.
    EXPECT_EQ(out.substr(0, out.find('\n')),
              healthy.second.substr(0, healthy.second.find('\n')));
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::stringstream content;
    content << in.rdbuf();
    const std::string json = content.str();
    EXPECT_NE(json.find("\"recovery\": {\"checkpoints\": "),
              std::string::npos);
    EXPECT_NE(json.find("\"crashes\": 1"), std::string::npos);
    EXPECT_EQ(json.find("\"adopted\": 0,"), std::string::npos);
    std::remove(path.c_str());

    // Out-of-range unit and malformed crash specs fail loudly.
    EXPECT_EQ(runCli(base + "--fault crash:99:level=0").first, 1);
    EXPECT_EQ(runCli(base + "--fault crash:1").first, 1);
}

TEST(Cli, ExitCodeTwoForUnrecoverableModeledFault)
{
    // A plan with no recovery path (every retry of every batch is
    // dropped) must surface as one clean error line and the
    // documented exit code 2 — never an abort or a zero exit.
    const auto [code, out] =
        runCli("count --graph er:500:2000:3 --pattern triangle "
               "--nodes 4 --fault 'drop:*-*:msg=1:count=100000' "
               "--fault-retries 0");
    EXPECT_EQ(code, 2);
    EXPECT_NE(out.find("unrecoverable modeled fault:"),
              std::string::npos);
    // One line, no stack trace / assertion spew.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 1);

    // A crash plan that kills every unit is equally unrecoverable.
    const auto all_dead =
        runCli("serve --graph er:200:800:3 --nodes 1 --sockets 1 "
               "--query triangle --fault crash:0:level=0");
    EXPECT_EQ(all_dead.first, 1); // serve reports it per-query
    EXPECT_NE(all_dead.second.find("FAILED"), std::string::npos);
}

TEST(Cli, ServeExitsNonzeroWhenAnyQueryFails)
{
    // One healthy query + one that exceeds a tiny modeled deadline:
    // the run prints both rows but must not exit 0.
    const auto [code, out] =
        runCli("serve --graph er:500:2000:3 --nodes 2 "
               "--query triangle --query clique4 --deadline 10");
    EXPECT_EQ(code, 1);
    EXPECT_NE(out.find("FAILED"), std::string::npos);
    EXPECT_NE(out.find("deadline"), std::string::npos);
    EXPECT_NE(out.find("queries failed"), std::string::npos);

    // All-healthy serve keeps exiting 0 (regression guard for the
    // new failure accounting).
    const auto ok =
        runCli("serve --graph er:500:2000:3 --nodes 2 "
               "--query triangle");
    EXPECT_EQ(ok.first, 0);
}

TEST(Cli, ServeRetriesAreBoundedAndReported)
{
    // Deterministic failures fail every attempt: the retry budget
    // is spent and the final error says so.
    const auto [code, out] =
        runCli("serve --graph er:500:2000:3 --nodes 2 "
               "--query triangle --deadline 10 --query-retries 2");
    EXPECT_EQ(code, 1);
    EXPECT_NE(out.find("retry budget exhausted after 3 attempts"),
              std::string::npos);
}

TEST(Cli, HelpDocumentsRecoveryFlagsEverywhere)
{
    for (const std::string topic :
         {"help count", "help motifs", "help fsm"}) {
        const auto [code, out] = runCli(topic);
        EXPECT_EQ(code, 0) << topic;
        EXPECT_NE(out.find("crash:UNIT:level=L"), std::string::npos)
            << topic;
        EXPECT_NE(out.find("--checkpoint"), std::string::npos)
            << topic;
        EXPECT_NE(out.find("--deadline"), std::string::npos) << topic;
    }
    const auto count = runCli("help count");
    EXPECT_NE(count.second.find("exit codes"), std::string::npos);
    const auto serve = runCli("help serve");
    EXPECT_EQ(serve.first, 0);
    EXPECT_NE(serve.second.find("--query-retries"),
              std::string::npos);
    EXPECT_NE(serve.second.find("--deadline"), std::string::npos);
}

TEST(Cli, BadInputsReportErrors)
{
    EXPECT_EQ(runCli("count --graph /nonexistent.el "
                     "--pattern triangle").first, 1);
    EXPECT_EQ(runCli("count --graph er:100:200 "
                     "--pattern bogus+spec").first, 1);

    // A disconnected pattern is bad input, not an engine bug: every
    // subcommand under both systems names connectivity, no panic.
    for (const char *disconnected :
         {"plan --pattern 1-2", "plan --pattern 0-1,2-3",
          "plan --pattern 1-2 --system automine",
          "plan --pattern 0-1,2-3 --system automine",
          "count --graph rmat:200:800 --pattern 0-1,2-3",
          "count --graph rmat:200:800 --pattern 0-1,2-3 "
          "--system automine",
          "serve --graph rmat:200:800 --query 0-1,2-3",
          "serve --graph rmat:200:800 --query 0-1,2-3 "
          "--system automine"}) {
        const auto [code, out] = runCli(disconnected);
        EXPECT_EQ(code, 1) << disconnected;
        EXPECT_NE(out.find("connected"), std::string::npos)
            << disconnected << ": " << out;
        EXPECT_EQ(out.find("panic"), std::string::npos)
            << disconnected << ": " << out;
    }

    // A zero chunk budget would never admit a root: rejected up
    // front instead of spinning.
    const auto zero_chunk = runCli("count --graph rmat:200:800 "
                                   "--pattern triangle --chunk-bytes 0");
    EXPECT_EQ(zero_chunk.first, 1);
    EXPECT_NE(zero_chunk.second.find("chunk byte budget"),
              std::string::npos)
        << zero_chunk.second;
    const auto negative_cache =
        runCli("count --graph rmat:200:800 --pattern triangle "
               "--cache-fraction -1");
    EXPECT_EQ(negative_cache.first, 1);
    EXPECT_NE(negative_cache.second.find("cache fraction"),
              std::string::npos)
        << negative_cache.second;

    // An invalid session fails its query row; it must not abort the
    // dispatcher thread (which would exit 134).
    const auto bad_fault =
        runCli("serve --graph rmat:200:800 --query triangle "
               "--nodes 4 --fault down:node=9");
    EXPECT_EQ(bad_fault.first, 1);
    EXPECT_NE(bad_fault.second.find("FAILED"), std::string::npos)
        << bad_fault.second;
    EXPECT_NE(bad_fault.second.find("out of range"), std::string::npos)
        << bad_fault.second;

    // Integer flags and graph-spec integers are range-checked against
    // their destination type: no wrap-around, no partial parse, no
    // sign, and the message names the flag or field.
    const std::pair<const char *, const char *> bad_integers[] = {
        {"--graph rmat:100:400 --nodes 4294967297", "--nodes"},
        {"--graph rmat:100:400 --nodes 8x", "--nodes"},
        {"--graph rmat:100:400 --nodes -1", "--nodes"},
        {"--graph rmat:100:400 --sockets 4294967298", "--sockets"},
        {"--graph rmat:100:400 --fault-retries 4294967296",
         "--fault-retries"},
        {"--graph rmat:100:400 --threads -1", "--threads"},
        {"--graph rmat:100:4x0", "rmat E"},
        {"--graph er:1e3:400", "er V"},
        {"--graph sw:100:k:0.1", "sw k"},
    };
    for (const auto &[flags, name] : bad_integers) {
        const auto bad = runCli(std::string("count --pattern triangle ")
                                + flags);
        EXPECT_EQ(bad.first, 1) << flags;
        EXPECT_NE(bad.second.find(name), std::string::npos)
            << flags << ": " << bad.second;
    }

    // A flag the subcommand never reads is a typo or another
    // subcommand's flag; floating-point values are parsed in full
    // and must be finite (non-negative for times and profiles); a
    // graph spec takes no extra fields.  Each message names the
    // flag or field.
    const std::pair<const char *, const char *> bad_inputs[] = {
        {"count --graph rmat:200:800 --pattern triangle --thread 1",
         "--thread"},
        {"motifs --graph rmat:200:800 --k 7", "--k"},
        {"serve --graph rmat:200:800 --query triangle --pattern house",
         "--pattern"},
        {"count --graph rmat:200:800 --cache-fraction 0.1x",
         "--cache-fraction"},
        {"count --graph rmat:200:800 --cache-fraction abc",
         "--cache-fraction"},
        {"count --graph rmat:200:800 --cache-fraction nan",
         "--cache-fraction"},
        {"count --graph rmat:200:800 --steal-threshold 1e5zz",
         "--steal-threshold"},
        {"count --graph rmat:200:800 --steal-threshold -1",
         "--steal-threshold"},
        {"count --graph rmat:200:800 --deadline -5", "--deadline"},
        {"count --graph rmat:200:800 --deadline inf", "--deadline"},
        {"plan --pattern house --profile-degree -16",
         "--profile-degree"},
        {"plan --pattern house --profile-vertices 1e999",
         "--profile-vertices"},
        {"count --graph rmat:200:800:0.5x", "rmat a"},
        {"count --graph rmat:200:800:0.5:9:junk",
         "rmat:V:E[:a[:seed]]"},
        {"count --graph er:200:800:3:4", "er:V:E[:seed]"},
        {"count --graph sw:200:3:0.1q", "sw beta"},
        {"count --graph standin:mc:2", "standin:<abbr>"},
    };
    for (const auto &[command, name] : bad_inputs) {
        const auto bad = runCli(command);
        EXPECT_EQ(bad.first, 1) << command;
        EXPECT_NE(bad.second.find(name), std::string::npos)
            << command << ": " << bad.second;
        EXPECT_EQ(bad.second.find("stod"), std::string::npos)
            << command << ": " << bad.second;
    }

    // A corrupt binary graph is bad input too, not a crash: a 3-vertex
    // file listing neighbor 7 (once SIGSEGV) and one storing a vector
    // length of 2^61 (once an untyped length error).
    const std::string corrupt = testing::TempDir() + "/cli_corrupt.bin";
    for (const auto &[offsets_length, neighbor, message] :
         {std::tuple{std::uint64_t{4}, 7u, "neighbor 7"},
          std::tuple{std::uint64_t{1} << 61, 1u, "overruns the stream"}}) {
        {
            std::ofstream out(corrupt, std::ios::binary);
            const auto put = [&out](const auto &value) {
                out.write(reinterpret_cast<const char *>(&value),
                          sizeof(value));
            };
            put(std::uint64_t{0x4b48555a44554c31ULL}); // magic
            put(std::uint8_t{0});                      // undirected
            put(std::uint64_t{3});                     // vertices
            put(offsets_length);
            for (const std::uint64_t offset : {0, 2, 4, 6})
                put(offset);
            put(std::uint64_t{6});
            for (const std::uint32_t u : {1u, neighbor, 0u, 2u, 0u, 1u})
                put(u);
            put(std::uint64_t{0}); // no labels
        }
        const auto bad =
            runCli("count --graph " + corrupt + " --pattern triangle");
        EXPECT_EQ(bad.first, 1) << message << ": " << bad.second;
        EXPECT_NE(bad.second.find(message), std::string::npos)
            << bad.second;
    }
    std::remove(corrupt.c_str());
}

TEST(Cli, HelpFlagsAreAcceptedEvenWhenIrrelevant)
{
    // Every flag a subcommand's help lists is read, even when other
    // options make it moot (a cache fraction with --no-cache, a
    // steal threshold with stealing off, labels for FSM).
    const char *commands[] = {
        "count --graph er:200:800:3 --pattern triangle --nodes 2 "
        "--no-cache --cache-fraction 0.2 --steal off "
        "--steal-threshold 5 --fault-retries 2 --deadline 0",
        "motifs --graph er:200:800:3 --size 3 --nodes 2 --steal off "
        "--steal-threshold 5 --checkpoint --deadline 0",
        "fsm --graph er:200:800:3 --labels 2 --label-seed 3 "
        "--support 10 --max-edges 1 --nodes 2",
        "serve --graph er:200:800:3 --query triangle --nodes 2 "
        "--max-in-flight 2 --query-retries 1 --deadline 0 --induced",
        "plan --pattern house --system automine --induced "
        "--profile-vertices 1000 --profile-degree 4",
    };
    for (const char *command : commands) {
        const auto [code, out] = runCli(command);
        EXPECT_EQ(code, 0) << command << ": " << out;
    }
}

} // namespace
