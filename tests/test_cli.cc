/**
 * @file
 * Tests for the edb-trace command-line tool (library form).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "cli/cli.h"
#include "obs/obs.h"
#include "served/client.h"
#include "served/server.h"
#include "trace/index_format.h"
#include "trace/trace_io.h"
#include "workload/workload.h"

namespace edb::cli {
namespace {

/** Temp trace file recorded once and shared by the read commands. */
class CliTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        // Per-process name: ctest runs each case of this suite in its
        // own process, concurrently under -j; a shared fixed path
        // would let one process delete or rewrite the trace while
        // another is reading it.
        path_ = new std::string(::testing::TempDir() +
                                "/edb_cli_test." +
                                std::to_string(::getpid()) + ".trc");
        std::ostringstream out;
        ASSERT_EQ(cmdRecord("bps", *path_, out), 0);
        ASSERT_NE(out.str().find("recorded"), std::string::npos);
    }

    static void
    TearDownTestSuite()
    {
        std::remove(path_->c_str());
        delete path_;
        path_ = nullptr;
    }

    static std::string *path_;
};

std::string *CliTest::path_ = nullptr;

TEST_F(CliTest, InfoSummarizesTrace)
{
    std::ostringstream out;
    EXPECT_EQ(cmdInfo(*path_, out), 0);
    std::string text = out.str();
    EXPECT_NE(text.find("program:       bps"), std::string::npos);
    EXPECT_NE(text.find("total writes:"), std::string::npos);
    EXPECT_NE(text.find("heap)"), std::string::npos);
    EXPECT_EQ(text.find("format:"), std::string::npos);
    EXPECT_NE(text.find("blocks:"), std::string::npos);
    EXPECT_NE(text.find("B/event"), std::string::npos);
    EXPECT_NE(text.find("runs/block"), std::string::npos);
}

/** The trace-level lines of `info`, counted from the whole
 *  materialized trace: the reference the mapped summary must match. */
std::string
materializedInfoHead(const std::string &path)
{
    const trace::Trace t = trace::loadTrace(path);
    std::size_t by_kind[4] = {};
    for (const auto &obj : t.registry.objects())
        ++by_kind[(std::size_t)obj.kind];
    std::size_t counts[3] = {};
    for (const trace::Event &e : t.events)
        ++counts[(std::size_t)e.kind];
    std::ostringstream out;
    out << "program:       " << t.program << "\n"
        << "events:        " << t.events.size() << " (" << counts[0]
        << " installs, " << counts[1] << " removes, " << counts[2]
        << " writes)\n"
        << "total writes:  " << t.totalWrites << "\n"
        << "est. instrs:   " << t.estimatedInstructions << "\n"
        << "functions:     " << t.registry.functionCount() << "\n"
        << "write sites:   " << t.writeSites.size() << "\n"
        << "objects:       " << t.registry.objectCount() << " ("
        << by_kind[0] << " local auto, " << by_kind[1]
        << " local static, " << by_kind[2] << " global, " << by_kind[3]
        << " heap)\n";
    return out.str();
}

TEST_F(CliTest, InfoCountsMatchTheMaterializedTrace)
{
    std::vector<std::string> paths = {*path_};
    for (const char *name :
         {"mini_ghost.v2.trc", "mini_mixed.v2.trc", "mini_scatter.v2.trc",
          "mini_straddle.v2.trc", "mini_writes.v2.trc"}) {
        paths.push_back(std::string(EDB_CORPUS_DIR) + "/" + name);
    }
    for (const std::string &path : paths) {
        std::ostringstream out;
        ASSERT_EQ(cmdInfo(path, out), 0) << path;
        const std::string text = out.str();
        EXPECT_EQ(text.substr(0, text.find("blocks:")),
                  materializedInfoHead(path))
            << path;
    }
}

TEST_F(CliTest, SessionsListsTopByHits)
{
    std::ostringstream out;
    EXPECT_EQ(cmdSessions(*path_, 5, out), 0);
    std::string text = out.str();
    EXPECT_NE(text.find("active monitor sessions"), std::string::npos);
    EXPECT_NE(text.find("AllHeapInFunc"), std::string::npos);
    // Top-5 means at most 5 data rows (+2 header lines + 1 summary).
    std::size_t lines = (std::size_t)std::count(text.begin(),
                                                text.end(), '\n');
    EXPECT_LE(lines, 9u);
}

TEST_F(CliTest, AnalyzePrintsAllStrategies)
{
    std::ostringstream out;
    EXPECT_EQ(cmdAnalyze(*path_, out), 0);
    std::string text = out.str();
    for (const char *needle :
         {"NH", "VM-4K", "VM-8K", "TP", "CP", "T-Mean", "98%"}) {
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
    }
}

TEST_F(CliTest, SessionDissectsByName)
{
    std::ostringstream out, err;
    EXPECT_EQ(cmdSession(*path_, "open_size", out, err), 0);
    std::string text = out.str();
    EXPECT_NE(text.find("OneGlobalStatic(open_size)"),
              std::string::npos);
    EXPECT_NE(text.find("active-page misses"), std::string::npos);
    EXPECT_NE(text.find("CodePatch"), std::string::npos);
}

TEST_F(CliTest, SessionReportsMissingMatch)
{
    std::ostringstream out, err;
    EXPECT_EQ(cmdSession(*path_, "no_such_variable_xyz", out, err), 1);
    EXPECT_NE(err.str().find("no active session"), std::string::npos);
}

TEST_F(CliTest, AdviseRanksStrategiesPerSession)
{
    std::ostringstream out;
    EXPECT_EQ(cmdAdvise(*path_, 5, out), 0);
    std::string text = out.str();
    // Aggregate table: adaptive + every fixed strategy with pick
    // counts, plus the hardware-feasibility note.
    for (const char *needle :
         {"Adaptive", "NativeHardware", "CodePatch", "Picked",
          "4-register hardware"}) {
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
    }
    // Per-session detail columns.
    for (const char *needle : {"Hits", "Peak", "Best", "Rel"})
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
}

TEST_F(CliTest, RunDispatchesAdvise)
{
    std::ostringstream out, err;
    EXPECT_EQ(run({"advise", *path_, "3"}, out, err), 0);
    EXPECT_NE(out.str().find("Adaptive"), std::string::npos);

    // Wrong arity still yields usage.
    out.str("");
    err.str("");
    EXPECT_EQ(run({"advise"}, out, err), 2);
    EXPECT_NE(err.str().find("usage:"), std::string::npos);
}

/** The "matches: N ..." line of a query table/json rendering. */
std::string
matchesLine(const std::string &text)
{
    const std::size_t at = text.find("matches");
    EXPECT_NE(at, std::string::npos) << text;
    if (at == std::string::npos)
        return {};
    return text.substr(at, text.find('\n', at) - at);
}

TEST_F(CliTest, QueryCountsEveryEventByDefault)
{
    std::ostringstream out, err;
    EXPECT_EQ(run({"query", *path_}, out, err), 0) << err.str();
    const std::string text = out.str();
    EXPECT_NE(text.find("program: bps"), std::string::npos);
    EXPECT_NE(text.find("(agg count)"), std::string::npos);
    // A v2 input goes through the pushdown planner, which reports its
    // per-block dispositions.
    EXPECT_NE(text.find("total,"), std::string::npos);
    EXPECT_NE(text.find("writes pruned"), std::string::npos);

    // The unfiltered count must equal the recorded event total that
    // `info` reports, not just be nonzero.
    std::ostringstream info;
    ASSERT_EQ(cmdInfo(*path_, info), 0);
    const std::string itext = info.str();
    std::size_t at = itext.find("events:");
    ASSERT_NE(at, std::string::npos);
    at = itext.find_first_of("0123456789", at);
    ASSERT_NE(at, std::string::npos);
    const std::string events =
        itext.substr(at, itext.find(' ', at) - at);
    EXPECT_NE(text.find("matches: " + events + " "),
              std::string::npos)
        << "query: " << matchesLine(text) << " info: " << events;
}

TEST_F(CliTest, QueryJsonIsStableAndMachineReadable)
{
    const std::vector<std::string> args = {
        "query",  *path_, "--kind",   "write", "--agg",
        "top-pages", "--k", "3", "--format", "json"};
    std::ostringstream out1, out2, err;
    EXPECT_EQ(run(args, out1, err), 0) << err.str();
    EXPECT_EQ(run(args, out2, err), 0) << err.str();
    // Byte-stable across runs: scripts may diff or cache it.
    EXPECT_EQ(out1.str(), out2.str());
    const std::string text = out1.str();
    EXPECT_EQ(text.rfind("{\"schema\":\"edb-query-v1\"", 0), 0u);
    EXPECT_EQ(text.back(), '\n');
    for (const char *needle :
         {"\"agg\":\"top-pages\"", "\"matches\":", "\"blocks\":",
          "\"pages\":[", "\"writes_pruned\":"}) {
        EXPECT_NE(text.find(needle), std::string::npos) << needle;
    }
}

TEST_F(CliTest, QueryJobsFlagAcceptedWithIdenticalAnswers)
{
    std::ostringstream serial, threaded, err;
    EXPECT_EQ(run({"query", *path_, "--kind", "write"}, serial, err),
              0);
    EXPECT_EQ(run({"query", "--jobs", "4", *path_, "--kind", "write"},
                  threaded, err),
              0)
        << err.str();
    // Block dispositions may differ across jobs levels; the answer
    // must not.
    EXPECT_EQ(matchesLine(serial.str()), matchesLine(threaded.str()));
    EXPECT_NE(threaded.str().find("(jobs 4)"), std::string::npos);
}

TEST_F(CliTest, QueryParseErrorsExitTwoWithUsage)
{
    const std::vector<std::vector<std::string>> bad = {
        {"--kind", "bogus"},
        {"--addr", "9:5"},       // inverted
        {"--addr", "zzz"},       // unparseable
        {"--index", "5:5"},      // empty window
        {"--aux", "not-a-number"},
        {"--agg", "median"},
        {"--format", "xml"},
        {"--limit"},             // missing value
        {"--frobnicate", "1"},   // unknown option
        {"--agg", "by-session"}, // needs --session (validateSpec)
        {"--min-size", "9", "--max-size", "1"},
    };
    for (const std::vector<std::string> &extra : bad) {
        std::vector<std::string> args = {"query", *path_};
        args.insert(args.end(), extra.begin(), extra.end());
        std::ostringstream out, err;
        EXPECT_EQ(run(args, out, err), 2) << extra[0];
        EXPECT_NE(err.str().find("error:"), std::string::npos)
            << extra[0];
        EXPECT_NE(err.str().find("usage:"), std::string::npos)
            << extra[0];
    }
}

TEST_F(CliTest, QuerySessionNeedleWithoutMatchFails)
{
    std::ostringstream out, err;
    EXPECT_EQ(run({"query", *path_, "--session", "no_such_object_xyz"},
                  out, err),
              1);
    EXPECT_NE(err.str().find("no session matches"), std::string::npos);
}

TEST(CliRun, HelpPrintsUsageToStdout)
{
    for (const char *flag : {"--help", "-h"}) {
        std::ostringstream out, err;
        EXPECT_EQ(run({flag}, out, err), 0) << flag;
        EXPECT_NE(out.str().find("usage:"), std::string::npos) << flag;
        EXPECT_TRUE(err.str().empty()) << flag;
    }
    // --help wins even alongside a command.
    std::ostringstream out, err;
    EXPECT_EQ(run({"record", "--help"}, out, err), 0);
    EXPECT_NE(out.str().find("usage:"), std::string::npos);
}

TEST(CliRun, JobsRejectedOnPhase1Commands)
{
    // --jobs selects phase-2 simulation workers; on record/info it
    // would silently do nothing, so it must be an error.
    for (const char *cmd : {"record", "info"}) {
        std::ostringstream out, err;
        EXPECT_EQ(run({cmd, "--jobs", "2", "x"}, out, err), 2) << cmd;
        EXPECT_NE(err.str().find("--jobs does not apply"),
                  std::string::npos)
            << cmd;
        EXPECT_NE(err.str().find(cmd), std::string::npos) << cmd;
    }
}

TEST(CliRun, ObsFlagsRejectedOnPhase1Commands)
{
    // Same phase-1 rule as --jobs: the obs export points cover the
    // phase-2 stage only.
    for (const char *flag : {"--obs-json", "--trace-events"}) {
        for (const char *cmd : {"record", "info"}) {
            std::ostringstream out, err;
            EXPECT_EQ(run({cmd, flag, "x.json", "t.trc"}, out, err), 2)
                << cmd << " " << flag;
            EXPECT_NE(err.str().find("does not apply"),
                      std::string::npos)
                << cmd << " " << flag;
        }
    }
}

TEST(CliRun, ObsFlagsRequireAPath)
{
    for (const char *flag : {"--obs-json", "--trace-events"}) {
        std::ostringstream out, err;
        EXPECT_EQ(run({"analyze", "t.trc", flag}, out, err), 2) << flag;
        EXPECT_NE(err.str().find("needs a path"), std::string::npos)
            << flag;
        // An empty path is as useless as a missing one.
        err.str("");
        EXPECT_EQ(run({"analyze", "t.trc", flag, ""}, out, err), 2)
            << flag;
    }
}

#if EDB_OBS_ENABLED
TEST_F(CliTest, ObsJsonSnapshotWrittenAfterAnalyze)
{
    const std::string snap_path = ::testing::TempDir() +
                                  "/edb_cli_obs." +
                                  std::to_string(::getpid()) + ".json";
    std::ostringstream out, err;
    EXPECT_EQ(run({"--obs-json", snap_path, "analyze", *path_}, out,
                  err),
              0);
    std::ifstream in(snap_path);
    ASSERT_TRUE(in.is_open());
    std::stringstream body;
    body << in.rdbuf();
    EXPECT_NE(body.str().find("edb-obs-snapshot-v2"),
              std::string::npos);
    EXPECT_NE(body.str().find("sim.replay.writes"), std::string::npos);
    std::remove(snap_path.c_str());
}

TEST_F(CliTest, TraceEventsFileWrittenAfterAnalyze)
{
    const std::string tev_path = ::testing::TempDir() +
                                 "/edb_cli_tev." +
                                 std::to_string(::getpid()) + ".json";
    std::ostringstream out, err;
    EXPECT_EQ(run({"--trace-events", tev_path, "analyze", *path_}, out,
                  err),
              0);
    std::ifstream in(tev_path);
    ASSERT_TRUE(in.is_open());
    std::stringstream body;
    body << in.rdbuf();
    EXPECT_EQ(body.str().rfind("{\"traceEvents\": [", 0), 0u);
    EXPECT_NE(body.str().find("study.simulate"), std::string::npos);
    std::remove(tev_path.c_str());
}

TEST_F(CliTest, AnalyzeHasOneRootSpanHoldingEveryOther)
{
    // A fresh edb-trace process, so the file holds this command's
    // spans only (the trace sink is process-wide).
    const std::string tev_path = ::testing::TempDir() +
                                 "/edb_cli_root." +
                                 std::to_string(::getpid()) + ".json";
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        const int null = ::open("/dev/null", O_WRONLY);
        ::dup2(null, STDOUT_FILENO);
        ::execl(EDB_TRACE_BIN, EDB_TRACE_BIN, "--trace-events",
                tev_path.c_str(), "analyze", path_->c_str(),
                (char *)nullptr);
        ::_exit(127);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);
    std::ifstream body(tev_path);
    ASSERT_TRUE(body.is_open());

    // Pair each thread's B/E events into spans.
    struct Span
    {
        std::string name;
        double begin = 0;
        double end = 0;
    };
    std::vector<Span> spans;
    std::map<std::string, std::vector<Span>> stacks; // by tid
    const auto field = [](const std::string &line, const char *key) {
        const std::string k = std::string("\"") + key + "\": ";
        const std::size_t at = line.find(k);
        EXPECT_NE(at, std::string::npos) << line;
        std::string v = line.substr(at + k.size());
        v = v.substr(0, v.find_first_of(",}"));
        if (!v.empty() && v.front() == '"')
            v = v.substr(1, v.size() - 2);
        return v;
    };
    for (std::string line; std::getline(body, line);) {
        if (line.find("\"ph\": ") == std::string::npos)
            continue;
        const double ts = std::stod(field(line, "ts"));
        std::vector<Span> &stack = stacks[field(line, "tid")];
        if (field(line, "ph") == "B") {
            stack.push_back({field(line, "name"), ts, ts});
        } else {
            ASSERT_FALSE(stack.empty()) << line;
            stack.back().end = ts;
            spans.push_back(stack.back());
            stack.pop_back();
        }
    }
    std::remove(tev_path.c_str());

    // Exactly one span lies inside no other, and it holds them all.
    std::vector<const Span *> roots;
    for (const Span &a : spans) {
        bool inside = false;
        for (const Span &b : spans) {
            inside |= &a != &b && b.begin <= a.begin && a.end <= b.end &&
                      (b.end - b.begin) > (a.end - a.begin);
        }
        if (!inside)
            roots.push_back(&a);
    }
    ASSERT_EQ(roots.size(), 1u);
    EXPECT_EQ(roots[0]->name, "edb-trace.analyze");
    for (const char *name : {"trace.load", "study.enumerate",
                             "study.simulate", "study.shapes",
                             "study.advise", "report.print"}) {
        EXPECT_EQ(std::count_if(spans.begin(), spans.end(),
                                [&](const Span &sp) {
                                    return sp.name == name;
                                }),
                  1)
            << name;
    }
}
#else
TEST(CliRun, ObsFlagsWarnWhenCompiledOut)
{
    std::ostringstream out, err;
    // Dispatch still fails on the missing trace, but the warning must
    // have announced the ignored flag first.
    (void)run({"--obs-json", "x.json", "analyze", "no_such.trc"}, out,
              err);
    EXPECT_NE(err.str().find("EDB_OBS=OFF"), std::string::npos);
}
#endif

TEST_F(CliTest, RunDispatchesAndValidates)
{
    std::ostringstream out, err;
    // No args: usage, exit 2.
    EXPECT_EQ(run({}, out, err), 2);
    EXPECT_NE(err.str().find("usage:"), std::string::npos);

    // Unknown command: usage, exit 2.
    err.str("");
    EXPECT_EQ(run({"frobnicate"}, out, err), 2);

    // Wrong arity: usage, exit 2.
    err.str("");
    EXPECT_EQ(run({"info"}, out, err), 2);

    // Valid dispatch.
    out.str("");
    err.str("");
    EXPECT_EQ(run({"info", *path_}, out, err), 0);
    EXPECT_NE(out.str().find("program:"), std::string::npos);

    // sessions with explicit N.
    out.str("");
    EXPECT_EQ(run({"sessions", *path_, "3"}, out, err), 0);
}

TEST_F(CliTest, InfoReportsAnOlderSidecarVersionAsRejected)
{
    // A sidecar written before the current version (here version 1,
    // which also carried page postings) is rejected by the reader;
    // info says so instead of describing it.
    const trace::MappedTrace mapped(*path_);
    trace::TraceIndex idx = trace::buildTraceIndex(mapped);
    idx.version = trace::traceIndexVersion - 1;
    const std::string sidecar = trace::traceIndexPathFor(*path_);
    trace::saveTraceIndex(idx, sidecar);
    std::ostringstream out;
    EXPECT_EQ(cmdInfo(*path_, out), 0);
    std::remove(sidecar.c_str());
    EXPECT_NE(out.str().find("REJECTED: sidecar index version"),
              std::string::npos)
        << out.str();
}

TEST_F(CliTest, InfoReportsADirectoryAtTheSidecarPathAsRejected)
{
    const std::vector<std::string> query = {"query", *path_, "--kind",
                                            "write", "--agg", "count"};
    std::ostringstream plain, perr;
    ASSERT_EQ(run(query, plain, perr), 0) << perr.str();

    const std::string sidecar = trace::traceIndexPathFor(*path_);
    ASSERT_EQ(::mkdir(sidecar.c_str(), 0700), 0);
    std::ostringstream out, err, qout, qerr;
    const int info = run({"info", *path_}, out, err);
    const int queried = run(query, qout, qerr);
    ::rmdir(sidecar.c_str());
    EXPECT_EQ(info, 0) << err.str();
    EXPECT_NE(out.str().find("REJECTED: sidecar index"), std::string::npos)
        << out.str();
    EXPECT_EQ(queried, 0) << qerr.str();
    EXPECT_EQ(qout.str(), plain.str());
}

TEST_F(CliTest, RowCountOfSessionsAndAdviseIsValidated)
{
    for (const char *cmd : {"sessions", "advise"}) {
        for (const char *bad : {"abc", "-1", "5x", "0", "", "+3",
                                "99999999999999999999999"}) {
            std::ostringstream out, err;
            EXPECT_EQ(run({cmd, *path_, bad}, out, err), 2)
                << cmd << " '" << bad << "'";
            EXPECT_NE(err.str().find("invalid row count"),
                      std::string::npos)
                << cmd << " '" << bad << "': " << err.str();
            EXPECT_EQ(out.str(), "") << cmd << " '" << bad << "'";
        }
    }
    // "0x3" is hex, as for every other integer argument.
    std::ostringstream out, err;
    EXPECT_EQ(run({"sessions", *path_, "0x3"}, out, err), 0);
    std::ostringstream three;
    EXPECT_EQ(run({"sessions", *path_, "3"}, three, err), 0);
    EXPECT_EQ(out.str(), three.str());
}

// ---- daemon-facing commands: top and connect metrics ---------------

/** One in-process edb-served daemon shared by the top/metrics tests
 *  (each ctest process boots its own on a pid-unique socket). */
class CliServedTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        served::ServerOptions options;
        options.socketPath = ::testing::TempDir() + "/edb_cli_top." +
                             std::to_string(::getpid()) + ".sock";
        server_ = std::make_unique<served::Server>(options);
        server_->start();
    }

    void
    TearDown() override
    {
        server_->stop();
        server_.reset();
    }

    std::unique_ptr<served::Server> server_;
};

TEST_F(CliServedTest, TopOnceJsonIsMachineReadable)
{
    std::ostringstream out, err;
    ASSERT_EQ(run({"top", server_->socketPath(), "--once", "--format",
                   "json"},
                  out, err),
              0)
        << err.str();
    // The raw edb-metrics-v2 document, one per poll, for CI scripts.
    EXPECT_NE(out.str().find("\"schema\": \"edb-metrics-v2\""),
              std::string::npos);
    EXPECT_EQ(out.str().back(), '\n');
    // --once means exactly one document.
    EXPECT_EQ(out.str().find("edb-metrics-v2"),
              out.str().rfind("edb-metrics-v2"));
}

TEST_F(CliServedTest, TopTableRendersWithoutAnsiWhenOnce)
{
    std::ostringstream out, err;
    ASSERT_EQ(run({"top", server_->socketPath(), "--once", "--interval",
                   "50"},
                  out, err),
              0)
        << err.str();
    EXPECT_NE(out.str().find("edb-served metrics:"),
              std::string::npos);
    // --once never clears the screen (pipeline-friendly).
    EXPECT_EQ(out.str().find('\x1b'), std::string::npos);
#if EDB_OBS_ENABLED
    // Even the only frame has rates: a baseline scrape one interval
    // earlier timed a METRICS request for the op table.
    EXPECT_NE(out.str().find("rates over"), std::string::npos);
    EXPECT_NE(out.str().find("Req/s"), std::string::npos);
#endif
}

TEST_F(CliServedTest, TopCountTwoRefreshesClearTheScreen)
{
    std::ostringstream out, err;
    ASSERT_EQ(run({"top", server_->socketPath(), "--count", "2",
                   "--interval", "10"},
                  out, err),
              0)
        << err.str();
    // Two frames, each preceded by one ANSI clear-screen sequence.
    int clears = 0;
    for (std::size_t at = out.str().find("\x1b[2J");
         at != std::string::npos;
         at = out.str().find("\x1b[2J", at + 1)) {
        ++clears;
    }
    EXPECT_EQ(clears, 2);
#if EDB_OBS_ENABLED
    // The second frame sees the first poll's own timed METRICS
    // request in the per-op latency table.
    EXPECT_NE(out.str().find("METRICS"), std::string::npos);
#endif
}

#if EDB_OBS_ENABLED
TEST_F(CliServedTest, TopRatesComeFromItsOwnScrapes)
{
    // A client issues STATS requests all through the run, so the
    // second frame's STATS row counts some between its two scrapes.
    std::atomic<bool> done{false};
    std::thread load([&] {
        served::Client c;
        c.connect(server_->socketPath());
        while (!done.load()) {
            c.stats();
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    });
    std::ostringstream out, err;
    const int rc = run({"top", server_->socketPath(), "--count", "2",
                        "--interval", "50"},
                       out, err);
    done = true;
    load.join();
    ASSERT_EQ(rc, 0) << err.str();

    const std::string text = out.str();
    const std::size_t frame = text.rfind("\x1b[2J");
    ASSERT_NE(frame, std::string::npos);
    const std::size_t row = text.find("\nSTATS ", frame);
    ASSERT_NE(row, std::string::npos) << text.substr(frame);
    std::istringstream cells(text.substr(row + 1));
    std::string op;
    double req_per_s = 0;
    cells >> op >> req_per_s;
    EXPECT_EQ(op, "STATS");
    EXPECT_GT(req_per_s, 0.0) << text.substr(frame);
}
#endif

TEST_F(CliServedTest, TopValidatesItsOptions)
{
    std::ostringstream out, err;
    EXPECT_EQ(run({"top", server_->socketPath(), "--interval", "0"},
                  out, err),
              2);
    err.str("");
    EXPECT_EQ(run({"top", server_->socketPath(), "--format", "xml"},
                  out, err),
              2);
    EXPECT_NE(err.str().find("table|json"), std::string::npos);
    err.str("");
    EXPECT_EQ(run({"top", server_->socketPath(), "--bogus", "1"}, out,
                  err),
              2);
    // Global phase-2 flags are rejected, like connect.
    err.str("");
    EXPECT_EQ(run({"top", "--jobs", "2", server_->socketPath()}, out,
                  err),
              2);
    EXPECT_NE(err.str().find("does not apply"), std::string::npos);
}

TEST_F(CliServedTest, ConnectMetricsWritesExposition)
{
    const std::string prom_path = ::testing::TempDir() +
                                  "/edb_cli_prom." +
                                  std::to_string(::getpid()) + ".txt";
    std::ostringstream out, err;
    ASSERT_EQ(run({"connect", server_->socketPath(), "metrics",
                   prom_path},
                  out, err),
              0)
        << err.str();
    EXPECT_NE(out.str().find("Prometheus exposition"),
              std::string::npos);

    std::ifstream in(prom_path);
    ASSERT_TRUE(in.is_open());
    std::stringstream body;
    body << in.rdbuf();
#if EDB_OBS_ENABLED
    EXPECT_NE(body.str().find("# HELP "), std::string::npos);
    EXPECT_NE(body.str().find("edb_served_hellos"),
              std::string::npos);
#else
    // Empty-but-valid exposition when the layer is compiled away.
    EXPECT_NE(body.str().find("disabled"), std::string::npos);
#endif
    std::remove(prom_path.c_str());
}

TEST(CliUsage, MentionsEveryCommand)
{
    std::string text = usage();
    for (const char *cmd :
         {"record", "info", "index", "sessions", "analyze", "session",
          "advise", "query", "connect", "top", "metrics", "--interval",
          "--once", "--agg", "--format", "--help", "EDB_PROFILE"}) {
        EXPECT_NE(text.find(cmd), std::string::npos) << cmd;
    }
}

/** A temp trace path unique to this test process and `tag`. */
std::string
tempTracePath(const char *tag)
{
    return ::testing::TempDir() + "/edb_cli_" + tag + "." +
           std::to_string(::getpid()) + ".trc";
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
}

TEST(CliRecord, BadOutputPathFailsWithoutAFile)
{
    const std::string path = "/no/such/dir/x.trc";
    std::ostringstream out, err;
    EXPECT_EQ(run({"record", "gcc", path}, out, err), 1);
    EXPECT_NE(err.str().find("cannot open '" + path + "' for writing"),
              std::string::npos)
        << err.str();
    EXPECT_EQ(out.str().find("recorded"), std::string::npos);
    struct stat st;
    EXPECT_NE(::stat(path.c_str(), &st), 0);
}

TEST(CliRecord, WritesWhatRunTracedAndSaveTraceWrite)
{
    // record streams blocks through TraceWriter; the file and the
    // summary line must be those of the materialized path.
    const std::string rec = tempTracePath("rec");
    const std::string ref = tempTracePath("ref");
    for (std::string_view name : workload::workloadNames()) {
        SCOPED_TRACE(name);
        std::ostringstream out;
        ASSERT_EQ(cmdRecord(std::string(name), rec, out), 0);
        std::uint64_t checksum = 0;
        const trace::Trace t =
            workload::runTraced(*workload::makeWorkload(name), &checksum);
        trace::saveTrace(t, ref);
        EXPECT_TRUE(fileBytes(rec) == fileBytes(ref));
        std::ostringstream want;
        want << "recorded " << t.totalWrites << " writes ("
             << t.events.size() << " events, "
             << t.registry.objectCount() << " objects) to " << rec
             << "\nworkload checksum: " << checksum << "\n";
        EXPECT_EQ(out.str(), want.str());
    }
    std::remove(rec.c_str());
    std::remove(ref.c_str());
}

TEST(CliRecord, GccPeaksUnder30MiB)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "sanitizer shadow memory inflates the peak";
#endif
    // A forked child starts with this process's resident pages, and
    // its ru_maxrss keeps them past exec: measure only from a small
    // process, as ctest's one-case-per-process runs are.
    constexpr long limitKiB = 30 * 1024;
    long pages = 0, resident = 0;
    std::ifstream("/proc/self/statm") >> pages >> resident;
    const long residentKiB = resident * (::sysconf(_SC_PAGESIZE) / 1024);
    if (residentKiB > limitKiB / 2) {
        GTEST_SKIP() << "this process already holds " << residentKiB
                     << " KiB; run the case alone";
    }

    const std::string path = tempTracePath("rss");
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        const int null = ::open("/dev/null", O_WRONLY);
        ::dup2(null, STDOUT_FILENO);
        ::execl(EDB_TRACE_BIN, EDB_TRACE_BIN, "record", "gcc", path.c_str(),
                (char *)nullptr);
        ::_exit(127);
    }
    int status = 0;
    struct rusage ru = {};
    ASSERT_EQ(::wait4(pid, &status, 0, &ru), pid);
    std::remove(path.c_str());
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);
    // Without streaming, the events alone are 87 MB.
    EXPECT_LE(ru.ru_maxrss, limitKiB) << "KiB peak";
}

} // namespace
} // namespace edb::cli
