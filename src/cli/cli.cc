/**
 * @file
 * Implementation of the edb-trace tool commands.
 */

#include "cli/cli.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <ostream>
#include <thread>

#include "calib/calibrate.h"
#include "model/models.h"
#include "obs/obs.h"
#include "query/query.h"
#include "report/study.h"
#include "report/table.h"
#include "served/client.h"
#include "session/session.h"
#include "sim/parallel_sim.h"
#include "telemetry/report.h"
#include "trace/index_format.h"
#include "trace/trace_io.h"
#include "util/json.h"
#include "util/thread_pool.h"
#include "workload/workload.h"

namespace edb::cli {

namespace {

/** Timing profile selection shared by analyze/session. */
model::TimingProfile
selectedProfile()
{
    const char *env = std::getenv("EDB_PROFILE");
    if (env && std::strcmp(env, "host") == 0)
        return calib::measureHostProfile();
    return model::sparcStation2();
}

#if EDB_OBS_ENABLED
/** The root span name of `cmd`, "edb-trace.<cmd>" ("edb-trace" for
 *  an unknown command). Spans keep the pointer, so it is a literal. */
const char *
rootSpanName(const std::string &cmd)
{
    static constexpr const char *names[] = {
        "edb-trace.record",  "edb-trace.info",    "edb-trace.index",
        "edb-trace.sessions", "edb-trace.analyze", "edb-trace.session",
        "edb-trace.advise",  "edb-trace.query",   "edb-trace.connect",
        "edb-trace.top"};
    for (const char *name : names) {
        if (cmd == name + std::strlen("edb-trace."))
            return name;
    }
    return "edb-trace";
}
#endif

/** Run the phase-2 simulator with the selected degree of parallelism. */
sim::SimResult
simulateWithJobs(const trace::Trace &trace,
                 const session::SessionSet &sessions, unsigned jobs)
{
    if (jobs == 1)
        return sim::simulate(trace, sessions);
    sim::ParallelOptions opts;
    opts.jobs = jobs;
    return sim::parallelSimulate(trace, sessions, opts);
}

/** Fixed-point "12.34" without <iomanip> stream state. */
std::string
fmtRatio(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", v);
    return buf;
}

} // namespace

const char *
usage()
{
    return "usage: edb-trace <command> [args]\n"
           "\n"
           "commands:\n"
           "  record <workload> <out.trc>  trace one benchmark "
           "workload (gcc|ctex|spice|qcd|bps)\n"
           "  info <trace.trc>             summarize a trace file "
           "(incl. block stats)\n"
           "  index <trace.trc> [out.edbi] build the sidecar planning "
           "index for a trace\n"
           "                               (auto-discovered next to "
           "the trace on later opens)\n"
           "  sessions <trace.trc> [N]     list the top-N monitor "
           "sessions by hits (default 20)\n"
           "  analyze <trace.trc>          per-strategy relative "
           "overhead statistics\n"
           "  session <trace.trc> <substr> counting variables + "
           "overheads for one session\n"
           "  advise <trace.trc> [N]       recommend the cheapest "
           "feasible strategy per session\n"
           "                               (adaptive vs fixed "
           "aggregate + top-N detail, default 20)\n"
           "  query <trace.trc> [opts]     count/aggregate events "
           "matching predicates, pruning\n"
           "                               blocks via the page "
           "summaries\n"
           "  connect <socket> [opts] [script]\n"
           "                               drive a running edb-served "
           "daemon as one tenant\n"
           "  top <socket> [opts]          poll the daemon's METRICS "
           "op and render per-tenant\n"
           "                               rates and per-op latency "
           "quantiles as a live table\n"
           "\n"
           "connect options and script commands:\n"
           "  --tenant NAME      tenant name sent in HELLO "
           "(default cli)\n"
           "  --stats-json PATH  write the server's obs snapshot "
           "(from `stats`) to PATH\n"
           "  open PATH | install B:E | remove ID | enable ID | "
           "disable ID\n"
           "  subscribe on|off | run TRACE [I,J,..] | resume | "
           "events N\n"
           "  query TRACE [B:E] | stats | metrics PATH | bye\n"
           "                     (commands run in order; bye is "
           "implied; metrics writes\n"
           "                     the Prometheus exposition to PATH)\n"
           "\n"
           "top options:\n"
           "  --interval MS      polling period (default 2000)\n"
           "  --count N          stop after N refreshes (default: "
           "until interrupted)\n"
           "  --once             one frame, no screen clearing "
           "(same as --count 1)\n"
           "  --format F         table|json (default table; json "
           "prints the daemon's\n"
           "                     edb-metrics-v2 document verbatim, "
           "one per poll)\n"
           "                     table rates are the change between "
           "two scrapes one\n"
           "                     interval apart\n"
           "\n"
           "query options:\n"
           "  --kind K           install|remove|write (repeatable; "
           "default: all kinds)\n"
           "  --addr B:E         match events touching byte range "
           "[B, E) (repeatable; 0x ok)\n"
           "  --session SUBSTR   restrict to sessions whose "
           "description contains SUBSTR\n"
           "                     (repeatable; writes match via live "
           "monitored objects)\n"
           "  --aux N            match events whose aux word is N: "
           "object id for\n"
           "                     install/remove, write-site id for "
           "writes (repeatable)\n"
           "  --index B:E        global event-index window [B, E)\n"
           "  --min-size N       least event size in bytes "
           "(default 0)\n"
           "  --max-size N       greatest event size in bytes\n"
           "  --agg A            count|by-page|by-session|top-pages|"
           "first|last|rows\n"
           "                     (default count)\n"
           "  --k N              pages reported by top-pages "
           "(default 10)\n"
           "  --limit N          rows materialized by rows "
           "(default 100)\n"
           "  --format F         table|json (default table)\n"
           "\n"
           "options:\n"
           "  --jobs N, -j N     phase-2 worker threads "
           "(sessions/analyze/session/advise/query);\n"
           "                     0 = one per hardware thread, "
           "default 1\n"
           "  --obs-json PATH    write an edb::obs counter/histogram "
           "snapshot (JSON) after the\n"
           "                     command (phase-2 commands; needs "
           "EDB_OBS=ON builds)\n"
           "  --trace-events PATH\n"
           "                     capture Chrome trace-event spans "
           "(load in chrome://tracing\n"
           "                     or Perfetto; phase-2 commands, "
           "EDB_OBS=ON builds)\n"
           "  --help, -h         print this message and exit\n"
           "\n"
           "environment:\n"
           "  EDB_PROFILE=host   use timing constants measured on "
           "this host instead of the\n"
           "                     paper's SPARCstation 2 values\n"
           "  EDB_JOBS=N         default for --jobs 0 and the bench "
           "binaries\n"
           "  EDB_OBS_JSON=PATH  write the obs snapshot at process "
           "exit (any command)\n"
           "  EDB_LOG_LEVEL=L    least severe log level to print "
           "(info|warn|error)\n"
           "  EDB_SIMD=ISA       pin the vectorized-kernel "
           "instruction set\n"
           "                     (off|scalar|avx2|neon|auto; "
           "default auto, unsupported\n"
           "                     choices degrade to scalar)\n";
}

int
cmdRecord(const std::string &workload, const std::string &path,
          std::ostream &out)
{
    auto w = workload::makeWorkload(workload);
    // Open before tracing, so a bad path fails at once. Blocks are
    // encoded as they fill: the process holds the encoded file, not
    // the events.
    std::ofstream os = trace::openTraceFile(path);
    trace::TraceWriter writer;
    std::uint64_t checksum = 0;
    const trace::Trace trace = workload::runTraced(*w, writer, &checksum);
    writer.finish(trace, os);
    trace::closeTraceFile(os, path);
    out << "recorded " << trace.totalWrites << " writes ("
        << writer.eventCount() << " events, "
        << trace.registry.objectCount() << " objects) to " << path
        << "\nworkload checksum: " << checksum << "\n";
    return 0;
}

int
cmdInfo(const std::string &path, std::ostream &out)
{
    // Everything here comes from the mapped header, block index and
    // control columns: no write payload is decoded.
    const trace::MappedTrace mapped(path);
    const trace::ObjectRegistry &registry = mapped.registry();

    std::size_t by_kind[4] = {};
    for (const auto &obj : registry.objects())
        ++by_kind[(std::size_t)obj.kind];

    std::uint64_t installs = 0;
    std::uint64_t removes = 0;
    std::uint64_t pure = 0;
    std::uint64_t summary_runs = 0;
    std::uint64_t summary_pages = 0;
    std::vector<trace::Event> controls;
    for (std::size_t b = 0; b < mapped.blockCount(); ++b) {
        const auto &blk = mapped.block(b);
        if (blk.pureWrites()) {
            ++pure;
        } else {
            controls.resize((std::size_t)blk.controls());
            mapped.decodeBlockControl(b, controls.data());
            for (const trace::Event &e : controls) {
                ++(e.kind == trace::EventKind::InstallMonitor ? installs
                                                              : removes);
            }
        }
        summary_runs += blk.runs.size();
        for (const auto &r : blk.runs)
            summary_pages += r.pages;
    }

    out << "program:       " << mapped.program() << "\n"
        << "events:        " << mapped.eventCount() << " (" << installs
        << " installs, " << removes << " removes, "
        << mapped.totalWrites() << " writes)\n"
        << "total writes:  " << mapped.totalWrites() << "\n"
        << "est. instrs:   " << mapped.estimatedInstructions() << "\n"
        << "functions:     " << registry.functionCount() << "\n"
        << "write sites:   " << mapped.writeSites().size() << "\n"
        << "objects:       " << registry.objectCount() << " ("
        << by_kind[0] << " local auto, " << by_kind[1]
        << " local static, " << by_kind[2] << " global, " << by_kind[3]
        << " heap)\n";

    const std::uint64_t n = mapped.blockCount();
    const std::uint64_t bytes = mapped.fileBytes();
    const std::uint64_t raw =
        mapped.eventCount() * (std::uint64_t)sizeof(trace::Event);
    out << "blocks:        " << n << " (largest "
        << mapped.largestBlockEvents() << " events, " << pure
        << " pure-write)\n"
        << "file bytes:    " << bytes << " ("
        << fmtRatio(n ? (double)bytes / (double)mapped.eventCount()
                      : 0.0)
        << " B/event, "
        << fmtRatio(bytes ? (double)raw / (double)bytes : 0.0)
        << "x vs raw events)\n"
        << "summary:       "
        << fmtRatio(n ? (double)summary_runs / (double)n : 0.0)
        << " runs/block, "
        << fmtRatio(n ? (double)summary_pages / (double)n : 0.0)
        << " pages/block (" << (trace::summaryPageBytes / 1024)
        << " KiB pages)\n";

    // Sidecar index report: read the .edbi directly (bypassing the env
    // pin and auto-discovery) so a stale or corrupt sidecar is still
    // described rather than silently ignored.
    const std::string sidecar = trace::traceIndexPathFor(path);
    if (std::ifstream(sidecar, std::ios::binary).good()) {
        try {
            trace::TraceIndex idx = trace::loadTraceIndex(sidecar);
            const bool fresh = idx.traceDigest == mapped.contentDigest() &&
                               idx.traceBytes == bytes;
            out << "index:         " << sidecar << " (v" << idx.version
                << ", "
                << (fresh ? "digest match" : "STALE: digest mismatch")
                << ")\n"
                << "index layout:  " << idx.extents.size() << " extents\n"
                << "index bytes:   " << idx.fileBytes << " (header "
                << idx.bytesHeader << ", extents " << idx.bytesExtents
                << ")\n";
        } catch (const trace::TraceError &e) {
            // Corrupt, or written by another sidecar version.
            out << "index:         " << sidecar
                << " (REJECTED: " << e.what() << ")\n";
        }
    } else {
        out << "index:         none (run `edb-trace index " << path
            << "`)\n";
    }
    return 0;
}

/**
 * Build (or rebuild) the .edbi sidecar index for a trace. The
 * sidecar is written next to the trace by default so MappedTrace
 * auto-discovers it on the next open.
 */
int
cmdIndex(const std::string &path, const std::string &out_override,
         std::ostream &out)
{
    const trace::MappedTrace mapped(path);
    trace::TraceIndex idx = trace::buildTraceIndex(mapped);
    const std::string sidecar = out_override.empty()
                                    ? trace::traceIndexPathFor(path)
                                    : out_override;
    trace::saveTraceIndex(idx, sidecar);
    out << "indexed " << path << ": " << mapped.blockCount()
        << " blocks -> " << idx.extents.size() << " extents\n"
        << "wrote " << sidecar << ": " << idx.fileBytes
        << " bytes (header " << idx.bytesHeader << ", extents "
        << idx.bytesExtents << ")\n";
    return 0;
}

int
cmdSessions(const std::string &path, std::size_t top,
            std::ostream &out, unsigned jobs)
{
    trace::Trace trace = trace::loadTrace(path);
    auto sessions = session::SessionSet::enumerate(trace);
    auto sim = simulateWithJobs(trace, sessions, jobs);
    EDB_OBS_SPAN("report.print");

    std::vector<session::SessionId> ranked;
    for (session::SessionId id = 0; id < sessions.size(); ++id) {
        if (sim.counters[id].hits > 0)
            ranked.push_back(id);
    }
    std::sort(ranked.begin(), ranked.end(),
              [&sim](session::SessionId a, session::SessionId b) {
                  return sim.counters[a].hits > sim.counters[b].hits;
              });

    out << ranked.size() << " active monitor sessions (of "
        << sessions.size() << " enumerated); top " << top
        << " by monitor hits:\n";
    report::TextTable table;
    table.header({"Hits", "Installs", "Session"});
    for (std::size_t i = 0; i < ranked.size() && i < top; ++i) {
        session::SessionId id = ranked[i];
        table.row({report::fmtCount(sim.counters[id].hits),
                   report::fmtCount(sim.counters[id].installs),
                   sessions.describe(id, trace)});
    }
    out << table.render();
    return 0;
}

int
cmdAnalyze(const std::string &path, std::ostream &out, unsigned jobs)
{
    trace::Trace trace = trace::loadTrace(path);
    auto profile = selectedProfile();
    report::ProgramStudy study =
        report::studyTrace(trace, profile, 0, jobs);
    EDB_OBS_SPAN("report.print");

    out << "program " << study.program << ": "
        << study.activeSessions.size()
        << " active sessions, base time "
        << report::fmt(study.baseUs / 1000, 0) << " ms ("
        << profile.name << ")\n\n";

    report::TextTable table;
    table.header({"Statistic", "NH", "VM-4K", "VM-8K", "TP", "CP"});
    auto row = [&](const char *label, auto get) {
        std::vector<std::string> cells = {label};
        for (std::size_t s = 0; s < 5; ++s)
            cells.push_back(report::fmt(get(study.overheadStats[s])));
        table.row(cells);
    };
    using S = SummaryStats;
    row("Min", [](const S &s) { return s.min; });
    row("Max", [](const S &s) { return s.max; });
    row("T-Mean", [](const S &s) { return s.tmean; });
    row("Mean", [](const S &s) { return s.mean; });
    row("90%", [](const S &s) { return s.p90; });
    row("98%", [](const S &s) { return s.p98; });
    out << table.render();
    out << "\n(relative overhead: estimated monitoring time / base "
           "execution time)\n";
    return 0;
}

int
cmdSession(const std::string &path, const std::string &needle,
           std::ostream &out, std::ostream &err, unsigned jobs)
{
    trace::Trace trace = trace::loadTrace(path);
    auto profile = selectedProfile();
    report::ProgramStudy study =
        report::studyTrace(trace, profile, 0, jobs);
    EDB_OBS_SPAN("report.print");

    session::SessionId chosen = 0xffffffff;
    for (session::SessionId id : study.activeSessions) {
        if (study.sessions.describe(id, trace).find(needle) !=
            std::string::npos) {
            chosen = id;
            break;
        }
    }
    if (chosen == 0xffffffff) {
        err << "no active session matches '" << needle << "'\n";
        return 1;
    }

    const auto &c = study.sim.counters[chosen];
    out << study.sessions.describe(chosen, trace) << "\n"
        << "  installs/removes: " << c.installs << "/" << c.removes
        << "\n"
        << "  hits:             " << c.hits << "\n"
        << "  misses:           " << study.sim.misses(chosen) << "\n"
        << "  VM-4K: " << c.vm[0].protects << " protects, "
        << c.vm[0].activePageMisses << " active-page misses\n"
        << "  VM-8K: " << c.vm[1].protects << " protects, "
        << c.vm[1].activePageMisses << " active-page misses\n\n";

    report::TextTable table;
    table.header({"Strategy", "Overhead (ms)", "Relative"});
    for (model::Strategy s : model::allStrategies) {
        model::Overhead o = model::overheadFor(
            s, c, study.sim.misses(chosen), profile);
        table.row({model::strategyName(s),
                   report::fmt(o.totalUs() / 1000, 2),
                   report::fmt(
                       model::relativeOverhead(o, study.baseUs), 2) +
                       "x"});
    }
    out << table.render();
    return 0;
}

int
cmdAdvise(const std::string &path, std::size_t top, std::ostream &out,
          unsigned jobs)
{
    trace::Trace trace = trace::loadTrace(path);
    auto profile = selectedProfile();
    report::ProgramStudy study =
        report::studyTrace(trace, profile, 0, jobs);
    EDB_OBS_SPAN("report.print");

    out << "program " << study.program << ": "
        << study.activeSessions.size() << " active sessions, "
        << study.hwFeasibleSessions << " fit the "
        << model::AdvisorPolicy{}.hwRegisters
        << "-register hardware; base time "
        << report::fmt(study.baseUs / 1000, 0) << " ms ("
        << profile.name << ")\n\n";

    // Adaptive (the advisor's per-session pick) against every fixed
    // strategy, over the retained-session population.
    report::TextTable agg;
    agg.header({"Strategy", "Mean", "90%", "Max", "Picked"});
    auto statRow = [&](const std::string &name, const SummaryStats &s,
                       std::size_t picked) {
        agg.row({name, report::fmt(s.mean), report::fmt(s.p90),
                 report::fmt(s.max), report::fmtCount(picked)});
    };
    statRow("Adaptive", study.adaptiveStats,
            study.activeSessions.size());
    for (std::size_t s = 0; s < model::allStrategies.size(); ++s)
        statRow(model::strategyName(model::allStrategies[s]),
                study.overheadStats[s], study.pickCounts[s]);
    out << agg.render()
        << "(relative overhead; Picked = sessions for which the "
           "advisor chose the strategy)\n\n";

    // Per-session detail: top-N positions by monitor hits. The
    // adaptive vectors are parallel to activeSessions, so rank the
    // positions, not the session ids.
    std::vector<std::size_t> ranked(study.activeSessions.size());
    for (std::size_t i = 0; i < ranked.size(); ++i)
        ranked[i] = i;
    std::sort(ranked.begin(), ranked.end(),
              [&study](std::size_t a, std::size_t b) {
                  return study.sim.counters[study.activeSessions[a]]
                             .hits >
                         study.sim.counters[study.activeSessions[b]]
                             .hits;
              });

    out << "top " << top << " sessions by monitor hits:\n";
    report::TextTable table;
    table.header({"Hits", "Peak", "Best", "Rel", "Session"});
    for (std::size_t i = 0; i < ranked.size() && i < top; ++i) {
        std::size_t pos = ranked[i];
        session::SessionId id = study.activeSessions[pos];
        const model::Advice &advice = study.advice[pos];
        std::string best = model::strategyAbbrev(advice.pick);
        if (advice.pick != advice.unconstrained)
            best += "*";
        table.row({report::fmtCount(study.sim.counters[id].hits),
                   report::fmtCount(study.shapes[pos].peakLiveMonitors),
                   best,
                   report::fmt(study.adaptiveRelativeOverheads[pos], 2) +
                       "x",
                   study.sessions.describe(id, trace)});
    }
    out << table.render()
        << "(Peak = concurrent monitors; * = pick constrained by the "
           "register file)\n";
    return 0;
}

namespace {

/** Parse an unsigned integer (base 10 or 0x hex); rejects signs,
 *  trailing junk and overflow. */
bool
parseU64(const std::string &s, std::uint64_t *out)
{
    if (s.empty() || s[0] == '-' || s[0] == '+')
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s.c_str(), &end, 0);
    if (end == nullptr || *end != '\0' || errno == ERANGE)
        return false;
    *out = (std::uint64_t)v;
    return true;
}

/** Parse the row count N of `sessions` and `advise`: a positive
 *  integer, else an error on `err`. */
bool
parseTop(const std::string &s, std::size_t *top, std::ostream &err)
{
    std::uint64_t n = 0;
    if (!parseU64(s, &n) || n == 0) {
        err << "error: invalid row count '" << s << "'\n";
        return false;
    }
    *top = (std::size_t)n;
    return true;
}

/** Parse "B:E" into two unsigned integers. */
bool
parseU64Range(const std::string &s, std::uint64_t *b,
              std::uint64_t *e)
{
    const std::size_t colon = s.find(':');
    if (colon == std::string::npos)
        return false;
    return parseU64(s.substr(0, colon), b) &&
           parseU64(s.substr(colon + 1), e);
}

const char *
eventKindName(trace::EventKind kind)
{
    switch (kind) {
    case trace::EventKind::InstallMonitor:
        return "install";
    case trace::EventKind::RemoveMonitor:
        return "remove";
    case trace::EventKind::Write:
        return "write";
    }
    return "?";
}

std::string
fmtHex(Addr a)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%llx", (unsigned long long)a);
    return buf;
}

/**
 * Resolve --session substrings against the enumerated sessions (the
 * describe() text, as `sessions` and `session` print it). Every
 * matching session is selected, deduplicated in first-seen order.
 * Returns false (after reporting) when a substring matches nothing.
 */
bool
resolveSessionNeedles(const session::SessionSet &sessions,
                      const trace::Trace &trace,
                      const std::vector<std::string> &needles,
                      std::vector<session::SessionId> *selected,
                      std::ostream &err)
{
    for (const std::string &needle : needles) {
        bool any = false;
        for (session::SessionId id = 0; id < sessions.size(); ++id) {
            if (sessions.describe(id, trace).find(needle) ==
                std::string::npos) {
                continue;
            }
            any = true;
            if (std::find(selected->begin(), selected->end(), id) ==
                selected->end()) {
                selected->push_back(id);
            }
        }
        if (!any) {
            err << "error: no session matches '" << needle << "'\n";
            return false;
        }
    }
    return true;
}

/** Everything the renderers need. */
struct QueryRun
{
    query::QueryResult result;
    query::QueryStats stats;
    std::string program;
    /** describe() of each spec.sessions entry, positionally. */
    std::vector<std::string> sessionDescs;
};

void
renderQueryTable(const query::QuerySpec &spec, const QueryRun &run,
                 std::ostream &out)
{
    out << "program: " << run.program << "\n"
        << "matches: " << run.result.matches << " (agg "
        << query::aggName(spec.agg) << ")\n";
    const auto &st = run.stats;
    out << "blocks:  " << st.blocksTotal << " total, " << st.blocksFull
        << " full, " << st.blocksControlOnly << " control-only, "
        << st.blocksSkipped << " skipped; " << st.writesPruned
        << " writes pruned (jobs " << st.jobs << ")\n";

    if (spec.agg == query::Agg::CountByPage ||
        spec.agg == query::Agg::TopPages) {
        report::TextTable table;
        table.header({"Page", "First byte", "Matches"});
        for (const query::PageCount &pc : run.result.pages) {
            table.row({std::to_string(pc.page),
                       fmtHex(pc.page << sim::summaryPageShift),
                       report::fmtCount(pc.count)});
        }
        out << table.render();
    } else if (spec.agg == query::Agg::CountBySession) {
        report::TextTable table;
        table.header({"Matches", "Session"});
        for (std::size_t i = 0; i < run.result.sessionCounts.size();
             ++i) {
            table.row({report::fmtCount(run.result.sessionCounts[i]),
                       run.sessionDescs[i]});
        }
        out << table.render();
    } else if (spec.agg != query::Agg::Count) {
        report::TextTable table;
        table.header({"Index", "Kind", "Begin", "Size", "Aux"});
        for (const query::MatchedRow &row : run.result.rows) {
            table.row({std::to_string(row.index),
                       eventKindName(row.event.kind),
                       fmtHex(row.event.begin),
                       std::to_string(row.event.size),
                       std::to_string(row.event.aux)});
        }
        out << table.render();
    }
}

void
renderQueryJson(const query::QuerySpec &spec, const QueryRun &run,
                std::ostream &out)
{
    const auto &st = run.stats;
    out << "{\"schema\":\"edb-query-v1\""
        << ",\"program\":\"" << jsonEscape(run.program) << "\""
        << ",\"agg\":\"" << query::aggName(spec.agg) << "\""
        << ",\"matches\":" << run.result.matches
        << ",\"blocks\":{\"total\":" << st.blocksTotal
        << ",\"full\":" << st.blocksFull
        << ",\"control_only\":" << st.blocksControlOnly
        << ",\"skipped\":" << st.blocksSkipped
        << ",\"writes_pruned\":" << st.writesPruned
        << ",\"jobs\":" << st.jobs << "}";
    if (spec.agg == query::Agg::CountByPage ||
        spec.agg == query::Agg::TopPages) {
        out << ",\"pages\":[";
        for (std::size_t i = 0; i < run.result.pages.size(); ++i) {
            if (i)
                out << ",";
            out << "{\"page\":" << run.result.pages[i].page
                << ",\"count\":" << run.result.pages[i].count << "}";
        }
        out << "]";
    } else if (spec.agg == query::Agg::CountBySession) {
        out << ",\"sessions\":[";
        for (std::size_t i = 0; i < run.result.sessionCounts.size();
             ++i) {
            if (i)
                out << ",";
            out << "{\"session\":" << spec.sessions[i]
                << ",\"description\":\""
                << jsonEscape(run.sessionDescs[i])
                << "\",\"count\":" << run.result.sessionCounts[i]
                << "}";
        }
        out << "]";
    } else if (spec.agg != query::Agg::Count) {
        out << ",\"rows\":[";
        for (std::size_t i = 0; i < run.result.rows.size(); ++i) {
            const query::MatchedRow &row = run.result.rows[i];
            if (i)
                out << ",";
            out << "{\"index\":" << row.index << ",\"kind\":\""
                << eventKindName(row.event.kind)
                << "\",\"begin\":" << row.event.begin
                << ",\"size\":" << row.event.size
                << ",\"aux\":" << row.event.aux << "}";
        }
        out << "]";
    }
    out << "}\n";
}

} // namespace

int
cmdQuery(const std::string &path, const std::vector<std::string> &opts,
         std::ostream &out, std::ostream &err, unsigned jobs)
{
    query::QuerySpec spec;
    std::vector<std::string> needles;
    std::string format = "table";
    std::uint32_t kind_mask = 0;

    const auto usageError = [&err](const std::string &msg) {
        err << "error: " << msg << "\n" << usage();
        return 2;
    };
    for (std::size_t i = 0; i < opts.size(); ++i) {
        const std::string &o = opts[i];
        if (i + 1 == opts.size())
            return usageError(o + " needs a value");
        const std::string &v = opts[++i];
        std::uint64_t a = 0;
        std::uint64_t b = 0;
        if (o == "--kind") {
            if (v == "install") {
                kind_mask |= query::kindBit(
                    trace::EventKind::InstallMonitor);
            } else if (v == "remove") {
                kind_mask |=
                    query::kindBit(trace::EventKind::RemoveMonitor);
            } else if (v == "write") {
                kind_mask |= query::kindBit(trace::EventKind::Write);
            } else {
                return usageError("unknown event kind '" + v +
                                  "' (install|remove|write)");
            }
        } else if (o == "--addr") {
            if (!parseU64Range(v, &a, &b) || a >= b) {
                return usageError("invalid address range '" + v +
                                  "' (expected BEGIN:END with "
                                  "BEGIN < END)");
            }
            spec.addrRanges.push_back(AddrRange{a, b});
        } else if (o == "--session") {
            needles.push_back(v);
        } else if (o == "--aux") {
            if (!parseU64(v, &a) || a > 0xffffffffull)
                return usageError("invalid aux value '" + v + "'");
            spec.auxAny.push_back((std::uint32_t)a);
        } else if (o == "--index") {
            if (!parseU64Range(v, &a, &b) || a >= b) {
                return usageError("invalid index window '" + v +
                                  "' (expected BEGIN:END with "
                                  "BEGIN < END)");
            }
            spec.firstIndex = a;
            spec.lastIndex = b;
        } else if (o == "--min-size") {
            if (!parseU64(v, &a) || a > 0xffffffffull)
                return usageError("invalid size '" + v + "'");
            spec.minSize = (std::uint32_t)a;
        } else if (o == "--max-size") {
            if (!parseU64(v, &a) || a > 0xffffffffull)
                return usageError("invalid size '" + v + "'");
            spec.maxSize = (std::uint32_t)a;
        } else if (o == "--agg") {
            bool known = false;
            for (query::Agg agg :
                 {query::Agg::Count, query::Agg::CountByPage,
                  query::Agg::CountBySession, query::Agg::TopPages,
                  query::Agg::First, query::Agg::Last,
                  query::Agg::Rows}) {
                if (v == query::aggName(agg)) {
                    spec.agg = agg;
                    known = true;
                    break;
                }
            }
            if (!known)
                return usageError("unknown aggregation '" + v + "'");
        } else if (o == "--k") {
            if (!parseU64(v, &a) || a == 0)
                return usageError("invalid top-pages count '" + v +
                                  "'");
            spec.k = (std::size_t)a;
        } else if (o == "--limit") {
            if (!parseU64(v, &a))
                return usageError("invalid row limit '" + v + "'");
            spec.rowLimit = (std::size_t)a;
        } else if (o == "--format") {
            if (v != "table" && v != "json")
                return usageError("unknown output format '" + v +
                                  "' (table|json)");
            format = v;
        } else {
            return usageError("unknown query option '" + o + "'");
        }
    }
    if (kind_mask != 0)
        spec.kindMask = kind_mask;

    // Plan against the mapped block index without materializing the
    // events. Sessions enumerate from the header's registry alone;
    // describe() needs only a registry shim.
    trace::MappedTrace mapped(path);
    auto sessions = session::SessionSet::enumerate(mapped.registry());
    trace::Trace shim;
    shim.program = mapped.program();
    shim.registry = mapped.registry();
    if (!resolveSessionNeedles(sessions, shim, needles, &spec.sessions,
                               err)) {
        return 1;
    }
    const std::string problem = query::validateSpec(spec, sessions.size());
    if (!problem.empty())
        return usageError("invalid query: " + problem);
    query::QueryOptions qopts;
    qopts.jobs = jobs;
    QueryRun run;
    run.result =
        query::runQuery(mapped, sessions, spec, qopts, &run.stats);
    run.program = mapped.program();
    for (session::SessionId id : spec.sessions)
        run.sessionDescs.push_back(sessions.describe(id, shim));

    if (format == "json")
        renderQueryJson(spec, run, out);
    else
        renderQueryTable(spec, run, out);
    return 0;
}

namespace {

/** Parse "I,J,K" into session ids for `connect ... run`. */
bool
parseIdList(const std::string &s, std::vector<std::uint32_t> *out)
{
    std::size_t pos = 0;
    while (pos < s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        std::uint64_t v = 0;
        if (!parseU64(s.substr(pos, comma - pos), &v) ||
            v > 0xffffffffull) {
            return false;
        }
        out->push_back((std::uint32_t)v);
        pos = comma + 1;
    }
    return !out->empty();
}

} // namespace

int
cmdConnect(const std::vector<std::string> &args, std::ostream &out,
           std::ostream &err)
{
    if (args.empty()) {
        err << "error: connect needs a socket path\n" << usage();
        return 2;
    }
    const std::string socket_path = args[0];
    std::string tenant = "cli";
    std::string stats_json;
    std::vector<std::string> script;
    for (std::size_t i = 1; i < args.size(); ++i) {
        if (args[i] == "--tenant" || args[i] == "--stats-json") {
            if (i + 1 == args.size()) {
                err << "error: " << args[i] << " needs a value\n";
                return 2;
            }
            const bool is_tenant = args[i] == "--tenant";
            (is_tenant ? tenant : stats_json) = args[++i];
        } else {
            script.push_back(args[i]);
        }
    }

    served::Client client;
    client.connect(socket_path);
    const served::HelloReply hello = client.hello(tenant);
    out << "connected to " << hello.serverName << " (protocol v"
        << hello.version << ") as tenant " << hello.tenantId << " '"
        << tenant << "'\n";

    const auto needArg = [&](std::size_t i, const char *what) {
        if (i >= script.size())
            throw std::runtime_error(std::string("connect: ") + what);
        return script[i];
    };
    bool said_bye = false;
    for (std::size_t i = 0; i < script.size() && !said_bye; ++i) {
        const std::string &cmd = script[i];
        if (cmd == "open") {
            const std::string path =
                needArg(++i, "open needs a trace path");
            const served::OpenResult r = client.openTrace(path);
            out << "trace " << r.traceId << ": " << r.events
                << " events, " << r.writes << " writes, "
                << r.sessionCount << " sessions, " << r.blocks
                << " blocks\n";
        } else if (cmd == "install") {
            std::uint64_t b = 0;
            std::uint64_t e = 0;
            const std::string v =
                needArg(++i, "install needs a BEGIN:END range");
            if (!parseU64Range(v, &b, &e) || b >= e)
                throw std::runtime_error(
                    "connect: invalid range '" + v + "'");
            out << "monitor " << client.install(AddrRange{b, e})
                << ": " << AddrRange{b, e}.str() << "\n";
        } else if (cmd == "remove" || cmd == "enable" ||
                   cmd == "disable") {
            std::uint64_t id = 0;
            const std::string v =
                needArg(++i, "monitor commands need an id");
            if (!parseU64(v, &id) || id > 0xffffffffull)
                throw std::runtime_error(
                    "connect: invalid monitor id '" + v + "'");
            if (cmd == "remove")
                client.remove((std::uint32_t)id);
            else if (cmd == "enable")
                client.enable((std::uint32_t)id);
            else
                client.disable((std::uint32_t)id);
            out << cmd << "d monitor " << id << "\n";
        } else if (cmd == "subscribe") {
            const std::string v =
                needArg(++i, "subscribe needs on|off");
            if (v != "on" && v != "off")
                throw std::runtime_error(
                    "connect: subscribe needs on|off, not '" + v +
                    "'");
            client.subscribe(v == "on");
            out << "subscribed " << v << "\n";
        } else if (cmd == "run") {
            std::uint64_t tid = 0;
            const std::string v =
                needArg(++i, "run needs a trace id");
            if (!parseU64(v, &tid) || tid > 0xffffffffull)
                throw std::runtime_error(
                    "connect: invalid trace id '" + v + "'");
            // An id-list argument switches to session-oracle mode.
            std::vector<std::uint32_t> ids;
            if (i + 1 < script.size() &&
                parseIdList(script[i + 1], &ids)) {
                ++i;
            }
            const served::RunReply r =
                client.run((std::uint32_t)tid, ids);
            if (!r.sessionMode) {
                out << "run trace " << tid << ": " << r.writes
                    << " writes, " << r.hits << " hits, "
                    << r.notifications << " notifications\n";
            } else {
                out << "run trace " << tid << ": " << r.totalWrites
                    << " writes\n";
                report::TextTable table;
                table.header({"Session", "Installs", "Hits",
                              "VM-4K prot", "VM-8K prot"});
                for (std::size_t s = 0; s < r.counters.size(); ++s) {
                    const sim::SessionCounters &c = r.counters[s];
                    table.row({std::to_string(ids[s]),
                               report::fmtCount(c.installs),
                               report::fmtCount(c.hits),
                               report::fmtCount(c.vm[0].protects),
                               report::fmtCount(c.vm[1].protects)});
                }
                out << table.render();
            }
        } else if (cmd == "resume") {
            const served::ResumeReply r = client.resume();
            out << "resume: " << r.hits.size()
                << " pending monitor(s), " << r.dropped
                << " dropped\n";
            for (const served::ResumeHit &h : r.hits) {
                out << "  monitor " << h.monitorId << ": " << h.count
                    << " hit(s), last " << h.last.str() << "\n";
            }
        } else if (cmd == "events") {
            std::uint64_t n = 0;
            const std::string v =
                needArg(++i, "events needs a count");
            if (!parseU64(v, &n))
                throw std::runtime_error(
                    "connect: invalid event count '" + v + "'");
            if (!client.waitForEvents((std::size_t)n))
                throw std::runtime_error(
                    "connect: timed out waiting for " + v +
                    " event(s)");
            for (const served::EventOut &e : client.takeEvents()) {
                out << "event " << e.seq << ": monitor "
                    << e.monitorId << " wrote " << e.written.str()
                    << " at pc " << fmtHex(e.pc) << "\n";
            }
        } else if (cmd == "query") {
            std::uint64_t tid = 0;
            const std::string v =
                needArg(++i, "query needs a trace id");
            if (!parseU64(v, &tid) || tid > 0xffffffffull)
                throw std::runtime_error(
                    "connect: invalid trace id '" + v + "'");
            served::WireQuery q;
            q.traceId = (std::uint32_t)tid;
            std::uint64_t b = 0;
            std::uint64_t e = 0;
            if (i + 1 < script.size() &&
                parseU64Range(script[i + 1], &b, &e) && b < e) {
                q.addrRanges.push_back(AddrRange{b, e});
                ++i;
            }
            const served::QueryReply r = client.query(q);
            out << "query trace " << tid << ": " << r.matches
                << " matching event(s)\n";
        } else if (cmd == "stats") {
            const served::StatsReply r = client.stats();
            out << r.tenants.size() << " tenant(s), "
                << r.traces.size() << " shared trace(s)\n";
            report::TextTable table;
            table.header({"Tenant", "Monitors", "Traces", "Pending",
                          "Notifs", "Runs", "Queries"});
            for (const served::StatsTenantRow &t : r.tenants) {
                table.row({t.name + " (" + std::to_string(t.id) + ")",
                           std::to_string(t.monitors),
                           std::to_string(t.traces),
                           std::to_string(t.pendingHits),
                           std::to_string(t.notifications),
                           std::to_string(t.runs),
                           std::to_string(t.queries)});
            }
            out << table.render();
            for (const served::StatsTraceRow &t : r.traces) {
                out << "  " << t.path << ": " << t.refs
                    << " tenant ref(s), " << t.events << " events\n";
            }
            if (!stats_json.empty()) {
                std::ofstream f(stats_json,
                                std::ios::binary | std::ios::trunc);
                f << r.snapshotJson;
                if (!f.flush())
                    throw std::runtime_error(
                        "connect: cannot write '" + stats_json +
                        "'");
                out << "wrote server obs snapshot to " << stats_json
                    << "\n";
            }
        } else if (cmd == "metrics") {
            const std::string path =
                needArg(++i, "metrics needs an output path");
            const std::string text = client.metricsText();
            std::ofstream f(path,
                            std::ios::binary | std::ios::trunc);
            f << text;
            if (!f.flush())
                throw std::runtime_error(
                    "connect: cannot write '" + path + "'");
            out << "wrote " << text.size()
                << " bytes of Prometheus exposition to " << path
                << "\n";
        } else if (cmd == "bye") {
            client.bye();
            said_bye = true;
            out << "bye\n";
        } else {
            err << "error: unknown connect command '" << cmd << "'\n"
                << usage();
            return 2;
        }
    }
    if (!said_bye)
        client.bye();
    return 0;
}

namespace {

/** "12.3" for a per-second rate. */
std::string
fmtRate(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", v);
    return buf;
}

/** Nanoseconds rendered as microseconds with one decimal. */
std::string
fmtUs(double ns)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", ns / 1000.0);
    return buf;
}

const std::string *
labelValue(const std::vector<obs::Label> &labels,
           const char *key)
{
    for (const obs::Label &l : labels) {
        if (l.key == key)
            return &l.value;
    }
    return nullptr;
}

/**
 * One `top` frame: per-tenant gauges + counter rates, then the
 * per-op request-latency quantiles. A counter's rate is its change
 * from `prev` to `cur` over the `dt_ns` between the two scrapes.
 */
void
renderTop(const telemetry::Report &prev, const telemetry::Report &cur,
          std::uint64_t dt_ns, std::ostream &out)
{
    out << "edb-served metrics: " << cur.series.size() << " series, "
        << cur.hists.size() << " histogram(s), rates over "
        << (dt_ns + 500'000) / 1'000'000 << " ms\n\n";

    std::map<std::pair<std::string, std::vector<obs::Label>>,
             std::int64_t>
        before;
    for (const telemetry::ReportSeries &s : prev.series)
        before[{s.name, s.labels}] = s.value;
    const auto rate = [&](const telemetry::ReportSeries &s) {
        const auto it = before.find({s.name, s.labels});
        const std::int64_t base = it == before.end() ? 0 : it->second;
        return (double)(s.value - base) * 1e9 / (double)dt_ns;
    };

    struct TenantRow
    {
        std::int64_t monitors = 0;
        std::int64_t pending = 0;
        std::int64_t traces = 0;
        double runs = 0;
        double queries = 0;
        double notifs = 0;
        double writes = 0;
    };
    std::map<std::string, TenantRow> tenants;
    std::map<std::string, double> op_rates;
    for (const telemetry::ReportSeries &s : cur.series) {
        if (s.name == "served.requests") {
            if (const std::string *op = labelValue(s.labels, "op"))
                op_rates[*op] = rate(s);
            continue;
        }
        const std::string *tenant = labelValue(s.labels, "tenant");
        if (tenant == nullptr)
            continue;
        TenantRow &row = tenants[*tenant];
        if (s.name == "served.monitors")
            row.monitors = s.value;
        else if (s.name == "served.pending_hits")
            row.pending = s.value;
        else if (s.name == "served.open_traces")
            row.traces = s.value;
        else if (s.name == "served.runs")
            row.runs = rate(s);
        else if (s.name == "served.queries")
            row.queries = rate(s);
        else if (s.name == "served.notifications")
            row.notifs = rate(s);
        else if (s.name == "served.run_writes")
            row.writes = rate(s);
    }

    report::TextTable tt;
    tt.header({"Tenant", "Monitors", "Pending", "Traces", "Runs/s",
               "Queries/s", "Notifs/s", "Writes/s"});
    for (const auto &[name, row] : tenants) {
        tt.row({name, std::to_string(row.monitors),
                std::to_string(row.pending),
                std::to_string(row.traces), fmtRate(row.runs),
                fmtRate(row.queries), fmtRate(row.notifs),
                fmtRate(row.writes)});
    }
    if (tenants.empty())
        out << "(no tenants yet)\n";
    else
        out << tt.render();
    out << "\n";

    report::TextTable ot;
    ot.header({"Op", "Req/s", "Count", "p50 (us)", "p95 (us)",
               "p99 (us)"});
    bool any_op = false;
    for (const telemetry::ReportHist &h : cur.hists) {
        if (h.name != "served.request_ns")
            continue;
        const std::string *op = labelValue(h.labels, "op");
        if (op == nullptr)
            continue;
        any_op = true;
        const auto it = op_rates.find(*op);
        ot.row({*op,
                fmtRate(it == op_rates.end() ? 0.0 : it->second),
                std::to_string(h.count), fmtUs(h.p50), fmtUs(h.p95),
                fmtUs(h.p99)});
    }
    if (any_op)
        out << ot.render();
    else
        out << "(no requests timed yet)\n";
}

} // namespace

int
cmdTop(const std::vector<std::string> &args, std::ostream &out,
       std::ostream &err)
{
    if (args.empty()) {
        err << "error: top needs a socket path\n" << usage();
        return 2;
    }
    const std::string socket_path = args[0];
    std::uint64_t interval_ms = 2000;
    std::uint64_t count = 0; // 0 = refresh until interrupted
    bool once = false;
    std::string format = "table";
    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string &o = args[i];
        if (o == "--once") {
            once = true;
            continue;
        }
        if (i + 1 == args.size()) {
            err << "error: " << o << " needs a value\n";
            return 2;
        }
        const std::string &v = args[++i];
        std::uint64_t n = 0;
        if (o == "--interval") {
            if (!parseU64(v, &n) || n == 0) {
                err << "error: invalid interval '" << v << "'\n";
                return 2;
            }
            interval_ms = n;
        } else if (o == "--count") {
            if (!parseU64(v, &n) || n == 0) {
                err << "error: invalid refresh count '" << v
                    << "'\n";
                return 2;
            }
            count = n;
        } else if (o == "--format") {
            if (v != "table" && v != "json") {
                err << "error: unknown top format '" << v
                    << "' (table|json)\n";
                return 2;
            }
            format = v;
        } else {
            err << "error: unknown top option '" << o << "'\n"
                << usage();
            return 2;
        }
    }
    if (once)
        count = 1;

    served::Client client;
    client.connect(socket_path);
    // A table frame shows each counter's rate against the scrape one
    // interval before it, so the first frame has a baseline scrape.
    const bool table = format == "table";
    using Clock = std::chrono::steady_clock;
    telemetry::Report prev;
    Clock::time_point prev_t;
    if (table) {
        prev = client.metricsReport();
        prev_t = Clock::now();
    }
    for (std::uint64_t iter = 0; count == 0 || iter < count;
         ++iter) {
        if (iter > 0 || table) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(interval_ms));
        }
        if (!table) {
            const std::string doc =
                client.metricsText(served::MetricsFormat::Json);
            out << doc;
            if (doc.empty() || doc.back() != '\n')
                out << "\n";
            out.flush();
            continue;
        }
        telemetry::Report cur = client.metricsReport();
        const Clock::time_point t = Clock::now();
        // Only a refreshing display clears the screen; --once (and
        // --count 1) keeps the output pipeline-friendly.
        if (count != 1)
            out << "\x1b[2J\x1b[H";
        renderTop(prev, cur,
                  (std::uint64_t)std::chrono::duration_cast<
                      std::chrono::nanoseconds>(t - prev_t)
                      .count(),
                  out);
        out.flush();
        prev = std::move(cur);
        prev_t = t;
    }
    return 0;
}

int
run(const std::vector<std::string> &args, std::ostream &out,
    std::ostream &err)
{
    // Extract the global flags; everything else is positional.
    // --jobs 0 resolves to the EDB_JOBS/hardware default.
    std::vector<std::string> rest;
    unsigned jobs = 1;
    bool jobs_given = false;
    std::string obs_json;
    std::string trace_events;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--help" || args[i] == "-h") {
            out << usage();
            return 0;
        }
        if (args[i] == "--jobs" || args[i] == "-j") {
            jobs_given = true;
            if (i + 1 == args.size()) {
                err << "error: " << args[i] << " needs a value\n";
                return 2;
            }
            // strtoul silently wraps a leading '-', so screen it out.
            char *end = nullptr;
            unsigned long v = std::strtoul(args[++i].c_str(), &end, 10);
            if (args[i].empty() || args[i][0] == '-' || !end ||
                *end != '\0' || v > ThreadPool::maxJobs) {
                err << "error: invalid job count '" << args[i]
                    << "'\n";
                return 2;
            }
            jobs = v == 0 ? ThreadPool::defaultJobs() : (unsigned)v;
        } else if (args[i] == "--obs-json" ||
                   args[i] == "--trace-events") {
            const bool is_snapshot = args[i] == "--obs-json";
            if (i + 1 == args.size() || args[i + 1].empty()) {
                err << "error: " << args[i] << " needs a path\n";
                return 2;
            }
            (is_snapshot ? obs_json : trace_events) = args[++i];
        } else {
            rest.push_back(args[i]);
        }
    }

    if (rest.empty()) {
        err << usage();
        return 2;
    }
    const std::string &cmd = rest[0];
    // The global flags configure the phase-2 stage; accepting them on
    // the phase-1 commands would silently do nothing, so reject them.
    if (cmd == "record" || cmd == "info" || cmd == "index" ||
        cmd == "connect" || cmd == "top") {
        const char *flag = jobs_given ? "--jobs"
                           : !obs_json.empty() ? "--obs-json"
                           : !trace_events.empty() ? "--trace-events"
                                                   : nullptr;
        if (flag != nullptr) {
            err << "error: " << flag
                << " does not apply to the phase-1 command '" << cmd
                << "' (it configures the phase-2 simulation stage)\n";
            return 2;
        }
    }
#if EDB_OBS_ENABLED
    if (!trace_events.empty())
        obs::enableTrace(trace_events);
#else
    if (!obs_json.empty() || !trace_events.empty()) {
        err << "warning: this build has EDB_OBS=OFF; "
            << (!obs_json.empty() ? "--obs-json" : "--trace-events")
            << " is ignored\n";
    }
#endif

    int rc = 2;
    bool dispatched = true;
    {
        // One root span per command encloses every span it opens.
        EDB_OBS_SPAN(rootSpanName(cmd));
        try {
            if (cmd == "record" && rest.size() == 3) {
                rc = cmdRecord(rest[1], rest[2], out);
            } else if (cmd == "info" && rest.size() == 2) {
                rc = cmdInfo(rest[1], out);
            } else if (cmd == "index" &&
                       (rest.size() == 2 || rest.size() == 3)) {
                rc = cmdIndex(
                    rest[1], rest.size() == 3 ? rest[2] : std::string(),
                    out);
            } else if (cmd == "sessions" &&
                       (rest.size() == 2 || rest.size() == 3)) {
                std::size_t top = 20;
                if (rest.size() == 3 && !parseTop(rest[2], &top, err))
                    return 2;
                rc = cmdSessions(rest[1], top, out, jobs);
            } else if (cmd == "analyze" && rest.size() == 2) {
                rc = cmdAnalyze(rest[1], out, jobs);
            } else if (cmd == "session" && rest.size() == 3) {
                rc = cmdSession(rest[1], rest[2], out, err, jobs);
            } else if (cmd == "advise" &&
                       (rest.size() == 2 || rest.size() == 3)) {
                std::size_t top = 20;
                if (rest.size() == 3 && !parseTop(rest[2], &top, err))
                    return 2;
                rc = cmdAdvise(rest[1], top, out, jobs);
            } else if (cmd == "query" && rest.size() >= 2) {
                rc = cmdQuery(rest[1],
                              std::vector<std::string>(rest.begin() + 2,
                                                       rest.end()),
                              out, err, jobs);
            } else if (cmd == "connect" && rest.size() >= 2) {
                rc = cmdConnect(
                    std::vector<std::string>(rest.begin() + 1, rest.end()),
                    out, err);
            } else if (cmd == "top" && rest.size() >= 2) {
                rc = cmdTop(std::vector<std::string>(rest.begin() + 1,
                                                     rest.end()),
                            out, err);
            } else {
                dispatched = false;
            }
        } catch (const std::exception &e) {
            err << "error: " << e.what() << "\n";
            rc = 1;
        }
    }
    if (!dispatched) {
        err << usage();
        return 2;
    }
#if EDB_OBS_ENABLED
    // Emit even when the command failed: a partial run's counters are
    // exactly what a post-mortem wants. An export failure only
    // surfaces in the exit code when the command itself succeeded.
    if (!trace_events.empty() && !obs::flushTrace() && rc == 0)
        rc = 1;
    if (!obs_json.empty() && !obs::writeSnapshotJsonFile(obs_json) &&
        rc == 0)
        rc = 1;
#endif
    return rc;
}

} // namespace edb::cli
