/**
 * @file
 * Acceptance benchmark for the trace query engine's summary pushdown
 * (DESIGN.md §12): the sparse-session query a debugger user actually
 * asks — "every write this one monitored variable received" — end to
 * end from the on-disk v2 artifact, against the brute-force
 * query::scanAll reference the differential suite pins every executor
 * to.
 *
 * Per paper workload, the same QuerySpec (write rows only, one sparse
 * study session, count aggregation) runs three ways:
 *
 *  - scanAll over the in-memory trace: no pruning, no columns, the
 *    oracle;
 *  - runQuery over the MappedTrace at jobs 1: block pruning against
 *    the page-summary runs, serial — the speedup measured here is
 *    pushdown, not parallelism;
 *  - runQuery at jobs 4: must stay identical (sanity, not timed for
 *    the floor).
 *
 * Acceptance: every workload identical to the oracle, and the jobs-1
 * pushdown >= 5x faster than brute force on at least 3 of the 5
 * workloads. All times are medians of `reps` repetitions. Emits
 * BENCH_query.json; any failure exits nonzero.
 *
 * A second phase measures the sidecar trace index (.edbi,
 * trace/index_format.h): the planner loop of the same sparse-session
 * query, indexed vs index-free, on the paper's sparsest session shape
 * (the first OneHeap instance — one short-lived heap object, one or
 * two control blocks). The metric is QueryStats::planNs (relevance
 * probes + live-state control decodes + handoff; pool execution
 * excluded), min over repetitions since the planner loop is
 * microseconds-scale. Both sides skip by the trace's own superblocks;
 * what the sidecar adds is the extents, which elide the control
 * decodes of blocks holding no selected control. Acceptance: results
 * bit-identical, the planner >= 5x faster with the index on at least
 * 3 of the 5 workloads, and never slower with it on any. The phase is
 * skipped (and the JSON says so) when EDB_TRACE_INDEX pins indexing
 * off.
 *
 * The same phase times what a one-shot query pays before it plans:
 * the median MappedTrace open of each workload's trace without a
 * sidecar on disk, then with one, which adds loading the sidecar and
 * digesting the whole `.trc` to check it is fresh. The JSON carries
 * both; tools/perf_smoke_check.py gates their ratio.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "query/query.h"
#include "report/table.h"
#include "session/session.h"
#include "trace/index_format.h"
#include "trace/trace_io.h"
#include "workload/workload.h"

namespace {

using namespace edb;

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Median-of-N wall time of `fn`, in milliseconds. */
template <typename Fn>
double
medianOf(int reps, Fn &&fn)
{
    std::vector<double> times;
    times.reserve((std::size_t)reps);
    for (int i = 0; i < reps; ++i) {
        auto start = std::chrono::steady_clock::now();
        fn();
        times.push_back(msSince(start));
    }
    std::sort(times.begin(), times.end());
    return times[times.size() / 2];
}

/** Same sparse session bench_trace_v2 studies: the first OneLocalAuto
 *  (the "watch this variable" case), session 0 as the fallback. */
session::SessionId
sparseStudySession(const session::SessionSet &set)
{
    for (const session::SessionInfo &s : set.sessions()) {
        if (s.type == session::SessionType::OneLocalAuto)
            return s.id;
    }
    return 0;
}

/**
 * The session the planner phase studies: the sparsest instance the
 * enumeration offers. OneHeap sessions monitor one short-lived heap
 * object — typically one or two blocks carry its controls — which is
 * exactly the "watch this allocation" ask the sidecar index's session
 * extents exist for. Fall back to OneGlobalStatic, then to the
 * pushdown phase's OneLocalAuto pick.
 */
session::SessionId
plannerStudySession(const session::SessionSet &set)
{
    for (const session::SessionInfo &s : set.sessions()) {
        if (s.type == session::SessionType::OneHeap)
            return s.id;
    }
    for (const session::SessionInfo &s : set.sessions()) {
        if (s.type == session::SessionType::OneGlobalStatic)
            return s.id;
    }
    return sparseStudySession(set);
}

/** Min-of-reps planner-loop time for one mapping, filling `out` with
 *  the last result (identical across reps by construction). */
std::uint64_t
minPlanNs(int reps, const trace::MappedTrace &mapped,
          const session::SessionSet &set,
          const query::QuerySpec &spec, query::QueryResult &out)
{
    query::QueryOptions serial;
    serial.jobs = 1;
    std::uint64_t best = ~0ull;
    for (int i = 0; i < reps; ++i) {
        query::QueryStats stats;
        out = query::runQuery(mapped, set, spec, serial, &stats);
        best = std::min(best, stats.planNs);
    }
    return best;
}

struct Row
{
    std::string program;
    std::size_t events = 0;
    std::uint64_t matches = 0;
    double bruteMs = 0;    ///< scanAll over the in-memory trace
    double pushdownMs = 0; ///< runQuery(MappedTrace), jobs 1
    double speedup = 0;    ///< bruteMs / pushdownMs
    std::uint64_t blocks = 0;
    std::uint64_t blocksPruned = 0; ///< skipped + control-only
    std::uint64_t writesPruned = 0;
    std::uint64_t totalWrites = 0;
    bool identical = false;

    // Planner-index phase (valid when indexEnabled).
    std::uint64_t planLinearNs = 0;  ///< planNs, no sidecar attached
    std::uint64_t planIndexedNs = 0; ///< planNs, sidecar attached
    double planSpeedup = 0;
    std::uint64_t blocksIndexElided = 0;
    bool indexIdentical = false;
    double openPlainMs = 0;   ///< MappedTrace open, no sidecar on disk
    double openIndexedMs = 0; ///< MappedTrace open, sidecar attached
};

} // namespace

int
main()
{
    const int reps = 5;
    const int plan_reps = 9;
    const int open_reps = 15;
    const bool index_enabled = trace::traceIndexEnabled();
    bool ok = true;
    std::vector<Row> rows;

    for (auto name : workload::workloadNames()) {
        auto w = workload::makeWorkload(name);
        trace::Trace trace = workload::runTraced(*w);
        session::SessionSet set =
            session::SessionSet::enumerate(trace);

        Row row;
        row.program = std::string(name);
        row.events = trace.events.size();
        row.totalWrites = trace.totalWrites;

        const std::string v2_path =
            "bench_query_" + row.program + ".v2.trc";
        trace::saveTrace(trace, v2_path);
        trace::MappedTrace mapped(v2_path);
        row.blocks = mapped.blockCount();

        query::QuerySpec spec;
        spec.kindMask = query::kindBit(trace::EventKind::Write);
        spec.sessions = {sparseStudySession(set)};
        spec.agg = query::Agg::Count;

        query::QueryResult brute, pushed;
        row.bruteMs = medianOf(
            reps, [&] { brute = query::scanAll(trace, set, spec); });

        query::QueryStats stats;
        query::QueryOptions serial;
        serial.jobs = 1;
        row.pushdownMs = medianOf(reps, [&] {
            pushed = query::runQuery(mapped, set, spec, serial, &stats);
        });
        row.speedup = row.bruteMs / row.pushdownMs;
        row.matches = pushed.matches;
        row.blocksPruned = stats.blocksSkipped + stats.blocksControlOnly;
        row.writesPruned = stats.writesPruned;

        // Identity against the oracle, serial and threaded.
        query::QueryOptions threaded;
        threaded.jobs = 4;
        row.identical =
            pushed == brute &&
            query::runQuery(mapped, set, spec, threaded) == brute;
        if (!row.identical) {
            std::fprintf(stderr,
                         "FAIL: '%s' pushdown result diverges from "
                         "scanAll\n",
                         row.program.c_str());
            ok = false;
        }

        // ---- Planner-index phase: the same sparse-session ask on
        // the sparsest session instance, indexed vs index-free.
        // `mapped` predates the sidecar, so it plans without extents
        // even after the index exists on disk.
        if (index_enabled) {
            query::QuerySpec plan_spec;
            plan_spec.kindMask =
                query::kindBit(trace::EventKind::Write);
            plan_spec.sessions = {plannerStudySession(set)};
            plan_spec.agg = query::Agg::Count;

            row.openPlainMs = medianOf(
                open_reps, [&] { trace::MappedTrace open(v2_path); });
            trace::TraceIndex idx = trace::buildTraceIndex(mapped);
            trace::saveTraceIndex(idx,
                                  trace::traceIndexPathFor(v2_path));
            row.openIndexedMs = medianOf(
                open_reps, [&] { trace::MappedTrace open(v2_path); });
            trace::MappedTrace indexed(v2_path);
            if (indexed.index() == nullptr) {
                std::fprintf(stderr,
                             "FAIL: '%s' sidecar did not attach\n",
                             row.program.c_str());
                ok = false;
            }

            query::QueryResult linear_res, indexed_res;
            row.planLinearNs = minPlanNs(plan_reps, mapped, set,
                                         plan_spec, linear_res);
            row.planIndexedNs = minPlanNs(plan_reps, indexed, set,
                                          plan_spec, indexed_res);
            row.planSpeedup = row.planIndexedNs
                                  ? (double)row.planLinearNs /
                                        (double)row.planIndexedNs
                                  : 0.0;
            query::QueryStats idx_stats;
            query::QueryOptions serial;
            serial.jobs = 1;
            query::runQuery(indexed, set, plan_spec, serial,
                            &idx_stats);
            row.blocksIndexElided = idx_stats.blocksIndexElided;

            query::QueryOptions threaded;
            threaded.jobs = 4;
            row.indexIdentical =
                indexed_res == linear_res &&
                indexed_res == query::scanAll(trace, set, plan_spec) &&
                query::runQuery(indexed, set, plan_spec, threaded) ==
                    linear_res;
            if (!row.indexIdentical) {
                std::fprintf(stderr,
                             "FAIL: '%s' indexed planner result "
                             "diverges\n",
                             row.program.c_str());
                ok = false;
            }
            std::remove(trace::traceIndexPathFor(v2_path).c_str());
        }

        std::remove(v2_path.c_str());
        rows.push_back(std::move(row));
    }

    int fast_enough = 0;
    for (const auto &r : rows)
        fast_enough += r.speedup >= 5.0 ? 1 : 0;
    if (fast_enough < 3) {
        std::fprintf(stderr,
                     "FAIL: pushdown >= 5x brute force on only %d of "
                     "%zu workloads (acceptance floor 3)\n",
                     fast_enough, rows.size());
        ok = false;
    }

    // The sidecar index's acceptance floors: >= 5x planner speedup on
    // at least 3 of the 5 workloads, and no workload planning slower
    // with the sidecar than without it.
    int plan_fast_enough = 0;
    if (index_enabled) {
        for (const auto &r : rows) {
            plan_fast_enough += r.planSpeedup >= 5.0 ? 1 : 0;
            if (r.planIndexedNs > r.planLinearNs) {
                std::fprintf(stderr,
                             "FAIL: '%s' planner slower with the "
                             "sidecar index (%llu ns vs %llu ns)\n",
                             r.program.c_str(),
                             (unsigned long long)r.planIndexedNs,
                             (unsigned long long)r.planLinearNs);
                ok = false;
            }
        }
        if (plan_fast_enough < 3) {
            std::fprintf(stderr,
                         "FAIL: planner >= 5x faster with the sidecar "
                         "index on only %d of %zu workloads "
                         "(acceptance floor 3)\n",
                         plan_fast_enough, rows.size());
            ok = false;
        }
    }

    report::TextTable table;
    table.header({"Program", "Events", "Matches", "Brute (ms)",
                  "Pushdown (ms)", "Speedup", "Pruned", "Identical"});
    for (const auto &r : rows) {
        table.row({r.program, std::to_string(r.events),
                   std::to_string(r.matches),
                   report::fmt(r.bruteMs, 2),
                   report::fmt(r.pushdownMs, 2),
                   report::fmt(r.speedup, 2) + "x",
                   std::to_string(r.blocksPruned) + "/" +
                       std::to_string(r.blocks),
                   r.identical ? "yes" : "NO"});
    }
    std::printf("Sparse-session query, pushdown vs scanAll, median of "
                "%d:\n%s(Pruned = blocks whose write columns never "
                "decoded; both sides answer the same QuerySpec)\n\n",
                reps, table.render().c_str());

    if (index_enabled) {
        report::TextTable idx_table;
        idx_table.header({"Program", "Plan linear (ns)",
                          "Plan indexed (ns)", "Speedup", "Elided",
                          "Identical", "Open plain (ms)",
                          "Open indexed (ms)"});
        for (const auto &r : rows) {
            idx_table.row({r.program,
                           std::to_string(r.planLinearNs),
                           std::to_string(r.planIndexedNs),
                           report::fmt(r.planSpeedup, 2) + "x",
                           std::to_string(r.blocksIndexElided) + "/" +
                               std::to_string(r.blocks),
                           r.indexIdentical ? "yes" : "NO",
                           report::fmt(r.openPlainMs, 3),
                           report::fmt(r.openIndexedMs, 3)});
        }
        std::printf("Planner loop with the .edbi sidecar index, "
                    "sparsest session, min of %d; trace open, median "
                    "of %d:\n%s(Elided = control decodes the extents "
                    "proved unneeded; floor 5x on >= 3 workloads, never "
                    "slower)\n\n",
                    plan_reps, open_reps, idx_table.render().c_str());
    } else {
        std::printf("Planner-index phase skipped: EDB_TRACE_INDEX "
                    "pins indexing off\n\n");
    }

    // ---- JSON (shared BENCH_*.json envelope, bench_json.h).
    edb::benchhygiene::BenchJsonWriter writer("BENCH_query.json",
                                              "query", reps);
    if (!writer.ok())
        return 1;
    std::FILE *json = writer.file();
    std::fprintf(json,
                 "{\n"
                 "    \"identical\": %s,\n"
                 "    \"speedup_5x_count\": %d,\n"
                 "    \"workloads\": [\n",
                 ok ? "true" : "false", fast_enough);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &r = rows[i];
        std::fprintf(
            json,
            "      {\"program\": \"%s\", \"events\": %zu, "
            "\"matches\": %llu, "
            "\"brute_ms\": %.3f, \"pushdown_ms\": %.3f, "
            "\"speedup\": %.3f, \"blocks\": %llu, "
            "\"blocks_pruned\": %llu, \"writes_pruned\": %llu, "
            "\"total_writes\": %llu, \"identical\": %s}%s\n",
            r.program.c_str(), r.events,
            (unsigned long long)r.matches, r.bruteMs, r.pushdownMs,
            r.speedup, (unsigned long long)r.blocks,
            (unsigned long long)r.blocksPruned,
            (unsigned long long)r.writesPruned,
            (unsigned long long)r.totalWrites,
            r.identical ? "true" : "false",
            i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "    ],\n");
    if (index_enabled) {
        bool idx_identical = true;
        double gcc_plan_speedup = 0.0;
        for (const auto &r : rows) {
            idx_identical = idx_identical && r.indexIdentical;
            if (r.program == "gcc")
                gcc_plan_speedup = r.planSpeedup;
        }
        std::fprintf(json,
                     "    \"index\": {\n"
                     "      \"enabled\": true,\n"
                     "      \"identical\": %s,\n"
                     "      \"gcc_plan_speedup\": %.3f,\n"
                     "      \"plan_speedup_5x_count\": %d,\n"
                     "      \"workloads\": [\n",
                     idx_identical ? "true" : "false",
                     gcc_plan_speedup, plan_fast_enough);
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const auto &r = rows[i];
            std::fprintf(
                json,
                "        {\"program\": \"%s\", "
                "\"plan_linear_ns\": %llu, "
                "\"plan_indexed_ns\": %llu, "
                "\"plan_speedup\": %.3f, "
                "\"blocks_index_elided\": %llu, "
                "\"identical\": %s, "
                "\"open_plain_ms\": %.3f, "
                "\"open_indexed_ms\": %.3f}%s\n",
                r.program.c_str(),
                (unsigned long long)r.planLinearNs,
                (unsigned long long)r.planIndexedNs, r.planSpeedup,
                (unsigned long long)r.blocksIndexElided,
                r.indexIdentical ? "true" : "false", r.openPlainMs,
                r.openIndexedMs, i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(json, "      ]\n    }\n  }");
    } else {
        std::fprintf(json, "    \"index\": {\"enabled\": false}\n  }");
    }
    writer.close();
    std::printf("Wrote BENCH_query.json (%d/%zu workloads >= 5x "
                "pushdown speedup)\n",
                fast_enough, rows.size());
    return ok ? 0 : 1;
}
