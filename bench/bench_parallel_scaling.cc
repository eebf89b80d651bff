/**
 * @file
 * Scaling benchmark for the parallel sharded phase-2 simulator.
 *
 * Traces every workload, picks the largest trace, and times the
 * sequential one-pass simulate() against parallelSimulate() at
 * 1/2/4/8 jobs (in-memory sharding) plus the mapped front end.
 * Every parallel result is checked counter-for-counter against the
 * sequential baseline before its time is reported — a wrong answer
 * fails the benchmark rather than producing a meaningless speedup.
 *
 * Emits BENCH_parallel.json into the working directory. Speedups are
 * only meaningful relative to hardware_concurrency, which the JSON
 * records: on a single-core machine the expected curve is flat
 * (slightly below 1x, paying the shard/merge overhead).
 */

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "report/table.h"
#include "session/session.h"
#include "sim/parallel_sim.h"
#include "sim/simulator.h"
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

/** Best-of-N wall time of `fn`, in milliseconds. */
template <typename Fn>
double
bestOf(int reps, Fn &&fn)
{
    double best = 0;
    for (int i = 0; i < reps; ++i) {
        auto start = std::chrono::steady_clock::now();
        fn();
        double ms = msSince(start);
        if (i == 0 || ms < best)
            best = ms;
    }
    return best;
}

bool
resultsEqual(const sim::SimResult &a, const sim::SimResult &b)
{
    if (a.totalWrites != b.totalWrites ||
        a.counters.size() != b.counters.size())
        return false;
    for (std::size_t s = 0; s < a.counters.size(); ++s) {
        const auto &x = a.counters[s];
        const auto &y = b.counters[s];
        if (x.installs != y.installs || x.removes != y.removes ||
            x.hits != y.hits)
            return false;
        for (std::size_t i = 0; i < sim::vmPageSizeCount; ++i) {
            if (x.vm[i].protects != y.vm[i].protects ||
                x.vm[i].unprotects != y.vm[i].unprotects ||
                x.vm[i].activePageMisses != y.vm[i].activePageMisses)
                return false;
        }
    }
    return true;
}

struct JobsRow
{
    unsigned jobs;
    double ms;
    double speedup;
    std::size_t shards;
    std::size_t peakBufferedEvents;
};

} // namespace

int
main()
{
    // Largest workload trace = the most honest scaling target.
    trace::Trace trace;
    std::string program;
    for (auto name : workload::workloadNames()) {
        auto w = workload::makeWorkload(name);
        trace::Trace t = workload::runTraced(*w);
        if (t.events.size() > trace.events.size()) {
            program = std::string(name);
            trace = std::move(t);
        }
    }
    session::SessionSet set = session::SessionSet::enumerate(trace);

    std::printf("Parallel phase-2 scaling on '%s': %zu events, "
                "%zu sessions, hardware_concurrency=%u\n\n",
                program.c_str(), trace.events.size(), set.size(),
                std::thread::hardware_concurrency());

    const int reps = 3;
    sim::SimResult seq;
    double seq_ms =
        bestOf(reps, [&] { seq = sim::simulate(trace, set); });

    std::vector<JobsRow> rows;
    bool all_identical = true;
    for (unsigned jobs : {1u, 2u, 4u, 8u}) {
        sim::ParallelOptions opts;
        opts.jobs = jobs;
        sim::ParallelStats stats;
        sim::SimResult par;
        double ms = bestOf(reps, [&] {
            par = sim::parallelSimulate(trace, set, opts, &stats);
        });
        if (!resultsEqual(par, seq)) {
            std::fprintf(stderr,
                         "FAIL: parallel result at jobs=%u diverges "
                         "from sequential\n",
                         jobs);
            all_identical = false;
        }
        rows.push_back({jobs, ms, seq_ms / ms, stats.shards,
                        stats.peakBufferedEvents});
    }

    // Mapped front end at jobs=4, over an in-memory encode (no
    // filesystem dependency) opened as an owned-bytes MappedTrace.
    std::stringstream encoded;
    trace::writeTrace(trace, encoded);
    const std::string bytes = encoded.str();
    sim::ParallelStats mapped_stats;
    sim::SimResult mapped_result;
    double mapped_ms = bestOf(reps, [&] {
        trace::MappedTrace mapped(
            std::vector<unsigned char>(bytes.begin(), bytes.end()));
        sim::ParallelOptions opts;
        opts.jobs = 4;
        mapped_result = sim::parallelSimulate(mapped, set, opts,
                                              &mapped_stats);
    });
    if (!resultsEqual(mapped_result, seq)) {
        std::fprintf(stderr, "FAIL: mapped parallel result "
                             "diverges from sequential\n");
        all_identical = false;
    }

    report::TextTable table;
    table.header({"Configuration", "Time (ms)", "Speedup", "Shards",
                  "Peak buffered events"});
    table.row({"sequential", report::fmt(seq_ms, 2), "1.00", "-", "-"});
    for (const auto &r : rows) {
        table.row({"parallel jobs=" + std::to_string(r.jobs),
                   report::fmt(r.ms, 2), report::fmt(r.speedup, 2),
                   std::to_string(r.shards),
                   std::to_string(r.peakBufferedEvents)});
    }
    table.row({"mapped jobs=4", report::fmt(mapped_ms, 2),
               report::fmt(seq_ms / mapped_ms, 2),
               std::to_string(mapped_stats.shards),
               std::to_string(mapped_stats.peakBufferedEvents)});
    std::fputs(table.render().c_str(), stdout);

    edb::benchhygiene::BenchJsonWriter writer("BENCH_parallel.json",
                                              "parallel_scaling",
                                              reps);
    if (!writer.ok())
        return 1;
    std::FILE *json = writer.file();
    std::fprintf(json,
                 "{\n"
                 "    \"program\": \"%s\",\n"
                 "    \"events\": %zu,\n"
                 "    \"sessions\": %zu,\n"
                 "    \"hardware_concurrency\": %u,\n"
                 "    \"identical_to_sequential\": %s,\n"
                 "    \"sequential_ms\": %.3f,\n"
                 "    \"parallel\": [\n",
                 program.c_str(), trace.events.size(), set.size(),
                 std::thread::hardware_concurrency(),
                 all_identical ? "true" : "false", seq_ms);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &r = rows[i];
        std::fprintf(json,
                     "      {\"jobs\": %u, \"ms\": %.3f, "
                     "\"speedup\": %.3f, \"shards\": %zu, "
                     "\"peak_buffered_events\": %zu}%s\n",
                     r.jobs, r.ms, r.speedup, r.shards,
                     r.peakBufferedEvents,
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json,
                 "    ],\n"
                 "    \"mapped\": {\"jobs\": 4, \"ms\": %.3f, "
                 "\"speedup\": %.3f, \"shards\": %zu, "
                 "\"peak_buffered_events\": %zu}\n"
                 "  }",
                 mapped_ms, seq_ms / mapped_ms, mapped_stats.shards,
                 mapped_stats.peakBufferedEvents);
    writer.close();
    std::printf("\nWrote BENCH_parallel.json\n");

    return all_identical ? 0 : 1;
}
