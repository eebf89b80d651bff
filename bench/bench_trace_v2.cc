/**
 * @file
 * Acceptance benchmark for the EDBT v2 blocked trace container
 * (docs/FORMAT.md) and the summary-driven block-skip replay path
 * (DESIGN.md §11). Both replay paths start from the same artifact of
 * the same freshly-traced workload and are measured back-to-back, so
 * the reported ratios compare like with like on this machine.
 *
 * Three things are measured per paper workload:
 *
 *  - container size: encoded bytes and bytes per event
 *    (tools/perf_smoke_check.py holds each program under a
 *    bytes-per-event ceiling);
 *  - encode and decode bandwidth, in raw-event MB/s: writeTrace of
 *    the whole trace into memory, and a full MappedTrace block
 *    decode;
 *  - a sparse-session study: phase 2 of one monitor session, end to
 *    end from the on-disk artifact — the materialized path loads
 *    every event (loadTrace) and replays them all, the skip path maps
 *    the file and skips every block whose write summary misses the
 *    monitored pages. The skip result must stay bit-identical.
 *
 * All times are medians of `reps` repetitions. Emits
 * BENCH_trace_v2.json into the working directory and exits nonzero
 * only when the skip result diverges or the in-memory encoding differs
 * in size from the file; the floors live in one place,
 * tools/perf_smoke_check.py, which gates the deterministic fields
 * against the committed bench/BENCH_trace_v2.json.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <streambuf>
#include <string>
#include <vector>

#include "bench_json.h"
#include "report/table.h"
#include "session/session.h"
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

/**
 * The monitor session a sparse study replays: the first OneLocalAuto
 * session (a single short-lived object — the "watch this variable"
 * case the paper's debugger user actually has), falling back to
 * session 0 when a workload has none.
 */
session::SessionId
sparseStudySession(const session::SessionSet &set)
{
    for (const session::SessionInfo &s : set.sessions()) {
        if (s.type == session::SessionType::OneLocalAuto)
            return s.id;
    }
    return 0;
}

/** An output buffer appending to one string, reserved up front so an
 *  encode timing pays no growth of its sink. */
struct StringSink : std::streambuf
{
    std::string bytes;

    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        bytes.append(s, (std::size_t)n);
        return n;
    }

    int_type
    overflow(int_type c) override
    {
        if (!traits_type::eq_int_type(c, traits_type::eof()))
            bytes.push_back(traits_type::to_char_type(c));
        return c;
    }
};

struct Row
{
    std::string program;
    std::size_t events = 0;
    std::size_t bytes = 0;
    double bytesPerEvent = 0;
    double encodeMs = 0;   ///< writeTrace of the whole trace to memory
    double encodeMbps = 0;
    double decodeMbps = 0;
    double replayLoadedMs = 0; ///< loadTrace + full replay, one session
    double replaySkipMs = 0;   ///< map + block-skip replay, same session
    double speedup = 0;        ///< replayLoadedMs / replaySkipMs
    std::uint64_t blocks = 0;
    std::uint64_t blocksSkipped = 0;
    std::uint64_t blocksControlOnly = 0;
    std::uint64_t writesSkipped = 0;
    bool identical = false;
};

} // namespace

int
main()
{
    const int reps = 5;
    bool ok = true;
    std::vector<Row> rows;
    std::uint64_t sink = 0;

    for (auto name : workload::workloadNames()) {
        auto w = workload::makeWorkload(name);
        trace::Trace trace = workload::runTraced(*w);
        session::SessionSet set =
            session::SessionSet::enumerate(trace);

        Row row;
        row.program = std::string(name);
        row.events = trace.events.size();

        // ---- Container size.
        const std::string path = "bench_v2_" + row.program + ".trc";
        trace::saveTrace(trace, path);
        trace::MappedTrace mapped(path);
        row.bytes = (std::size_t)mapped.fileBytes();
        row.bytesPerEvent = (double)row.bytes / (double)row.events;
        row.blocks = mapped.blockCount();

        // ---- Encode and decode bandwidth in raw-event MB/s (events x
        // sizeof(Event) per second), the unit phase 2 consumes.
        const double raw_mb = (double)(row.events * sizeof(trace::Event)) /
                              (1024.0 * 1024.0);
        StringSink sink_buf;
        sink_buf.bytes.reserve(row.bytes);
        row.encodeMs = medianOf(reps, [&] {
            sink_buf.bytes.clear();
            std::ostream os(&sink_buf);
            trace::writeTrace(trace, os);
        });
        row.encodeMbps = raw_mb / (row.encodeMs / 1000.0);
        if (sink_buf.bytes.size() != row.bytes) {
            std::fprintf(stderr,
                         "FAIL: '%s' encodes %zu bytes in memory but "
                         "%zu on disk\n",
                         row.program.c_str(), sink_buf.bytes.size(),
                         row.bytes);
            ok = false;
        }

        double decode_ms = medianOf(reps, [&] {
            std::vector<trace::Event> buf(mapped.largestBlockEvents());
            for (std::size_t b = 0; b < mapped.blockCount(); ++b) {
                mapped.decodeBlock(b, buf.data());
                sink += mapped.block(b).events;
            }
        });
        row.decodeMbps = raw_mb / (decode_ms / 1000.0);

        // ---- Sparse-session study, end to end from the artifact.
        const session::SessionId study = sparseStudySession(set);
        session::SessionSet sub = set.subset({study});

        sim::SimResult loaded_result, skip_result;
        row.replayLoadedMs = medianOf(reps, [&] {
            loaded_result = sim::simulate(trace::loadTrace(path), sub);
        });
        sim::BlockSkipStats skip;
        row.replaySkipMs = medianOf(reps, [&] {
            trace::MappedTrace m(path);
            skip_result = sim::simulate(m, sub, &skip);
        });
        row.speedup = row.replayLoadedMs / row.replaySkipMs;
        row.blocksSkipped = skip.blocksSkipped;
        row.blocksControlOnly = skip.blocksControlOnly;
        row.writesSkipped = skip.writesSkipped;

        // Bit-identity: the skip path against the full replay of the
        // loaded trace, and both against the in-memory sweep.
        row.identical = loaded_result == skip_result &&
                        skip_result == sim::simulate(trace, sub);
        if (!row.identical) {
            std::fprintf(stderr,
                         "FAIL: '%s' block-skip counters diverge from "
                         "the full replay\n",
                         row.program.c_str());
            ok = false;
        }

        std::remove(path.c_str());
        rows.push_back(std::move(row));
    }

    report::TextTable table;
    table.header({"Program", "Events", "B/event", "Encode MB/s",
                  "Decode MB/s",
                  "Loaded (ms)", "Skip (ms)", "Speedup", "Skipped",
                  "Identical"});
    for (const auto &r : rows) {
        table.row({r.program, std::to_string(r.events),
                   report::fmt(r.bytesPerEvent, 2),
                   report::fmt(r.encodeMbps, 0),
                   report::fmt(r.decodeMbps, 0),
                   report::fmt(r.replayLoadedMs, 2),
                   report::fmt(r.replaySkipMs, 2),
                   report::fmt(r.speedup, 2) + "x",
                   std::to_string(r.blocksSkipped + r.blocksControlOnly) +
                       "/" + std::to_string(r.blocks),
                   r.identical ? "yes" : "NO"});
    }
    std::printf("EDBT v2 block skip vs full replay, sparse-session "
                "study, median of %d:\n%s"
                "(Skipped = blocks whose writes never decoded; the "
                "loaded path materializes and replays every event)\n\n",
                reps, table.render().c_str());

    // ---- JSON (shared BENCH_*.json envelope, bench_json.h).
    edb::benchhygiene::BenchJsonWriter writer("BENCH_trace_v2.json",
                                              "trace_v2", reps);
    if (!writer.ok())
        return 1;
    std::FILE *json = writer.file();
    std::fprintf(json,
                 "{\n"
                 "    \"identical\": %s,\n"
                 "    \"workloads\": [\n",
                 ok ? "true" : "false");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &r = rows[i];
        std::fprintf(
            json,
            "      {\"program\": \"%s\", \"events\": %zu, "
            "\"bytes\": %zu, \"bytes_per_event\": %.3f, "
            "\"encode_ms\": %.3f, \"encode_mbps\": %.1f, "
            "\"decode_mbps\": %.1f, "
            "\"replay_loaded_ms\": %.3f, \"replay_skip_ms\": %.3f, "
            "\"skip_speedup\": %.3f, \"blocks\": %llu, "
            "\"blocks_skipped\": %llu, \"blocks_control_only\": %llu, "
            "\"writes_skipped\": %llu, \"identical\": %s}%s\n",
            r.program.c_str(), r.events, r.bytes, r.bytesPerEvent,
            r.encodeMs, r.encodeMbps, r.decodeMbps, r.replayLoadedMs,
            r.replaySkipMs, r.speedup,
            (unsigned long long)r.blocks,
            (unsigned long long)r.blocksSkipped,
            (unsigned long long)r.blocksControlOnly,
            (unsigned long long)r.writesSkipped,
            r.identical ? "true" : "false",
            i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "    ]\n  }");
    writer.close();
    std::printf("Wrote BENCH_trace_v2.json\n");

    // The decode sink defeats dead-code elimination of the loops.
    if (sink == 0)
        std::fprintf(stderr, "note: decode sink unexpectedly zero\n");
    return ok ? 0 : 1;
}
