/**
 * @file
 * Acceptance benchmark for the EDBT v2 blocked trace container
 * (docs/FORMAT.md) and the summary-driven block-skip replay path
 * (DESIGN.md §11), in the bench_sim_hot in-binary style: both
 * containers are produced from the same freshly-traced workloads and
 * measured back-to-back, so the reported ratios compare like with
 * like on this machine.
 *
 * Three things are measured per paper workload:
 *
 *  - container size: the v1 flat and v2 blocked encodings of the same
 *    trace (v2 must be >= 1.5x smaller on every workload);
 *  - decode bandwidth: full MappedTrace block decode vs loadTrace of
 *    the v1 file, in raw-event MB/s;
 *  - a sparse-session study: phase 2 of one monitor session, end to
 *    end from the on-disk artifact — the v1 path loads and replays
 *    every event, the v2 path skips every block whose write summary
 *    misses the monitored pages. The v2 result must stay bit-identical
 *    and be >= 1.3x faster on at least 3 of the 5 workloads.
 *
 * All times are medians of `reps` repetitions. Emits
 * BENCH_trace_v2.json into the working directory; a correctness or
 * acceptance failure exits nonzero.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
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

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), (std::streamsize)bytes.size());
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

struct Row
{
    std::string program;
    std::size_t events = 0;
    std::size_t v1Bytes = 0;
    std::size_t v2Bytes = 0;
    double sizeRatio = 0;  ///< v1 / v2, bigger is better
    double decodeV1Mbps = 0;
    double decodeV2Mbps = 0;
    double replayV1Ms = 0; ///< v1 load + full replay, one session
    double replayV2Ms = 0; ///< v2 map + block-skip replay, same session
    double speedup = 0;    ///< replayV1Ms / replayV2Ms
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

        // ---- Container size, same trace through both writers.
        std::stringstream s1, s2;
        trace::WriteOptions v1opts;
        v1opts.format = trace::TraceFormat::V1Flat;
        trace::writeTrace(trace, s1, v1opts);
        trace::writeTrace(trace, s2);
        const std::string v1_bytes = s1.str();
        const std::string v2_bytes = s2.str();
        row.v1Bytes = v1_bytes.size();
        row.v2Bytes = v2_bytes.size();
        row.sizeRatio = (double)row.v1Bytes / (double)row.v2Bytes;
        if (row.sizeRatio < 1.5) {
            std::fprintf(stderr,
                         "FAIL: '%s' v2 only %.2fx smaller than v1 "
                         "(acceptance floor 1.5x)\n",
                         row.program.c_str(), row.sizeRatio);
            ok = false;
        }

        const std::string v1_path =
            "bench_v2_" + row.program + ".v1.trc";
        const std::string v2_path =
            "bench_v2_" + row.program + ".v2.trc";
        writeFile(v1_path, v1_bytes);
        writeFile(v2_path, v2_bytes);

        // ---- Decode bandwidth in raw-event MB/s (events decoded x
        // sizeof(Event) per second), the unit phase 2 consumes.
        const double raw_mb = (double)(row.events * sizeof(trace::Event)) /
                              (1024.0 * 1024.0);
        double v1_decode_ms = medianOf(reps, [&] {
            sink += trace::loadTrace(v1_path).events.size();
        });
        trace::MappedTrace mapped(v2_path);
        row.blocks = mapped.blockCount();
        double v2_decode_ms = medianOf(reps, [&] {
            std::vector<trace::Event> buf(mapped.largestBlockEvents());
            for (std::size_t b = 0; b < mapped.blockCount(); ++b) {
                mapped.decodeBlock(b, buf.data());
                sink += mapped.block(b).events;
            }
        });
        row.decodeV1Mbps = raw_mb / (v1_decode_ms / 1000.0);
        row.decodeV2Mbps = raw_mb / (v2_decode_ms / 1000.0);

        // ---- Sparse-session study, end to end from the artifact.
        const session::SessionId study = sparseStudySession(set);
        session::SessionSet sub = set.subset({study});

        sim::SimResult v1_result, v2_result;
        row.replayV1Ms = medianOf(reps, [&] {
            v1_result = sim::simulate(trace::loadTrace(v1_path), sub);
        });
        sim::BlockSkipStats skip;
        row.replayV2Ms = medianOf(reps, [&] {
            trace::MappedTrace m(v2_path);
            v2_result = sim::simulate(m, sub, &skip);
        });
        row.speedup = row.replayV1Ms / row.replayV2Ms;
        row.blocksSkipped = skip.blocksSkipped;
        row.blocksControlOnly = skip.blocksControlOnly;
        row.writesSkipped = skip.writesSkipped;

        // Bit-identity: the skip path against the v1 full replay, and
        // both against the in-memory sweep.
        row.identical = v1_result == v2_result &&
                        v2_result == sim::simulate(trace, sub);
        if (!row.identical) {
            std::fprintf(stderr,
                         "FAIL: '%s' block-skip counters diverge from "
                         "v1 full replay\n",
                         row.program.c_str());
            ok = false;
        }

        std::remove(v1_path.c_str());
        std::remove(v2_path.c_str());
        rows.push_back(std::move(row));
    }

    int fast_enough = 0;
    for (const auto &r : rows)
        fast_enough += r.speedup >= 1.3 ? 1 : 0;
    if (fast_enough < 3) {
        std::fprintf(stderr,
                     "FAIL: block-skip replay >= 1.3x on only %d of "
                     "%zu workloads (acceptance floor 3)\n",
                     fast_enough, rows.size());
        ok = false;
    }

    report::TextTable table;
    table.header({"Program", "Events", "v1/v2 size", "v2 MB/s",
                  "v1 (ms)", "v2 skip (ms)", "Speedup", "Skipped",
                  "Identical"});
    for (const auto &r : rows) {
        table.row({r.program, std::to_string(r.events),
                   report::fmt(r.sizeRatio, 2) + "x",
                   report::fmt(r.decodeV2Mbps, 0),
                   report::fmt(r.replayV1Ms, 2),
                   report::fmt(r.replayV2Ms, 2),
                   report::fmt(r.speedup, 2) + "x",
                   std::to_string(r.blocksSkipped + r.blocksControlOnly) +
                       "/" + std::to_string(r.blocks),
                   r.identical ? "yes" : "NO"});
    }
    std::printf("EDBT v2 vs v1, sparse-session study, median of %d:\n%s"
                "(Skipped = blocks whose writes never decoded; v1 path "
                "loads and replays every event)\n\n",
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
                 "    \"speedup_13x_count\": %d,\n"
                 "    \"workloads\": [\n",
                 ok ? "true" : "false", fast_enough);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &r = rows[i];
        std::fprintf(
            json,
            "      {\"program\": \"%s\", \"events\": %zu, "
            "\"v1_bytes\": %zu, \"v2_bytes\": %zu, "
            "\"size_ratio\": %.3f, "
            "\"decode_v1_mbps\": %.1f, \"decode_v2_mbps\": %.1f, "
            "\"replay_v1_ms\": %.3f, \"replay_v2_ms\": %.3f, "
            "\"skip_speedup\": %.3f, \"blocks\": %llu, "
            "\"blocks_skipped\": %llu, \"blocks_control_only\": %llu, "
            "\"writes_skipped\": %llu, \"identical\": %s}%s\n",
            r.program.c_str(), r.events, r.v1Bytes, r.v2Bytes,
            r.sizeRatio, r.decodeV1Mbps, r.decodeV2Mbps, r.replayV1Ms,
            r.replayV2Ms, r.speedup, (unsigned long long)r.blocks,
            (unsigned long long)r.blocksSkipped,
            (unsigned long long)r.blocksControlOnly,
            (unsigned long long)r.writesSkipped,
            r.identical ? "true" : "false",
            i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "    ]\n  }");
    writer.close();
    std::printf("Wrote BENCH_trace_v2.json (%d/%zu workloads >= 1.3x "
                "skip speedup)\n",
                fast_enough, rows.size());

    // The decode sink defeats dead-code elimination of the loops.
    if (sink == 0)
        std::fprintf(stderr, "note: decode sink unexpectedly zero\n");
    return ok ? 0 : 1;
}
