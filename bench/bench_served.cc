/**
 * @file
 * Acceptance benchmark for the edb-served daemon (DESIGN.md §13):
 * the two costs a multi-tenant monitor service adds over the
 * in-process library — connection lifecycle and the framed
 * notification round-trip — measured end to end over a real Unix
 * socket against an in-process Server.
 *
 * Two phases over one shared v2 trace (the paper's ctex workload):
 *
 *  - connection churn: connect + HELLO + BYE cycles, serially, the
 *    admission-control hot path (tenant table insert/erase plus two
 *    framed round-trips per cycle);
 *  - install/notify round-trip over N tenants: every tenant opens the
 *    *same* mapped trace (the cache must dedup to one mmap), installs
 *    a monitor spanning every write, subscribes, RUNs, drains the EVT
 *    stream and RESUMEs — the full streaming path under concurrency.
 *
 * Correctness is checked in-binary, not just timed: every tenant's
 * streamed notification count must equal its hit count, the RESUME
 * batch must account for every hit, a per-session RUN must be
 * bit-identical to the sim::simulate oracle, and the trace cache must
 * report exactly one shared mapping while all tenants hold it. Emits
 * BENCH_served.json (floors in tools/perf_smoke_check.py); any
 * failure exits nonzero.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_json.h"
#include "served/client.h"
#include "served/server.h"
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

/** Bounding box of the trace's write events, for a span-all monitor. */
AddrRange
writeSpan(const trace::Trace &t)
{
    Addr lo = ~0ull;
    Addr hi = 0;
    for (const trace::Event &e : t.events) {
        if (e.kind != trace::EventKind::Write)
            continue;
        lo = std::min(lo, e.begin);
        hi = std::max(hi, e.begin + e.size);
    }
    return AddrRange(lo, hi);
}

} // namespace

int
main(int argc, char **argv)
{
    const int reps = argc > 1 ? std::atoi(argv[1]) : 5;
    const int kChurnCycles = 200;
    const int kTenants = 8;

    // One shared artifact: the ctex workload saved as a v2 trace.
    const std::string trace_path =
        "/tmp/edb_bench_served." + std::to_string(::getpid()) + ".trc";
    const trace::Trace source =
        workload::runTraced(*workload::makeWorkload("ctex"));
    trace::saveTrace(source, trace_path);
    const AddrRange span = writeSpan(source);

    trace::MappedTrace mapped(trace_path);
    const session::SessionSet sessions =
        session::SessionSet::enumerate(mapped.registry());
    const sim::SimResult oracle = sim::simulate(mapped, sessions);

    served::ServerOptions options;
    options.socketPath =
        "/tmp/edb_bench_served." + std::to_string(::getpid()) + ".sock";
    options.workers = 4;
    // The span-all monitor may cover more address space than the
    // default per-monitor byte quota; the bench measures streaming,
    // not admission control.
    options.quotas.maxMonitorBytes = 1ull << 40;
    // The bench's span-all RUNs legitimately take seconds, so the
    // slow-request log would only add stderr noise to the timing.
    options.slowRequestMs = 0;
    served::Server server(options);
    server.start();

    bool ok = true;

    // -- phase 1: connection churn --------------------------------
    const double churn_ms = medianOf(reps, [&] {
        for (int i = 0; i < kChurnCycles; ++i) {
            served::Client c;
            c.connect(options.socketPath);
            if (c.hello("churn").serverName != "edb-served")
                ok = false;
            c.bye();
        }
    });
    const double conns_per_sec = kChurnCycles / (churn_ms / 1000.0);

    // -- phase 2: install/notify round-trip over N tenants --------
    std::uint64_t notifications = 0;
    std::uint64_t shared_mappings = 0;
    const double notify_ms = medianOf(reps, [&] {
        std::vector<std::thread> threads;
        std::atomic<std::uint64_t> streamed{0};
        std::atomic<std::uint64_t> mappings{~0ull};
        std::atomic<bool> round_ok{true};
        threads.reserve(kTenants);
        for (int i = 0; i < kTenants; ++i) {
            threads.emplace_back([&, i] {
                try {
                    served::Client c;
                    c.connect(options.socketPath);
                    c.hello("tenant-" + std::to_string(i));
                    const served::OpenResult open =
                        c.openTrace(trace_path);
                    c.install(span);
                    c.subscribe(true);
                    if (i == 0) {
                        mappings.store(
                            server.registry().traces().size());
                    }
                    const served::RunReply run = c.run(open.traceId);
                    if (run.hits != run.writes)
                        round_ok = false;
                    if (!c.waitForEvents(
                            (std::size_t)run.notifications))
                        round_ok = false;
                    if (c.takeEvents().size() != run.notifications)
                        round_ok = false;
                    const served::ResumeReply batch = c.resume();
                    if (batch.hits.size() != 1 ||
                        batch.hits[0].count != run.hits ||
                        batch.dropped != 0)
                        round_ok = false;
                    streamed += run.notifications;
                    c.bye();
                } catch (const std::exception &e) {
                    std::fprintf(stderr, "tenant %d: %s\n", i,
                                 e.what());
                    round_ok = false;
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
        if (!round_ok.load())
            ok = false;
        notifications = streamed.load();
        shared_mappings = mappings.load();
    });
    const double notify_per_sec = notifications / (notify_ms / 1000.0);
    if (shared_mappings != 1) {
        std::fprintf(stderr,
                     "trace cache held %llu mappings for one shared "
                     "file (want 1)\n",
                     (unsigned long long)shared_mappings);
        ok = false;
    }

    // -- correctness: session RUN bit-identical to the oracle -----
    {
        served::Client c;
        c.connect(options.socketPath);
        c.hello("oracle");
        const served::OpenResult open = c.openTrace(trace_path);
        std::vector<std::uint32_t> ids;
        for (std::uint32_t s = 0; s < open.sessionCount; ++s)
            ids.push_back(s);
        const served::RunReply run = c.run(open.traceId, ids);
        if (run.totalWrites != oracle.totalWrites ||
            run.counters.size() != oracle.counters.size()) {
            ok = false;
        } else {
            for (std::size_t i = 0; i < ids.size(); ++i) {
                if (!(run.counters[i] == oracle.counters[i]))
                    ok = false;
            }
        }
        c.bye();
    }

    server.stop();
    std::remove(trace_path.c_str());

    std::printf("bench_served: churn %.1f conns/s, notify %.0f "
                "notifications/s over %d tenants (%llu streamed), "
                "oracle %s\n",
                conns_per_sec, notify_per_sec, kTenants,
                (unsigned long long)notifications,
                ok ? "identical" : "DIVERGED");

    benchhygiene::BenchJsonWriter json("BENCH_served.json", "served",
                                       reps);
    if (!json.ok())
        return 1;
    std::fprintf(json.file(),
                 "{\n"
                 "    \"identical\": %s,\n"
                 "    \"churn_cycles\": %d,\n"
                 "    \"churn_ms_median\": %.3f,\n"
                 "    \"conns_per_sec\": %.1f,\n"
                 "    \"tenants\": %d,\n"
                 "    \"notifications\": %llu,\n"
                 "    \"notify_ms_median\": %.3f,\n"
                 "    \"notifications_per_sec\": %.1f\n"
                 "  }",
                 ok ? "true" : "false", kChurnCycles, churn_ms,
                 conns_per_sec, kTenants,
                 (unsigned long long)notifications, notify_ms,
                 notify_per_sec);
    json.close();
    return ok ? 0 : 1;
}
