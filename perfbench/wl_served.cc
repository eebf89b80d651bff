/**
 * @file
 * Workload `served`: the multi-tenant daemon, client-observed.
 *
 * An in-process served::Server listens on a Unix socket in the run's
 * work directory. kTenants tenants (one), each a blocking
 * served::Client on its own thread (closed loop), share one unindexed
 * trace (bps, the smallest program). Each tenant loops over a script:
 * HELLO; OPEN_TRACE eight times (timed as one batch); install 36
 * monitors and remove four; SUBSCRIBE; a live RUN with its EVT stream
 * drained, then RESUME; a session RUN on a subset; four QUERYs (timed
 * as one batch); METRICS every fourth script; BYE. The seed picks each
 * tenant's monitors, session subsets and query ranges (32 variants
 * per tenant, rotated by script). Each tenant's first script is a
 * discarded warm-up.
 *
 * The whole process runs on one CPU (see Served::run()).
 *
 * Roles of the end-to-end metrics: open_ms is OPEN_TRACE, op_ms and
 * op_tail_ms the live RUN, op2_ms the session RUN, op3_ms QUERY, and
 * rate_per_s the notifications per second of a live RUN.
 *
 * Checks: the session RUN equals sim::simulate over the same subset
 * of the in-memory trace; the live RUN's hits and notifications equal
 * a brute-force count over the trace's writes, every notification
 * arrives as one EVT, and RESUME accounts for every one; each QUERY
 * equals query::scanAll.
 *
 * The traced run drives the same scripts from one client and replays
 * every op as direct Registry/Tenant calls (no socket), beside probes
 * of the mapping, the control-column pass, the subset replay and the
 * metrics/snapshot exporters; the layer probe adds the layers the
 * daemon does not call (workload, model, report, ...).
 */

#include <cstdio>
#include <filesystem>
#include <thread>

#include <sched.h>

#include "bench.h"
#include "obs/obs.h"
#include "query/query.h"
#include "served/client.h"
#include "served/server.h"
#include "session/session.h"
#include "sim/simulator.h"
#include "telemetry/prom.h"
#include "trace/trace_io.h"
#include "util/thread_pool.h"
#include "workload/workload.h"

namespace pb {
namespace {

using namespace edb;

constexpr const char *kProgram = "bps"; ///< the shared trace
/** Tenants, capped by nproc. One: with two tenants on their own
 *  threads (plus their server threads) the 4-vCPU host this was tuned
 *  on spread every served metric 0.1-0.25 from run to run, against
 *  0.02-0.08 with one. With one tenant, each script's OPEN_TRACE maps
 *  the trace afresh, as the tenant's BYE dropped the last reference
 *  to it. */
constexpr unsigned kTenants = 1;
constexpr std::size_t kOpens = 8; ///< OPEN_TRACEs per script, one batch
constexpr std::size_t kMonitors = 32; ///< monitors live during the RUN
constexpr std::size_t kExtra = 4; ///< installed, then removed again
constexpr std::size_t kSubset = 8; ///< sessions per session RUN
constexpr std::size_t kQueries = 4; ///< QUERYs per script, one batch
constexpr std::size_t kVariants = 32; ///< script variants per tenant
constexpr std::size_t kProbeBatch = 16; ///< calls per exporter probe
/** Timed scripts per tenant at least: the RUN tail (p95) needs 10
 *  beyond it. */
constexpr std::size_t kMinScripts = 200;

struct Script
{
    std::vector<AddrRange> monitors; ///< the first kMonitors stay
    std::uint64_t hits = 0;
    std::uint64_t notifications = 0;
    std::vector<std::uint32_t> subset;
    sim::SimResult subsetSim;
    std::vector<served::WireQuery> queries;
    std::vector<std::uint64_t> matches;
};

/** Client-observed op times of one script, in ms. */
struct ScriptTimes
{
    double open = 0; ///< per OPEN_TRACE (batch mean)
    double run = 0;
    double sessionRun = 0;
    double query = 0; ///< per QUERY (batch mean)
    std::uint64_t evts = 0;
    double total = 0;
};

class Served
{
  public:
    Served(const Options &opt, Outcome &out)
        : opt_(opt), out_(out), spans_(opt.trace), rng_(opt.seed)
    {
    }

    void run();

  private:
    double setupOnce(int k);
    void makeScripts();
    /** One tenant script over the socket. */
    ScriptTimes script(const Script &s, const std::string &name,
                       std::size_t rot, bool metrics, Spans &sp);
    /** The same script as direct Registry/Tenant calls, plus layer
     *  probes (traced run). Returns registry time per op kind. */
    ScriptTimes direct(served::Registry &reg, const Script &s);

    const Options &opt_;
    Outcome &out_;
    Spans spans_;
    Spans off_{false};
    Rng rng_;
    std::string path_;
    std::unique_ptr<served::Server> server_;
    std::vector<std::vector<Script>> scripts_; ///< [tenant][variant]
    /** Blocks whose writes the subset replay skipped, of all blocks. */
    std::uint64_t skipped_ = 0, blocks_ = 0;
};

double
Served::setupOnce(int k)
{
    server_.reset();
    const Clock::time_point t0 = Clock::now();
    path_ = opt_.workDir + "/" + kProgram + ".trc";
    // A fresh file, not a rewritten one: ext4 starts writing a file
    // truncated and rewritten back at once.
    std::filesystem::remove(path_);
    trace::saveTrace(workload::runTraced(*workload::makeWorkload(kProgram)),
                     path_);
    served::ServerOptions so;
    so.socketPath = opt_.workDir + "/s" + std::to_string(k) + ".sock";
    server_ = std::make_unique<served::Server>(so);
    server_->start();
    return msSince(t0) / 1e3;
}

void
Served::makeScripts()
{
    const trace::Trace t = trace::loadTrace(path_);
    const session::SessionSet sessions =
        session::SessionSet::enumerate(t.registry);

    // Monitor pool: installed objects' ranges with moderate hit counts,
    // sorted by hits.
    const std::vector<AddrRange> pool = monitorPool(t);
    if (pool.size() < (kMonitors + kExtra) * 4)
        throw std::runtime_error("served: monitor pool too small");

    std::vector<std::size_t> writes;
    for (std::size_t i = 0; i < t.events.size(); ++i) {
        if (t.events[i].kind == trace::EventKind::Write)
            writes.push_back(i);
    }

    // Stratified picks: the monitors that stay are one from each
    // hit-count stratum, so every script carries a similar
    // notification load; the extras are any others.
    const std::size_t tenants =
        std::clamp(std::thread::hardware_concurrency(), 1u, kTenants);
    const std::size_t per = pool.size() / kMonitors;
    scripts_.assign(tenants, std::vector<Script>(kVariants));
    std::vector<Script *> all;
    for (auto &v : scripts_) {
        for (Script &s : v) {
            for (std::size_t k = 0; k < kMonitors; ++k)
                s.monitors.push_back(pool[k * per + pick(rng_, per)]);
            while (s.monitors.size() < kMonitors + kExtra) {
                const AddrRange r = pool[pick(rng_, pool.size())];
                if (std::find(s.monitors.begin(), s.monitors.end(), r) ==
                    s.monitors.end())
                    s.monitors.push_back(r);
            }
            for (std::size_t k = 0; k < kSubset; ++k)
                s.subset.push_back((std::uint32_t)pick(rng_, sessions.size()));
            std::sort(s.subset.begin(), s.subset.end());
            s.subset.erase(std::unique(s.subset.begin(), s.subset.end()),
                           s.subset.end());
            for (std::size_t k = 0; k < kQueries; ++k) {
                const NarrowTarget n = narrowTarget(t, writes, rng_);
                served::WireQuery q;
                q.addrRanges = {n.line};
                q.firstIndex = n.first;
                q.lastIndex = n.last;
                q.kindMask = query::kindBit(trace::EventKind::Write);
                s.queries.push_back(q);
            }
            all.push_back(&s);
        }
    }
    ThreadPool oracles(oracleThreads());
    for (Script *sp : all) {
        oracles.submit([&, sp] {
            Script &s = *sp;
            std::vector<AddrRange> live(s.monitors.begin(),
                                        s.monitors.begin() + kMonitors);
            std::sort(live.begin(), live.end(),
                      [](const AddrRange &a, const AddrRange &b) {
                          return a.begin < b.begin;
                      });
            const Tally tl = tally(t, live);
            s.hits = tl.hits;
            s.notifications = 0;
            for (std::uint64_t n : tl.perMonitor)
                s.notifications += n;
            s.subsetSim = sim::simulate(
                t, sessions.subset(std::vector<session::SessionId>(
                       s.subset.begin(), s.subset.end())));
            for (const served::WireQuery &q : s.queries) {
                query::QuerySpec spec;
                spec.addrRanges = q.addrRanges;
                spec.firstIndex = q.firstIndex;
                spec.lastIndex = q.lastIndex;
                spec.kindMask = q.kindMask;
                s.matches.push_back(query::scanAll(t, sessions, spec).matches);
            }
        });
    }
    oracles.wait();
}

ScriptTimes
Served::script(const Script &s, const std::string &name, std::size_t rot,
               bool metrics, Spans &sp)
{
    ScriptTimes st;
    const Clock::time_point t0 = Clock::now();
    served::Client c;
    c.connect(server_->socketPath());
    c.hello(name);

    std::uint32_t tid = 0;
    {
        Spans::Scope op(sp, "served_open", "op");
        Spans::Scope l(sp, "served.client_open", "served");
        const Clock::time_point t = Clock::now();
        for (std::size_t k = 0; k < kOpens; ++k) {
            const served::OpenResult r = c.openTrace(path_);
            tid = k == 0 ? r.traceId : tid;
        }
        st.open = msSince(t) / kOpens;
    }
    std::vector<std::uint32_t> ids;
    for (const AddrRange &r : s.monitors)
        ids.push_back(c.install(r));
    for (std::size_t k = kMonitors; k < kMonitors + kExtra; ++k)
        c.remove(ids[k]);
    c.subscribe(true);

    auto liveRun = [&] {
            Spans::Scope op(sp, "served_run", "op");
            const Clock::time_point t = Clock::now();
            served::RunReply r;
            {
                Spans::Scope l(sp, "served.client_run", "served");
                r = c.run(tid);
            }
            st.run = msSince(t);
            std::vector<served::EventOut> evts;
            {
                Spans::Scope l(sp, "served.client_drain", "served");
                evts = c.takeEvents();
            }
            served::ResumeReply res;
            {
                Spans::Scope l(sp, "served.client_resume", "served");
                res = c.resume();
            }
            std::uint64_t resumed = 0;
            for (const served::ResumeHit &h : res.hits)
                resumed += h.count;
            bool ordered = true;
            for (std::size_t i = 1; i < evts.size(); ++i)
                ordered = ordered && evts[i].seq > evts[i - 1].seq;
            st.evts = evts.size();
            out_.op(!r.sessionMode && r.hits == s.hits &&
                        r.notifications == s.notifications &&
                        evts.size() == s.notifications && ordered &&
                        resumed == s.notifications && res.dropped == 0,
                    name + ": live RUN hits " + std::to_string(r.hits) + "/" +
                        std::to_string(s.hits) + ", notifications " +
                        std::to_string(r.notifications) + ", EVTs " +
                        std::to_string(evts.size()) + ", resumed " +
                        std::to_string(resumed) + ", expected " +
                        std::to_string(s.notifications));
    };
    auto sessionRun = [&] {
            Spans::Scope op(sp, "served_session_run", "op");
            Spans::Scope l(sp, "served.client_session_run", "served");
            const Clock::time_point t = Clock::now();
            const served::RunReply r = c.run(tid, s.subset);
            st.sessionRun = msSince(t);
            out_.op(r.sessionMode && r.totalWrites == s.subsetSim.totalWrites &&
                        r.counters == s.subsetSim.counters,
                    name + ": session RUN differs from sim::simulate");
    };
    auto queries = [&] {
            Spans::Scope op(sp, "served_query", "op");
            Spans::Scope l(sp, "served.client_query", "served");
            std::vector<std::uint64_t> got;
            const Clock::time_point t = Clock::now();
            for (served::WireQuery q : s.queries) {
                q.traceId = tid;
                got.push_back(c.query(q).matches);
            }
            st.query = msSince(t) / kQueries;
            out_.op(got == s.matches, name + ": QUERY differs from scanAll");
    };
    // RUN, session RUN and QUERY in an order rotated per script, so
    // drift of the machine hits all three alike.
    std::vector<std::function<void()>> ops = {liveRun, sessionRun,
                                              queries};
    rotate(ops, rot);
    for (const auto &op : ops)
        op();
    if (metrics)
        out_.op(!c.metricsText().empty(), name + ": empty METRICS");
    c.bye();
    st.total = msSince(t0);
    return st;
}

ScriptTimes
Served::direct(served::Registry &reg, const Script &s)
{
    ScriptTimes st;
    std::shared_ptr<served::Tenant> tn = reg.hello("direct");
    std::uint32_t tid = 0;
    {
        Spans::Scope l(spans_, "served.registry_open", "probe");
        for (std::size_t k = 0; k < kOpens; ++k) {
            const served::OpenResult r = tn->openTrace(path_);
            tid = k == 0 ? r.traceId : tid;
        }
        st.open = l.ms() / kOpens;
    }
    for (std::size_t k = 0; k < kMonitors; ++k)
        tn->install(s.monitors[k]);
    {
        Spans::Scope l(spans_, "served.registry_run", "probe");
        const served::LiveRunResult r = tn->runLive(tid);
        st.run = l.ms();
        out_.op(r.hits == s.hits && r.notifications == s.notifications,
                "direct: live run differs from the brute-force count");
    }
    (void)tn->resume();
    {
        Spans::Scope l(spans_, "served.registry_session_run", "probe");
        const served::SessionRunResult r = tn->runSessions(tid, s.subset);
        st.sessionRun = l.ms();
        out_.op(r.counters == s.subsetSim.counters,
                "direct: session run differs from sim::simulate");
    }
    {
        Spans::Scope l(spans_, "served.registry_query", "probe");
        std::vector<std::uint64_t> got;
        for (served::WireQuery q : s.queries) {
            q.traceId = tid;
            got.push_back(tn->query(q).matches);
        }
        st.query = l.ms() / kQueries;
        out_.op(got == s.matches, "direct: query differs from scanAll");
    }
    reg.bye(tn);

    // Layer probes under the same ops.
    std::unique_ptr<trace::MappedTrace> m;
    {
        Spans::Scope l(spans_, "trace.map", "probe");
        m = std::make_unique<trace::MappedTrace>(path_);
    }
    session::SessionSet sessions;
    {
        Spans::Scope l(spans_, "session.enumerate", "probe");
        sessions = session::SessionSet::enumerate(m->registry());
    }
    {
        Spans::Scope l(spans_, "trace.decode_control", "probe");
        std::vector<trace::Event> ctl(m->largestBlockEvents());
        for (std::size_t b = 0; b < m->blockCount(); ++b)
            m->decodeBlockControl(b, ctl.data());
    }
    {
        const session::SessionSet sub = sessions.subset(
            std::vector<session::SessionId>(s.subset.begin(),
                                            s.subset.end()));
        sim::BlockSkipStats bs;
        Spans::Scope l(spans_, "sim.subset", "probe");
        (void)sim::simulate(*m, sub, &bs);
        skipped_ += bs.blocksSkipped + bs.blocksControlOnly;
        blocks_ += bs.blocksTotal;
    }
    // Sub-millisecond exporters, timed in batches.
    {
        Spans::Scope l(spans_, "telemetry.metrics", "probe");
        for (std::size_t k = 0; k < kProbeBatch; ++k)
            (void)telemetry::prometheusText();
    }
    {
        Spans::Scope l(spans_, "obs.snapshot", "probe");
        for (std::size_t k = 0; k < kProbeBatch; ++k)
            (void)obs::takeSnapshot();
    }
    return st;
}

void
Served::run()
{
    // One CPU for the client and every daemon thread (threads inherit
    // the mask of the thread that starts them). The client and the
    // daemon hand each request on in turn, never in parallel; on a
    // shared host a hand-off to another vCPU waits until that vCPU is
    // scheduled. Measured on a 4-vCPU VM, four runs each, interleaved:
    // pinned, the run-to-run spread (IQR/median) of QUERY fell from
    // 0.61 to 0.09, of the RUN tail from 0.42 to 0.06, of the session
    // RUN from 0.24 to 0.08. Only the oracles, which run outside the
    // timed loop, use every CPU.
    cpu_set_t all, one;
    CPU_ZERO(&one);
    CPU_SET(::sched_getcpu(), &one);
    auto setCpus = [](const cpu_set_t &cpus) {
        if (::sched_setaffinity(0, sizeof cpus, &cpus) != 0)
            throw std::runtime_error("served: cannot set the CPU mask");
    };
    if (::sched_getaffinity(0, sizeof all, &all) != 0)
        throw std::runtime_error("served: cannot read the CPU mask");
    setCpus(one);
    std::vector<double> setupS;
    // Set-up is short (record one small program, start the daemon):
    // time it often enough for a steady median.
    for (int k = 0; k < 31; ++k)
        setupS.push_back(setupOnce(k));
    setCpus(all);
    makeScripts();
    setCpus(one);
    resetPeakRss();
    const std::size_t tenants = scripts_.size();

    std::vector<double> open, runs, sruns, queries;
    std::vector<double> notifyRates; ///< EVTs per second of each RUN
    std::uint64_t evts = 0;
    std::mutex mu;
    auto keep = [&](const ScriptTimes &st) {
        std::lock_guard<std::mutex> lk(mu);
        open.push_back(st.open);
        runs.push_back(st.run);
        sruns.push_back(st.sessionRun);
        queries.push_back(st.query);
        evts += st.evts;
        notifyRates.push_back((double)st.evts / (st.run / 1e3));
    };
    const Clock::time_point start = Clock::now();
    const double budgetMs = opt_.seconds * 1e3;

    if (!opt_.trace) {
        std::vector<std::thread> th;
        std::vector<std::exception_ptr> errs(tenants);
        for (std::size_t t = 0; t < tenants; ++t) {
            th.emplace_back([&, t] {
                try {
                    const std::string name = "tenant" + std::to_string(t);
                    for (std::size_t i = 0;; ++i) {
                        const ScriptTimes st = script(
                            scripts_[t][(i + opt_.seed) % kVariants], name,
                            opt_.seed + i + t, i % 4 == 3, off_);
                        if (i > 0)
                            keep(st);
                        if (i > kMinScripts && msSince(start) >= budgetMs)
                            break;
                    }
                } catch (...) {
                    errs[t] = std::current_exception();
                }
            });
        }
        for (std::thread &x : th)
            x.join();
        server_->stop();
        for (const std::exception_ptr &e : errs) {
            if (e)
                std::rethrow_exception(e);
        }
        const double tailMs = tail(runs, 0.95);
        std::printf("served: %zu tenants, %zu scripts\n", tenants,
                    runs.size());
        out_.metric("setup_s", median(setupS), "s");
        out_.metric("open_ms", median(open), "ms");
        out_.metric("op_ms", median(runs), "ms");
        out_.metric("op_tail_ms", tailMs, "ms");
        out_.metric("op2_ms", median(sruns), "ms");
        out_.metric("op3_ms", median(queries), "ms");
        out_.metric("rate_per_s", median(notifyRates), "1/s");
        out_.metric("peak_rss_mb", peakRssMb(), "MiB");
        return;
    }

    // Traced: one client drives every tenant's scripts in turn; each
    // is run bare, then with spans, then as direct registry calls.
    served::Registry reg;
    std::vector<ScriptTimes> directTimes;
    std::vector<double> overhead, coverages;
    std::vector<std::map<std::string, double>> selfs;
    std::size_t timedMark = 0;
    std::size_t reps = 0;
    for (std::size_t rep = 0;; ++rep) {
        const std::size_t mark = spans_.mark();
        if (rep == 1)
            timedMark = mark;
        double wall = 0, bare = 0;
        std::vector<ScriptTimes> client, dir;
        for (std::size_t t = 0; t < tenants; ++t) {
            const Script &s = scripts_[t][(rep + opt_.seed) % kVariants];
            bare += script(s, "bare", rep + opt_.seed, false, off_).total;
            client.push_back(
                script(s, "traced", rep + opt_.seed, false, spans_));
            wall += client.back().total;
            dir.push_back(direct(reg, s));
        }
        if (rep == 0)
            continue;
        ++reps;
        for (std::size_t i = 0; i < client.size(); ++i) {
            keep(client[i]);
            directTimes.push_back(dir[i]);
        }
        overhead.push_back(wall - bare);
        coverages.push_back(spans_.coverage(mark));
        selfs.push_back(spans_.selfMs(mark));
        if (msSince(start) >= budgetMs)
            break;
    }
    server_->stop();

    auto medSpan = [&](const char *name) {
        return median(spans_.durationsMs(name, timedMark));
    };
    std::vector<double> dOpen, dRun, dSrun, dQuery, wire, perRun;
    for (std::size_t i = 0; i < directTimes.size(); ++i) {
        dOpen.push_back(directTimes[i].open);
        dRun.push_back(directTimes[i].run);
        dSrun.push_back(directTimes[i].sessionRun);
        dQuery.push_back(directTimes[i].query);
        // Client minus registry time, per op of the script.
        wire.push_back((open[i] - dOpen[i]) * kOpens + (runs[i] - dRun[i]) +
                       (sruns[i] - dSrun[i]) +
                       (queries[i] - dQuery[i]) * kQueries);
        wire.back() /= kOpens + 2 + kQueries;
    }
    std::printf("served: %zu traced repetitions of %zu scripts\n", reps,
                tenants);
    out_.metric("served.registry_open_ms", median(dOpen), "ms");
    out_.metric("served.registry_run_ms", median(dRun), "ms");
    out_.metric("served.registry_session_run_ms", median(dSrun), "ms");
    out_.metric("served.registry_query_ms", median(dQuery), "ms");
    out_.metric("served.wire_ms", median(wire), "ms");
    out_.metric("served.evt_per_run", (double)evts / (double)runs.size(),
                "count");
    out_.metric("trace.map_ms", medSpan("trace.map"), "ms");
    out_.metric("session.enumerate_ms", medSpan("session.enumerate"), "ms");
    out_.metric("trace.decode_control_ms", medSpan("trace.decode_control"),
                "ms");
    out_.metric("sim.subset_ms", medSpan("sim.subset"), "ms");
    out_.metric("sim.blocks_skipped_frac",
                (double)skipped_ / (double)blocks_, "fraction");
    out_.metric("telemetry.metrics_ms",
                medSpan("telemetry.metrics") / kProbeBatch, "ms");
    out_.metric("obs.snapshot_ms", medSpan("obs.snapshot") / kProbeBatch,
                "ms");
    out_.metric("bench.trace_overhead_ms", median(overhead), "ms");
    out_.metric("bench.span_coverage", median(coverages), "fraction");
    printSelfTimes("served", selfs);
    setCpus(all); // the probe measures layers, not the daemon's scripts
    probeLayers(opt_, out_, spans_);
    spans_.write(opt_.workDir + "/spans.json");
}

} // namespace

void
runServed(const Options &opt, Outcome &out)
{
    Served(opt, out).run();
}

} // namespace pb
