/**
 * @file
 * The layer probe of the traced run.
 *
 * Every traced run reports the whole per-layer list of BENCHMARK.json.
 * A workload's own ops measure the layers they call; the probe
 * measures every layer by direct calls into its public functions on
 * one small program (bps), and fills in what the workload did not
 * report. So a layer's metric comes from the workload's own ops where
 * the workload calls that layer, and from the probe elsewhere;
 * perfbench/layers.json says which is which.
 *
 * One pass runs: record, save, load, map (with and without sidecar),
 * index build, batched and control-only decode, session enumeration,
 * report::studyTrace's children one by one and then the study itself,
 * the mapped and the 2-worker simulator, a subset replay, a narrow
 * and a dense query, one script against a served::Registry directly
 * and the same over a served::Client socket, and the metrics/snapshot
 * exporters. Sub-millisecond calls are timed in batches. Each metric
 * is the median over the passes; the first pass is a warm-up.
 *
 * Checks, each a failed op on mismatch: the checksum equals the
 * program's golden value, the trace read back equals the one
 * recorded, the simulators agree with the study, each query equals
 * query::scanAll, and the registry and the socket agree with the
 * brute-force hit count and with sim::simulate.
 */

#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "model/advisor.h"
#include "model/timing.h"
#include "obs/obs.h"
#include "query/query.h"
#include "report/study.h"
#include "served/client.h"
#include "served/server.h"
#include "session/session.h"
#include "sim/index_profile.h"
#include "sim/parallel_sim.h"
#include "sim/simulator.h"
#include "telemetry/prom.h"
#include "trace/index_format.h"
#include "trace/trace_io.h"
#include "workload/workload.h"

namespace pb {
namespace {

using namespace edb;

constexpr const char *kProgram = "bps";
constexpr std::size_t kPasses = 6;    ///< the first is a warm-up
constexpr std::size_t kBatch = 8;     ///< calls per sub-ms batch
constexpr std::size_t kMonitors = 32; ///< monitors of the served script
constexpr std::size_t kSubset = 8;    ///< sessions of the subset replay
constexpr std::size_t kQueries = 4;   ///< QUERYs of the served script

/** Units of the probe's metrics that are not in ms. */
const std::map<std::string, std::string> kUnits = {
    {"trace.bytes_per_event", "B"},
    {"trace.decode_mev_s", "Mevents/s"},
    {"sim.blocks_skipped_frac", "fraction"},
    {"query.plan_us", "us"},
    {"query.blocks_decoded_frac", "fraction"},
    {"served.evt_per_run", "count"},
};

/** Samples of one pass, keyed by metric name. */
using Pass = std::map<std::string, double>;

class Probe
{
  public:
    Probe(const Options &opt, Outcome &out, Spans &spans)
        : opt_(opt), out_(out), spans_(spans), rng_(opt.seed ^ 0x9e37ull),
          profile_(model::sparcStation2())
    {
    }

    void run();

  private:
    void setup();
    Pass pass();
    /** Time `fn` as a probe span called `name`, in ms. */
    template <typename Fn>
    double
    span(const char *name, Fn &&fn)
    {
        Spans::Scope s(spans_, name, "probe");
        fn();
        return s.ms();
    }
    void served(Pass &r);

    const Options &opt_;
    Outcome &out_;
    Spans &spans_;
    Rng rng_;
    const model::TimingProfile profile_;
    std::string plain_;   ///< trace without sidecar
    std::string indexed_; ///< trace with sidecar
    std::unique_ptr<served::Server> server_;
    std::vector<AddrRange> monitors_;
    Tally expectedHits_;
    std::vector<session::SessionId> subset_;
    sim::SimResult subsetSim_;
    query::QuerySpec narrow_, dense_;
    query::QueryResult narrowExpected_, denseExpected_;
    std::vector<served::WireQuery> wireQueries_;
    std::vector<std::uint64_t> wireExpected_;
};

void
Probe::setup()
{
    plain_ = opt_.workDir + "/probe-plain.trc";
    indexed_ = opt_.workDir + "/probe-indexed.trc";
    const trace::Trace t =
        workload::runTraced(*workload::makeWorkload(kProgram));
    std::filesystem::remove(indexed_);
    trace::saveTrace(t, indexed_);
    const session::SessionSet sessions = session::SessionSet::enumerate(t);

    const std::vector<AddrRange> pool = monitorPool(t);
    if (pool.size() < kMonitors)
        throw std::runtime_error("probe: monitor pool too small");
    const std::size_t per = pool.size() / kMonitors;
    for (std::size_t k = 0; k < kMonitors; ++k)
        monitors_.push_back(pool[k * per + pick(rng_, per)]);
    std::sort(monitors_.begin(), monitors_.end(),
              [](const AddrRange &a, const AddrRange &b) {
                  return a.begin < b.begin;
              });
    expectedHits_ = tally(t, monitors_);

    for (std::size_t k = 0; k < kSubset; ++k)
        subset_.push_back((session::SessionId)pick(rng_, sessions.size()));
    std::sort(subset_.begin(), subset_.end());
    subset_.erase(std::unique(subset_.begin(), subset_.end()),
                  subset_.end());
    subsetSim_ = sim::simulate(t, sessions.subset(subset_));

    std::vector<std::size_t> writes;
    for (std::size_t i = 0; i < t.events.size(); ++i) {
        if (t.events[i].kind == trace::EventKind::Write)
            writes.push_back(i);
    }
    const NarrowTarget n = narrowTarget(t, writes, rng_);
    narrow_.addrRanges = {n.line};
    narrow_.firstIndex = n.first;
    narrow_.lastIndex = n.last;
    narrow_.kindMask = query::kindBit(trace::EventKind::Write);
    narrowExpected_ = query::scanAll(t, sessions, narrow_);
    dense_.kindMask = query::kindBit(trace::EventKind::Write);
    dense_.agg = query::Agg::CountByPage;
    denseExpected_ = query::scanAll(t, sessions, dense_);
    for (std::size_t k = 0; k < kQueries; ++k) {
        const NarrowTarget w = narrowTarget(t, writes, rng_);
        served::WireQuery q;
        q.addrRanges = {w.line};
        q.firstIndex = w.first;
        q.lastIndex = w.last;
        q.kindMask = query::kindBit(trace::EventKind::Write);
        query::QuerySpec spec;
        spec.addrRanges = q.addrRanges;
        spec.firstIndex = q.firstIndex;
        spec.lastIndex = q.lastIndex;
        spec.kindMask = q.kindMask;
        wireExpected_.push_back(query::scanAll(t, sessions, spec).matches);
        wireQueries_.push_back(q);
    }

    served::ServerOptions so;
    so.socketPath = opt_.workDir + "/probe.sock";
    server_ = std::make_unique<served::Server>(so);
    server_->start();
}

void
Probe::served(Pass &r)
{
    // The same script twice: as direct Registry/Tenant calls, then
    // over the socket. served.wire_ms is the difference per op.
    served::Registry reg;
    std::shared_ptr<served::Tenant> tn = reg.hello("probe");
    std::uint32_t tid = 0;
    double direct = 0;
    r["served.registry_open_ms"] = span("served.registry_open", [&] {
        for (std::size_t k = 0; k < kBatch; ++k)
            tid = tn->openTrace(plain_).traceId;
    }) / kBatch;
    direct += r["served.registry_open_ms"] * kBatch;
    for (const AddrRange &m : monitors_)
        tn->install(m);
    served::LiveRunResult live;
    direct += r["served.registry_run_ms"] = span(
        "served.registry_run", [&] { live = tn->runLive(tid); });
    (void)tn->resume();
    served::SessionRunResult sr;
    direct += r["served.registry_session_run_ms"] =
        span("served.registry_session_run", [&] {
            sr = tn->runSessions(
                tid, std::vector<std::uint32_t>(subset_.begin(),
                                                subset_.end()));
        });
    std::vector<std::uint64_t> got;
    r["served.registry_query_ms"] = span("served.registry_query", [&] {
        for (served::WireQuery q : wireQueries_) {
            q.traceId = tid;
            got.push_back(tn->query(q).matches);
        }
    }) / kQueries;
    direct += r["served.registry_query_ms"] * kQueries;
    reg.bye(tn);
    out_.op(live.hits == expectedHits_.hits &&
                sr.counters == subsetSim_.counters && got == wireExpected_,
            "probe: registry run/session run/query differ from the "
            "oracles");

    served::Client c;
    c.connect(server_->socketPath());
    c.hello("probe");
    double client = span("served.client_open", [&] {
        for (std::size_t k = 0; k < kBatch; ++k)
            tid = c.openTrace(plain_).traceId;
    });
    for (const AddrRange &m : monitors_)
        c.install(m);
    c.subscribe(true);
    served::RunReply run;
    client += span("served.client_run", [&] { run = c.run(tid); });
    const std::vector<served::EventOut> evts = c.takeEvents();
    const served::ResumeReply res = c.resume();
    std::uint64_t resumed = 0;
    for (const served::ResumeHit &h : res.hits)
        resumed += h.count;
    served::RunReply srun;
    client += span("served.client_session_run", [&] {
        srun = c.run(tid, std::vector<std::uint32_t>(subset_.begin(),
                                                     subset_.end()));
    });
    got.clear();
    client += span("served.client_query", [&] {
        for (served::WireQuery q : wireQueries_) {
            q.traceId = tid;
            got.push_back(c.query(q).matches);
        }
    });
    c.bye();
    std::uint64_t notifications = 0;
    for (std::uint64_t n : expectedHits_.perMonitor)
        notifications += n;
    out_.op(run.hits == expectedHits_.hits &&
                run.notifications == notifications &&
                evts.size() == notifications && resumed == notifications &&
                res.dropped == 0 && srun.counters == subsetSim_.counters &&
                got == wireExpected_,
            "probe: socket script differs from the oracles");
    r["served.wire_ms"] =
        (client - direct) / (double)(kBatch + 2 + kQueries);
    r["served.evt_per_run"] = (double)evts.size();
}

Pass
Probe::pass()
{
    Pass r;
    std::uint64_t cks = 0;
    trace::Trace t;
    r["workload.run_ms"] = span("workload.run", [&] {
        t = workload::runTraced(*workload::makeWorkload(kProgram), &cks);
    });
    out_.op(cks == goldenChecksum(kProgram),
            "probe: bps checksum != golden");
    // A fresh file, not a rewritten one: ext4 starts writing a file
    // truncated and rewritten back at once.
    std::filesystem::remove(plain_);
    r["trace.save_ms"] =
        span("trace.save", [&] { trace::saveTrace(t, plain_); });
    r["trace.bytes_per_event"] =
        (double)std::filesystem::file_size(plain_) / (double)t.events.size();
    {
        trace::Trace loaded;
        r["trace.load_ms"] =
            span("trace.load", [&] { loaded = trace::loadTrace(plain_); });
        out_.op(traceDigest(loaded) == traceDigest(t),
                "probe: trace read back differs from the one recorded");
    }

    r["trace.map_ms"] = span("trace.map", [&] {
        for (std::size_t k = 0; k < kBatch; ++k)
            (void)trace::MappedTrace(plain_);
    }) / kBatch;
    const std::string sidecar = trace::traceIndexPathFor(indexed_);
    std::filesystem::remove(sidecar);
    r["trace.index_build_ms"] = span("trace.index_build", [&] {
        const trace::MappedTrace m(indexed_);
        trace::TraceIndex idx = trace::buildTraceIndex(m);
        trace::saveTraceIndex(idx, sidecar);
    });
    bool attached = true;
    r["trace.map_indexed_ms"] = span("trace.map_indexed", [&] {
        for (std::size_t k = 0; k < kBatch; ++k)
            attached = attached &&
                       trace::MappedTrace(indexed_).index() != nullptr;
    }) / kBatch;
    out_.op(attached, "probe: sidecar not attached");

    const trace::MappedTrace m(plain_);
    r["trace.decode_mev_s"] =
        (double)m.eventCount() / 1e3 /
        span("trace.decode_batch", [&] {
            trace::WriteBatch batch;
            for (std::size_t b = 0; b < m.blockCount(); ++b)
                m.decodeBlockBatch(b, batch);
        });
    r["trace.decode_control_ms"] = span("trace.decode_control", [&] {
        std::vector<trace::Event> ctl(m.largestBlockEvents());
        for (std::size_t b = 0; b < m.blockCount(); ++b)
            m.decodeBlockControl(b, ctl.data());
    });

    // report::studyTrace's children one by one, then the study.
    session::SessionSet sessions;
    r["session.enumerate_ms"] = span("session.enumerate", [&] {
        for (std::size_t k = 0; k < kBatch; ++k)
            sessions = session::SessionSet::enumerate(t);
    }) / kBatch;
    sim::SimResult seq, par, mapped;
    r["sim.simulate_ms"] =
        span("sim.simulate", [&] { seq = sim::simulate(t, sessions); });
    r["sim.index_profile_ms"] =
        span("sim.index_profile", [&] { (void)sim::indexProfile(t); });
    r["model.shapes_ms"] = span("model.shapes", [&] {
        (void)model::computeSessionShapes(t, sessions);
    });
    r["sim.parallel_j2_ms"] = span("sim.parallel_j2", [&] {
        sim::ParallelOptions po;
        po.jobs = 2;
        par = sim::parallelSimulate(t, sessions, po);
    });
    r["sim.simulate_mapped_ms"] = span(
        "sim.simulate_mapped", [&] { mapped = sim::simulate(m, sessions); });
    report::ProgramStudy study;
    r["report.study_ms"] = span("report.study", [&] {
        study = report::studyTrace(t, profile_, 0, 1);
    });
    r["report.self_ms"] = r["report.study_ms"] - r["session.enumerate_ms"] -
                          r["sim.simulate_ms"] - r["sim.index_profile_ms"] -
                          r["model.shapes_ms"];
    out_.op(seq == study.sim && par == study.sim && mapped == study.sim,
            "probe: simulate / parallel / mapped disagree with study");

    {
        const session::SessionSet sub = sessions.subset(subset_);
        sim::BlockSkipStats bs;
        sim::SimResult res;
        r["sim.subset_ms"] =
            span("sim.subset", [&] { res = sim::simulate(m, sub, &bs); });
        r["sim.blocks_skipped_frac"] =
            (double)(bs.blocksSkipped + bs.blocksControlOnly) /
            (double)bs.blocksTotal;
        out_.op(res.counters == subsetSim_.counters,
                "probe: mapped subset replay differs from sim::simulate");
    }

    {
        const trace::MappedTrace mi(indexed_);
        const session::SessionSet isessions =
            session::SessionSet::enumerate(mi.registry());
        query::QueryStats st;
        query::QueryResult a, b;
        r["query.sparse_exec_ms"] = span("query.sparse_exec", [&] {
            a = query::runQuery(mi, isessions, narrow_, {}, &st);
        });
        r["query.plan_us"] = (double)st.planNs / 1e3;
        r["query.blocks_decoded_frac"] =
            (double)(st.blocksFull + st.blocksControlOnly) /
            (double)st.blocksTotal;
        r["query.dense_exec_ms"] = span("query.dense_exec", [&] {
            b = query::runQuery(mi, isessions, dense_);
        });
        out_.op(a == narrowExpected_ && b == denseExpected_,
                "probe: query differs from scanAll");
    }

    served(r);

    r["telemetry.metrics_ms"] = span("telemetry.metrics", [&] {
        for (std::size_t k = 0; k < kBatch; ++k)
            (void)telemetry::prometheusText();
    }) / kBatch;
    r["obs.snapshot_ms"] = span("obs.snapshot", [&] {
        for (std::size_t k = 0; k < kBatch; ++k)
            (void)obs::takeSnapshot();
    }) / kBatch;
    return r;
}

void
Probe::run()
{
    setup();
    std::vector<Pass> passes;
    for (std::size_t k = 0; k < kPasses; ++k) {
        Pass r = pass();
        if (k > 0)
            passes.push_back(std::move(r));
    }
    server_->stop();

    std::string filled;
    for (const auto &[name, unused] : passes.front()) {
        if (out_.has(name))
            continue;
        std::vector<double> xs;
        for (const Pass &p : passes)
            xs.push_back(p.at(name));
        const auto unit = kUnits.find(name);
        out_.metric(name, median(xs),
                    unit == kUnits.end() ? "ms" : unit->second);
        filled += " " + name;
    }
    std::printf("probe: %zu passes over %s; from the probe:%s\n",
                passes.size(), kProgram, filled.c_str());
}

} // namespace

void
probeLayers(const Options &opt, Outcome &out, Spans &spans)
{
    Probe(opt, out, spans).run();
}

} // namespace pb
