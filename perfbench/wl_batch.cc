/**
 * @file
 * Workload `batch`: the offline `edb-trace` pipeline over the paper's
 * five programs (gcc, ctex, spice, qcd, bps).
 *
 * One repetition, for every program in a seed-rotated order: record
 * (workload::runTraced + trace::saveTrace, v2), then analyze at jobs 1
 * and at jobs 2 (trace::loadTrace + report::studyTrace; their order
 * also rotates). No sidecars exist. The first repetition is a
 * discarded warm-up.
 *
 * Roles of the end-to-end metrics: op_ms and op_tail_ms are analyze
 * at jobs 1, op2_ms record, op3_ms analyze at jobs 2 and open_ms the
 * trace::loadTrace inside analyze, each the corpus's time (the sum
 * of every program's median); rate_per_s is the events/s of the
 * whole pipeline (record, analyze, analyze at jobs 2) over the
 * corpus.
 *
 * Checks, each a failed op on mismatch: the recorded checksum equals
 * the program's golden value, the trace read back equals the trace
 * recorded, and the jobs-2 study is bit-identical to the jobs-1 study.
 *
 * The traced run times every op twice, once without spans and once
 * as spans around its layer calls, and then probes the children of
 * report::studyTrace (enumerate, simulate, index profile, shapes), the
 * mapped and the 2-worker simulator as separate spans.
 */

#include <cstdio>
#include <filesystem>
#include <initializer_list>

#include "bench.h"
#include "model/advisor.h"
#include "model/timing.h"
#include "report/study.h"
#include "session/session.h"
#include "sim/index_profile.h"
#include "sim/parallel_sim.h"
#include "sim/simulator.h"
#include "trace/trace_io.h"
#include "workload/workload.h"

namespace pb {
namespace {

using namespace edb;

/** Tail quantile of the analyze slowdown, and the repetitions it
 *  needs (five ops each) for 10 ops beyond it, with a margin. */
constexpr double kTail = 0.75;
constexpr std::size_t kTailReps = 10;

/** Spans whose per-repetition sums are the per-layer metrics
 *  (reported as <name>_ms). */
constexpr const char *kLayerSpans[] = {
    "workload.run",      "trace.save",          "trace.load",
    "session.enumerate", "sim.simulate",        "sim.simulate_mapped",
    "sim.index_profile", "sim.parallel_j2",     "model.shapes",
    "report.study",
};

struct Program
{
    std::unique_ptr<workload::Workload> w;
    std::uint64_t golden = 0;
    std::string path;
    std::uint64_t events = 0;
    std::uint64_t bytes = 0;
};

bool
sameStudy(const report::ProgramStudy &a, const report::ProgramStudy &b)
{
    return a.totalWrites == b.totalWrites && a.baseUs == b.baseUs &&
           a.sim == b.sim && a.activeSessions == b.activeSessions &&
           a.activeByType == b.activeByType &&
           a.relativeOverheads == b.relativeOverheads &&
           a.adaptiveRelativeOverheads == b.adaptiveRelativeOverheads &&
           a.pickCounts == b.pickCounts &&
           a.hwFeasibleSessions == b.hwFeasibleSessions;
}

/** Per-repetition sums, in ms, keyed by op or span name. */
using Sums = std::map<std::string, double>;

class Batch
{
  public:
    Batch(const Options &opt, Outcome &out)
        : opt_(opt), out_(out), spans_(opt.trace),
          profile_(model::sparcStation2())
    {
    }

    void run();

  private:
    /** Record one program; returns the trace recorded. */
    trace::Trace record(Program &p, Spans &sp);
    /** Analyze one program's saved trace at `jobs`; the trace read
     *  goes to `loaded`, so that the caller frees it after its timer
     *  stops, and the time reading it took to `loadMs`. */
    report::ProgramStudy analyze(const Program &p, unsigned jobs,
                                 Spans &sp, trace::Trace &loaded,
                                 double *loadMs = nullptr);
    /** One repetition over the corpus; adds op wall times to `wall`,
     *  the trace loads inside analyze to `loads` (and, traced, the
     *  untraced twin's op times to `bare`). */
    void repetition(std::size_t rep, Sums &wall, Sums &loads, Sums &bare);
    void probe(const Program &p, const trace::Trace &t,
               const report::ProgramStudy &study);

    const Options &opt_;
    Outcome &out_;
    Spans spans_;
    Spans off_{false};
    const model::TimingProfile profile_;
    std::vector<Program> progs_;
    std::uint64_t corpusEvents_ = 0;
};

trace::Trace
Batch::record(Program &p, Spans &sp)
{
    Spans::Scope op(sp, "record", "op");
    std::uint64_t cks = 0;
    trace::Trace t;
    {
        Spans::Scope s(sp, "workload.run", "workload");
        t = workload::runTraced(*p.w, &cks);
    }
    {
        Spans::Scope s(sp, "trace.save", "trace");
        trace::saveTrace(t, p.path);
    }
    out_.op(cks == p.golden,
            std::string("record ") + p.w->name() + ": checksum " +
                std::to_string(cks) + " != golden");
    return t;
}

report::ProgramStudy
Batch::analyze(const Program &p, unsigned jobs, Spans &sp,
               trace::Trace &loaded, double *loadMs)
{
    const bool j1 = jobs == 1;
    Spans::Scope op(sp, j1 ? "analyze" : "analyze_j2", "op");
    {
        Spans::Scope s(sp, j1 ? "trace.load" : "trace.load_j2", "trace");
        loaded = trace::loadTrace(p.path);
        if (loadMs)
            *loadMs = s.ms();
    }
    Spans::Scope s(sp, j1 ? "report.study" : "report.study_j2",
                   "report");
    return report::studyTrace(loaded, profile_, 0, jobs);
}

void
Batch::probe(const Program &p, const trace::Trace &t,
             const report::ProgramStudy &study)
{
    // studyTrace's children, each timed alone: report.self_ms is the
    // study minus these.
    session::SessionSet sessions;
    {
        Spans::Scope s(spans_, "session.enumerate", "probe");
        sessions = session::SessionSet::enumerate(t);
    }
    sim::SimResult seq;
    {
        Spans::Scope s(spans_, "sim.simulate", "probe");
        seq = sim::simulate(t, sessions);
    }
    {
        Spans::Scope s(spans_, "sim.index_profile", "probe");
        (void)sim::indexProfile(t);
    }
    {
        Spans::Scope s(spans_, "model.shapes", "probe");
        (void)model::computeSessionShapes(t, sessions);
    }
    sim::SimResult par;
    {
        Spans::Scope s(spans_, "sim.parallel_j2", "probe");
        sim::ParallelOptions po;
        po.jobs = 2;
        par = sim::parallelSimulate(t, sessions, po);
    }
    sim::SimResult mapped;
    {
        const trace::MappedTrace m(p.path);
        Spans::Scope s(spans_, "sim.simulate_mapped", "probe");
        mapped = sim::simulate(m, sessions);
    }
    out_.op(seq == study.sim && par == study.sim && mapped == study.sim,
            std::string("probe ") + p.w->name() +
                ": simulate / parallel / mapped disagree with study");
}

void
Batch::repetition(std::size_t rep, Sums &wall, Sums &loads, Sums &bare)
{
    std::vector<std::size_t> order(progs_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    rotate(order, opt_.seed + rep);
    const bool j2First = ((opt_.seed + rep) & 1) != 0;

    for (std::size_t i : order) {
        Program &p = progs_[i];
        const std::string key = std::string("/") + p.w->name();
        // Every op's trace outlives its timer, so that no timing
        // includes freeing one. Record saves to a path unlinked first:
        // saving over the old file would truncate it, and ext4 starts
        // writing a truncated-then-rewritten file back at once.
        // Traced runs time each op twice: bare (no spans) for the
        // overhead baseline, then with spans.
        if (spans_.on()) {
            trace::Trace t;
            std::filesystem::remove(p.path);
            bare["record" + key] = timeMs([&] { t = record(p, off_); });
            t = {};
            bare["analyze" + key] =
                timeMs([&] { (void)analyze(p, 1, off_, t); });
            t = {};
            bare["analyze_j2" + key] =
                timeMs([&] { (void)analyze(p, 2, off_, t); });
        }
        trace::Trace recorded;
        std::filesystem::remove(p.path);
        wall["record" + key] =
            timeMs([&] { recorded = record(p, spans_); });
        p.bytes = std::filesystem::file_size(p.path);
        out_.op(recorded.events.size() == p.events,
                std::string("record ") + p.w->name() +
                    ": event count changed between recordings");
        const std::uint64_t recordedDigest = traceDigest(recorded);
        recorded = {};

        trace::Trace loaded;
        report::ProgramStudy s1, s2;
        // The loads are timed apart too; they are not ops, so the
        // overhead sum below skips them.
        auto j1 = [&] {
            wall["analyze" + key] = timeMs([&] {
                s1 = analyze(p, 1, spans_, loaded, &loads["load" + key]);
            });
        };
        auto j2 = [&] {
            trace::Trace t;
            wall["analyze_j2" + key] = timeMs([&] {
                s2 = analyze(p, 2, spans_, t, &loads["load_j2" + key]);
            });
        };
        if (j2First) {
            j2();
            j1();
        } else {
            j1();
            j2();
        }
        out_.op(traceDigest(loaded) == recordedDigest,
                std::string("analyze ") + p.w->name() +
                    ": trace read back differs from the one recorded");
        out_.op(sameStudy(s1, s2),
                std::string("analyze ") + p.w->name() +
                    ": jobs-2 study differs from jobs-1");
        if (spans_.on())
            probe(p, loaded, s1);
    }
}

void
Batch::run()
{
    // Set-up: instantiate the programs and record each once in memory
    // (checksums against the goldens, event counts for the rates).
    // Timed several times; setup_s is the median.
    const auto &names = workload::workloadNames();
    const int setups = opt_.trace ? 1 : 9;
    std::vector<double> setupS;
    for (int k = 0; k < setups; ++k) {
        progs_.clear();
        corpusEvents_ = 0;
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < names.size(); ++i) {
            Program p;
            p.w = workload::makeWorkload(names[i]);
            p.golden = goldenChecksum(names[i]);
            p.path = opt_.workDir + "/" + std::string(names[i]) + ".trc";
            std::uint64_t cks = 0;
            p.events = workload::runTraced(*p.w, &cks).events.size();
            out_.op(cks == p.golden, "setup " + std::string(names[i]) +
                                         ": checksum != golden");
            corpusEvents_ += p.events;
            progs_.push_back(std::move(p));
        }
        setupS.push_back(msSince(t0) / 1e3);
    }
    resetPeakRss();

    const Clock::time_point start = Clock::now();
    const double budgetMs = opt_.seconds * 1e3;
    // Untraced, at least kTailReps repetitions, for the analyze tail.
    const std::size_t minReps = opt_.trace ? 1 : kTailReps;
    std::vector<Sums> walls, loadSums, bares;
    std::vector<Sums> spanSums;
    std::vector<std::map<std::string, double>> selfs;
    std::vector<double> coverages;
    for (std::size_t rep = 0;; ++rep) {
        const std::size_t mark = spans_.mark();
        Sums wall, loads, bare;
        repetition(rep, wall, loads, bare);
        if (rep == 0)
            continue; // warm-up
        walls.push_back(wall);
        loadSums.push_back(loads);
        bares.push_back(bare);
        if (spans_.on()) {
            Sums s;
            for (const char *n : kLayerSpans)
                s[n] = spans_.totalMs(n, mark);
            spanSums.push_back(s);
            selfs.push_back(spans_.selfMs(mark));
            coverages.push_back(spans_.coverage(mark));
        }
        if (walls.size() >= minReps && msSince(start) >= budgetMs)
            break;
    }

    auto med = [](const std::vector<Sums> &v, const std::string &k) {
        std::vector<double> xs;
        for (const Sums &s : v)
            xs.push_back(s.at(k));
        return median(xs);
    };
    std::printf("batch: %zu repetitions of %llu events\n", walls.size(),
                (unsigned long long)corpusEvents_);

    if (!opt_.trace) {
        // Each latency is the corpus's: the sum over programs of the
        // program's median op time, so a stall during one op of one
        // repetition does not move it.
        auto corpus = [&](const std::vector<Sums> &reps,
                          std::initializer_list<const char *> ops) {
            double ms = 0;
            for (const Program &p : progs_) {
                std::vector<double> xs;
                for (const Sums &r : reps) {
                    for (const char *op : ops)
                        xs.push_back(r.at(std::string(op) + "/" +
                                          p.w->name()));
                }
                ms += median(xs);
            }
            return ms;
        };
        // The tail scales the corpus time by the tail of the per-op
        // slowdown: each analyze op over its program's median.
        std::vector<double> slowdown;
        for (const Program &p : progs_) {
            const std::string key = std::string("analyze/") + p.w->name();
            const double m = med(walls, key);
            for (const Sums &w : walls)
                slowdown.push_back(w.at(key) / m);
        }
        const double analyzeMs = corpus(walls, {"analyze"});
        const double recordMs = corpus(walls, {"record"});
        const double j2Ms = corpus(walls, {"analyze_j2"});
        out_.metric("setup_s", median(setupS), "s");
        out_.metric("open_ms", corpus(loadSums, {"load", "load_j2"}), "ms");
        out_.metric("op_ms", analyzeMs, "ms");
        out_.metric("op_tail_ms", analyzeMs * tail(slowdown, kTail), "ms");
        out_.metric("op2_ms", recordMs, "ms");
        out_.metric("op3_ms", j2Ms, "ms");
        out_.metric("rate_per_s",
                    (double)corpusEvents_ /
                        ((recordMs + analyzeMs + j2Ms) / 1e3),
                    "1/s");
        out_.metric("peak_rss_mb", peakRssMb(), "MiB");
        return;
    }

    std::uint64_t bytes = 0;
    for (const Program &p : progs_)
        bytes += p.bytes;
    for (const char *n : kLayerSpans)
        out_.metric(std::string(n) + "_ms", med(spanSums, n), "ms");
    std::vector<double> self;
    for (const Sums &s : spanSums)
        self.push_back(s.at("report.study") - s.at("session.enumerate") -
                       s.at("sim.simulate") - s.at("sim.index_profile") -
                       s.at("model.shapes"));
    out_.metric("report.self_ms", median(self), "ms");
    out_.metric("trace.bytes_per_event", (double)bytes / corpusEvents_,
                "B");
    std::vector<double> overhead;
    for (std::size_t i = 0; i < walls.size(); ++i) {
        double d = 0;
        for (const auto &[op, ms] : walls[i])
            d += ms - bares[i].at(op);
        overhead.push_back(d);
    }
    out_.metric("bench.trace_overhead_ms", median(overhead), "ms");
    out_.metric("bench.span_coverage", median(coverages), "fraction");
    printSelfTimes("batch", selfs);
    probeLayers(opt_, out_, spans_);
    spans_.write(opt_.workDir + "/spans.json");
}

} // namespace

void
runBatch(const Options &opt, Outcome &out)
{
    Batch(opt, out).run();
}

} // namespace pb
