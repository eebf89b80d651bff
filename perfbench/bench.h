/**
 * @file
 * Shared plumbing of the edb end-to-end benchmark: run options, the
 * result every workload fills in, clocks, order statistics and the
 * in-memory span recorder of the traced run.
 *
 * Each workload (wl_*.cc) runs in its own process and issues only
 * its own operations. An untraced run (`--trace 0`) reports every
 * end-to-end metric of BENCHMARK.json, each filled from the workload's
 * own ops: open_ms, op_ms, op_tail_ms, op2_ms, op3_ms and rate_per_s
 * name roles (how a trace is opened, the headline op, two more ops,
 * the throughput), and perfbench/layers.json says which op fills each
 * role on each workload. A traced run (`--trace 1`) replays every
 * end-to-end op as the public layer calls it is made of, with spans
 * recorded here around each call, and reports every per-layer metric:
 * those of the layers the workload's ops call from its own spans, the
 * rest from the layer probe (probe.cc).
 */

#ifndef EDB_PERFBENCH_BENCH_H
#define EDB_PERFBENCH_BENCH_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace.h"
#include "util/stats.h"

namespace pb {

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since `t0`. */
inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Wall time of `fn()` in milliseconds. */
template <typename Fn>
double
timeMs(Fn &&fn)
{
    const Clock::time_point t0 = Clock::now();
    fn();
    return msSince(t0);
}

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Scratch directory for traces, sidecars, sockets and spans;
     *  relative to the checkout the benchmark runs in. */
    std::string workDir;
};

/** What one run reports: the last stdout line is built from this. */
class Outcome
{
  public:
    /** Record one attempted op; `ok == false` counts it as failed
     *  and logs `what` to stderr. */
    void op(bool ok, const std::string &what);

    void metric(const std::string &name, double value,
                const std::string &unit);
    /** Whether metric `name` has been reported. */
    bool has(const std::string &name) const;

    bool correct() const;
    /** The one-line JSON result: the last line of stdout. */
    std::string json() const;

  private:
    mutable std::mutex mu_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::map<std::string, std::pair<double, std::string>> metrics_;
};

/** @name Order statistics (values need not be sorted) */
/// @{
/** edb::percentile (linear interpolation, q in [0, 1]), except that no
 *  samples give NaN, which Outcome::correct() rejects. */
inline double
quantile(const std::vector<double> &v, double q)
{
    return v.empty() ? std::nan("") : edb::percentile(v, q);
}
inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}
/**
 * The tail quantile `q` of `v`, or NaN (which Outcome::correct()
 * rejects) when fewer than 10 samples lie beyond it. Each workload
 * fixes its q and runs until it has the samples that q needs, so a
 * tail means the same quantile on every run, however fast the host.
 */
double tail(const std::vector<double> &v, double q);
/// @}

/**
 * Peak memory of the timed ops. resetPeakRss() sets the kernel's
 * high-water mark (VmHWM) back to the current resident set once
 * set-up and oracles are done; peakRssMb() reads it, in MiB.
 */
void resetPeakRss();
double peakRssMb();

/** Seeded generator for inputs and op order. */
using Rng = std::mt19937_64;

/** Pick uniformly from [0, n). */
inline std::size_t
pick(Rng &rng, std::size_t n)
{
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
}

/** Rotate `order` left by `by` positions (op-order interleaving). */
template <typename T>
void
rotate(std::vector<T> &order, std::size_t by)
{
    if (!order.empty())
        std::rotate(order.begin(), order.begin() + by % order.size(),
                    order.end());
}

/** A narrow query target: one 64-byte line and an event-index
 *  window [first, last). */
struct NarrowTarget
{
    edb::AddrRange line;
    std::uint64_t first = 0;
    std::uint64_t last = 0;
};

/**
 * Pick a narrow query target: the line of a write drawn uniformly
 * from `writes` (indices of t's write events) and a window of 2% of
 * the trace centred on it. The window is what keeps the query sparse:
 * the traces are small enough that most lines sit in a page written
 * throughout the run, so a line alone would often make a dense query.
 */
NarrowTarget narrowTarget(const edb::trace::Trace &t,
                          const std::vector<std::size_t> &writes,
                          Rng &rng);

/** Result checksum of program `name` (one of
 *  workload::workloadNames()). It depends only on the program's fixed
 *  inputs and its code. */
std::uint64_t goldenChecksum(std::string_view name);

/** Order-sensitive digest of a trace's events and object count:
 *  read-back checks compare digests, so the trace recorded need not
 *  stay resident (and count in peak_rss_mb) while analyze runs. */
std::uint64_t traceDigest(const edb::trace::Trace &t);

/** Writes of a trace checked against monitors (sorted by begin,
 *  disjoint). */
struct Tally
{
    std::uint64_t hits = 0; ///< writes intersecting any monitor
    /** Per monitor, the writes intersecting it; one write may hit two
     *  neighbours, and each notifies. */
    std::vector<std::uint64_t> perMonitor;
};
Tally tally(const edb::trace::Trace &t,
            const std::vector<edb::AddrRange> &mons);

/**
 * Monitor candidates of a trace: the word-aligned ranges of its
 * installed objects, disjoint, each hit by 8 to 4096 writes, sorted
 * by hit count. Word alignment makes the monitor index's
 * word-granular hits exact.
 */
std::vector<edb::AddrRange> monitorPool(const edb::trace::Trace &t);

/** Worker count of the set-up oracles: nproc, at most four (never
 *  used inside a timed region). */
unsigned oracleThreads();

/**
 * In-memory span recorder of the traced run.
 *
 * A span is (name, layer, start, end, parent, op). Spans are pushed
 * from one thread; a span's parent is the innermost span still open
 * when it began. Disabled recorders cost one branch per Scope.
 */
class Spans
{
  public:
    explicit Spans(bool on) : on_(on) {}

    bool on() const { return on_; }

    /** RAII span; `layer` is the edb module (src/<layer>) called,
     *  "op" for an end-to-end op root, or "probe" for a root that
     *  times a layer call outside any op (counted in totalMs() but
     *  not in selfMs() or coverage()). */
    class Scope
    {
      public:
        Scope(Spans &s, const char *name, const char *layer);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        /** Duration so far, in milliseconds. */
        double ms() const { return msSince(t0_); }

      private:
        Spans &s_;
        std::size_t id_;
        Clock::time_point t0_;
    };

    /** Per-layer self time (span minus the part its children cover),
     *  in ms, over spans of op roots started since mark `from`. */
    std::map<std::string, double> selfMs(std::size_t from = 0) const;

    /** Median over op roots since `from` of the share of the op's
     *  wall time its direct children cover. */
    double coverage(std::size_t from = 0) const;

    /** Durations (ms) of the spans called `name` since `from`. */
    std::vector<double> durationsMs(const std::string &name,
                                    std::size_t from = 0) const;

    /** Sum of durationsMs(name, from). */
    double totalMs(const std::string &name, std::size_t from = 0) const;

    /** Index to pass as `from` to scope queries to later spans. */
    std::size_t mark() const { return spans_.size(); }

    /** Write every span as Chrome trace-event JSON. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        const char *layer;
        std::int64_t beginNs;
        std::int64_t endNs;
        std::int64_t parent; ///< -1 for roots
        std::size_t op;      ///< id of the enclosing op root
    };

    /** Per span index, the time its children (since `from`) cover. */
    std::vector<std::int64_t> childNs(std::size_t from) const;

    bool on_;
    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

/** Print, above the result line, the median over repetitions of
 *  each layer's self time inside the workload's ops (Spans::selfMs()
 *  of one repetition). */
void printSelfTimes(const std::string &workload,
                    const std::vector<std::map<std::string, double>> &reps);

/**
 * The layer probe of a traced run: measures every per-layer metric on
 * one small program by direct calls into each layer, then reports
 * those `out` does not hold yet. Runs after the workload has reported
 * the per-layer metrics its own ops measure.
 */
void probeLayers(const Options &opt, Outcome &out, Spans &spans);

/** @name Workload entry points (wl_*.cc) */
/// @{
void runBatch(const Options &opt, Outcome &out);
void runQuery(const Options &opt, Outcome &out);
void runServed(const Options &opt, Outcome &out);
/// @}

} // namespace pb

#endif // EDB_PERFBENCH_BENCH_H
