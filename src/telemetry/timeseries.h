/**
 * @file
 * Time-series collection over the obs registry (DESIGN.md §15).
 *
 * A Sampler takes periodic point-in-time samples of every stored
 * scalar series — zero-label counters/gauges and labeled series
 * alike, from one obs::collect() per tick — into fixed-size
 * per-series ring buffers of {t, value} points, and derives
 * per-second rates for counters over the ring window. The daemon runs
 * one Sampler on a configurable interval and serves its Report
 * through the METRICS protocol op; `edb-trace top` renders the same
 * Report client-side. Like Prometheus, a Report carries the stored
 * series only, not the by-name totals that STATS serves.
 *
 * Sampling cost is one collect per tick — microseconds of work
 * against second-scale intervals, and entirely off the request path
 * (the sampler owns its thread and its own mutex; instruments stay
 * lock-free relaxed atomics).
 *
 * Histograms are not ringed: they are already cumulative, so the
 * Report computes count/sum/min/max and interpolated p50/p95/p99
 * from the live buckets at report time.
 *
 * Under EDB_OBS=OFF the Sampler is an inert shell and every Report
 * is empty — the daemon still answers METRICS with a valid (empty)
 * exposition.
 */

#ifndef EDB_TELEMETRY_TIMESERIES_H
#define EDB_TELEMETRY_TIMESERIES_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace edb::telemetry {

struct SamplerOptions
{
    /** Tick period of the sampling thread started by start(). */
    std::uint64_t intervalMs = 1000;
    /** {t, value} points retained per series; the rate window is
     *  the ring span, so capacity * interval is the averaging
     *  horizon (default ~2 minutes at 1s ticks). */
    std::size_t ringCapacity = 128;
};

/** One scalar series in a Report. */
struct ReportSeries
{
    std::string name;
    std::vector<obs::Label> labels;
    obs::Kind kind = obs::Kind::Counter;
    std::int64_t value = 0; ///< most recent sample
    /** Per-second rate over the ring window; meaningful only when
     *  hasRate (counters with at least two samples). */
    double rate = 0.0;
    bool hasRate = false;
};

/** One histogram in a Report, with interpolated quantiles. */
struct ReportHist
{
    std::string name;
    std::vector<obs::Label> labels;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

/** What METRICS serves: every series plus every histogram. */
struct Report
{
    std::uint64_t intervalMs = 0; ///< 0 when no sampler is running
    std::uint64_t samples = 0;    ///< ticks taken so far
    std::vector<ReportSeries> series;
    std::vector<ReportHist> hists;
};

/** Serialize a Report as JSON (schema edb-metrics-v1). */
std::string reportToJson(const Report &report);

#if EDB_OBS_ENABLED

class Sampler
{
  public:
    explicit Sampler(SamplerOptions options = {});

    /** stop()s the thread if running. */
    ~Sampler();

    Sampler(const Sampler &) = delete;
    Sampler &operator=(const Sampler &) = delete;

    /** Spawn the tick thread (idempotent). */
    void start();

    /** Join the tick thread (idempotent; the destructor calls it). */
    void stop();

    /**
     * Take one sample now. The tick thread calls this; tests call it
     * directly with an injected monotonic timestamp (`now_ns` != 0)
     * to pin rate derivation deterministically.
     */
    void sampleOnce(std::uint64_t now_ns = 0);

    /** Every stored series, sorted by (name, labels): a ringed
     *  series carries its last sample and (counters) its window rate,
     *  one born after the last tick its live value and no rate. */
    Report makeReport() const;

    std::uint64_t samples() const;

    /** A Report built from the current instrument values with no
     *  ring history (every hasRate false) — what METRICS serves
     *  when the daemon runs without a sampler. */
    static Report snapshotReport();

  private:
    struct Ring
    {
        struct Point
        {
            std::uint64_t t_ns = 0;
            std::int64_t value = 0;
        };
        std::vector<Point> pts; ///< capacity-sized, circular
        std::size_t head = 0;   ///< next write slot
        std::size_t n = 0;

        void push(std::uint64_t t_ns, std::int64_t value,
                  std::size_t cap);
        const Point &at(std::size_t i) const; ///< 0 = oldest
    };

    void threadLoop();

    SamplerOptions options_;
    mutable std::mutex mu_;
    /** One ring per scalar series identity (name, labels). */
    std::map<std::pair<std::string, std::vector<obs::Label>>, Ring> rings_;
    std::uint64_t samples_taken_ = 0;
    std::thread thread_;
    std::mutex wake_mu_;
    std::condition_variable wake_cv_;
    bool stop_requested_ = false;
    bool running_ = false;
};

#else // !EDB_OBS_ENABLED

class Sampler
{
  public:
    explicit Sampler(SamplerOptions = {}) {}
    void start() {}
    void stop() {}
    void sampleOnce(std::uint64_t = 0) {}
    Report makeReport() const { return {}; }
    std::uint64_t samples() const { return 0; }
    static Report snapshotReport() { return {}; }
};

#endif // EDB_OBS_ENABLED

} // namespace edb::telemetry

#endif // EDB_TELEMETRY_TIMESERIES_H
