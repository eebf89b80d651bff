/**
 * @file
 * Sampler implementation: the tick thread, per-series ring buffers,
 * counter-rate derivation, and the JSON serialization of a Report.
 */

#include "telemetry/timeseries.h"

#include <chrono>
#include <cstdio>
#include <sstream>

#include "util/json.h"

namespace edb::telemetry {

namespace {

void
appendLabels(std::ostream &os, const std::vector<obs::Label> &labels)
{
    os << "{";
    bool first = true;
    for (const obs::Label &l : labels) {
        os << (first ? "" : ", ") << "\"" << jsonEscape(l.key)
           << "\": \"" << jsonEscape(l.value) << "\"";
        first = false;
    }
    os << "}";
}

/** Print a double with enough precision for rates/quantiles without
 *  JSON-hostile artifacts (NaN/Inf degrade to 0). */
std::string
jsonNumber(double v)
{
    if (!(v > -1e300 && v < 1e300)) // catches NaN and +-Inf
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

} // namespace

std::string
reportToJson(const Report &report)
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"edb-metrics-v1\",\n"
       << "  \"interval_ms\": " << report.intervalMs << ",\n"
       << "  \"samples\": " << report.samples << ",\n";

    os << "  \"series\": [";
    bool first = true;
    for (const ReportSeries &s : report.series) {
        os << (first ? "\n" : ",\n") << "    {\"name\": \""
           << jsonEscape(s.name) << "\", \"labels\": ";
        appendLabels(os, s.labels);
        os << ", \"kind\": \"" << obs::kindName(s.kind)
           << "\", \"value\": " << s.value;
        if (s.hasRate)
            os << ", \"rate\": " << jsonNumber(s.rate);
        os << "}";
        first = false;
    }
    os << (first ? "]," : "\n  ],") << "\n";

    os << "  \"histograms\": [";
    first = true;
    for (const ReportHist &h : report.hists) {
        os << (first ? "\n" : ",\n") << "    {\"name\": \""
           << jsonEscape(h.name) << "\", \"labels\": ";
        appendLabels(os, h.labels);
        os << ", \"count\": " << h.count << ", \"sum\": " << h.sum
           << ", \"min\": " << h.min << ", \"max\": " << h.max
           << ", \"p50\": " << jsonNumber(h.p50)
           << ", \"p95\": " << jsonNumber(h.p95)
           << ", \"p99\": " << jsonNumber(h.p99) << "}";
        first = false;
    }
    os << (first ? "]" : "\n  ]") << "\n}\n";
    return os.str();
}

#if EDB_OBS_ENABLED

namespace {

/** Every series of `all` at its live value, no rates: what
 *  snapshotReport() serves and what makeReport() starts from. */
Report
liveReport(const std::vector<obs::SeriesValue> &all)
{
    Report report;
    for (const obs::SeriesValue &s : all) {
        if (s.kind != obs::Kind::Histogram) {
            report.series.push_back({s.name, s.labels, s.kind, s.value});
            continue;
        }
        const obs::HistogramValue &h = s.hist;
        report.hists.push_back({s.name, s.labels, h.count, h.sum, h.min,
                                h.max, h.quantile(0.50),
                                h.quantile(0.95), h.quantile(0.99)});
    }
    return report;
}

} // namespace

void
Sampler::Ring::push(std::uint64_t t_ns, std::int64_t value,
                    std::size_t cap)
{
    if (pts.size() < cap) {
        pts.push_back({t_ns, value});
        ++n;
        head = pts.size() % cap;
        return;
    }
    pts[head] = {t_ns, value};
    head = (head + 1) % cap;
}

const Sampler::Ring::Point &
Sampler::Ring::at(std::size_t i) const
{
    const std::size_t cap = pts.size();
    // When the ring is full, `head` is the oldest slot.
    const std::size_t base = n < cap ? 0 : head;
    return pts[(base + i) % cap];
}

Sampler::Sampler(SamplerOptions options) : options_(options)
{
    if (options_.ringCapacity < 2)
        options_.ringCapacity = 2;
    if (options_.intervalMs == 0)
        options_.intervalMs = 1000;
}

Sampler::~Sampler()
{
    stop();
}

void
Sampler::start()
{
    std::lock_guard<std::mutex> lk(wake_mu_);
    if (running_)
        return;
    stop_requested_ = false;
    running_ = true;
    thread_ = std::thread([this] { threadLoop(); });
}

void
Sampler::stop()
{
    {
        std::lock_guard<std::mutex> lk(wake_mu_);
        if (!running_)
            return;
        stop_requested_ = true;
    }
    wake_cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
    std::lock_guard<std::mutex> lk(wake_mu_);
    running_ = false;
}

void
Sampler::threadLoop()
{
    obs::prepareCurrentThread();
    for (;;) {
        sampleOnce();
        std::unique_lock<std::mutex> lk(wake_mu_);
        wake_cv_.wait_for(
            lk, std::chrono::milliseconds(options_.intervalMs),
            [this] { return stop_requested_; });
        if (stop_requested_)
            return;
    }
}

void
Sampler::sampleOnce(std::uint64_t now_ns)
{
    if (now_ns == 0)
        now_ns = obs::monotonicNs();
    const std::vector<obs::SeriesValue> all = obs::collect();

    std::lock_guard<std::mutex> lk(mu_);
    for (const obs::SeriesValue &s : all) {
        if (s.kind != obs::Kind::Histogram) {
            rings_[{s.name, s.labels}].push(now_ns, s.value,
                                            options_.ringCapacity);
        }
    }
    ++samples_taken_;
}

Report
Sampler::makeReport() const
{
    Report report = liveReport(obs::collect());
    report.intervalMs = options_.intervalMs;
    std::lock_guard<std::mutex> lk(mu_);
    report.samples = samples_taken_;
    for (ReportSeries &rs : report.series) {
        const auto it = rings_.find({rs.name, rs.labels});
        if (it == rings_.end())
            continue;
        const Ring &ring = it->second;
        const Ring::Point &last = ring.at(ring.n - 1);
        rs.value = last.value;
        if (rs.kind == obs::Kind::Counter && ring.n >= 2) {
            const Ring::Point &oldest = ring.at(0);
            const std::uint64_t dt = last.t_ns - oldest.t_ns;
            if (dt > 0 && last.value >= oldest.value) {
                rs.rate = (double)(last.value - oldest.value) * 1e9 /
                          (double)dt;
                rs.hasRate = true;
            }
        }
    }
    return report;
}

std::uint64_t
Sampler::samples() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return samples_taken_;
}

Report
Sampler::snapshotReport()
{
    Report report = liveReport(obs::collect());
    report.samples = 1;
    return report;
}

#endif // EDB_OBS_ENABLED

} // namespace edb::telemetry
