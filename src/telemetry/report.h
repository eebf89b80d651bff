/**
 * @file
 * The METRICS report over the obs registry (DESIGN.md §15.3).
 *
 * makeReport() reads every stored series — zero-label counters and
 * gauges, labeled series and histograms alike — from one
 * obs::collect(), at its live value. Histograms carry count, sum,
 * min, max and interpolated p50/p95/p99 from the live buckets. The
 * daemon serves the Report through the METRICS protocol op as JSON
 * or binary rows; `edb-trace top` derives counter rates itself from
 * two reports. Like Prometheus, a Report carries the stored series
 * only, not the by-name totals that STATS serves.
 *
 * Nothing samples in the background: a report costs one collect when
 * someone asks for it. Under EDB_OBS=OFF every Report is empty — the
 * daemon still answers METRICS with a valid (empty) report.
 */

#ifndef EDB_TELEMETRY_REPORT_H
#define EDB_TELEMETRY_REPORT_H

#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace edb::telemetry {

/** One scalar series in a Report. */
struct ReportSeries
{
    std::string name;
    std::vector<obs::Label> labels;
    obs::Kind kind = obs::Kind::Counter;
    std::int64_t value = 0;
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
    std::vector<ReportSeries> series;
    std::vector<ReportHist> hists;
};

/** Every stored series at its live value, sorted by (name, labels),
 *  from one obs::collect(). Thread-safe. */
Report makeReport();

/** Serialize a Report as JSON (schema edb-metrics-v2). */
std::string reportToJson(const Report &report);

} // namespace edb::telemetry

#endif // EDB_TELEMETRY_REPORT_H
