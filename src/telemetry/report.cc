/**
 * @file
 * The METRICS report: one obs::collect() turned into series and
 * histogram rows, and their JSON serialization.
 */

#include "telemetry/report.h"

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

/** Print a double with enough precision for quantiles without
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

Report
makeReport()
{
    Report report;
#if EDB_OBS_ENABLED
    for (const obs::SeriesValue &s : obs::collect()) {
        if (s.kind != obs::Kind::Histogram) {
            report.series.push_back({s.name, s.labels, s.kind, s.value});
            continue;
        }
        const obs::HistogramValue &h = s.hist;
        report.hists.push_back({s.name, s.labels, h.count, h.sum, h.min,
                                h.max, h.quantile(0.50),
                                h.quantile(0.95), h.quantile(0.99)});
    }
#endif
    return report;
}

std::string
reportToJson(const Report &report)
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"edb-metrics-v2\",\n";

    os << "  \"series\": [";
    bool first = true;
    for (const ReportSeries &s : report.series) {
        os << (first ? "\n" : ",\n") << "    {\"name\": \""
           << jsonEscape(s.name) << "\", \"labels\": ";
        appendLabels(os, s.labels);
        os << ", \"kind\": \"" << obs::kindName(s.kind)
           << "\", \"value\": " << s.value << "}";
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

} // namespace edb::telemetry
