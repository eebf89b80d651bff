/**
 * @file
 * Prometheus text exposition (format version 0.0.4) of the obs
 * registry.
 *
 * Every stored series from obs::collect() joins the family of its
 * (mangled) name: a zero-label instrument is one unlabeled sample, a
 * labeled family one sample per label set. Derived totals are not
 * exported — `edb_served_runs` carries one sample per tenant (plus
 * `{overflow="true"}` past the series cap) and `sum()` over it is the
 * total. Names are mangled to the Prometheus grammar with an `edb_`
 * prefix (`served.runs` -> `edb_served_runs`); histograms expose
 * cumulative `_bucket{le="2^b-1"}` series from the log2 buckets plus
 * `_sum` and `_count`.
 *
 * Under EDB_OBS=OFF the exposition is empty-but-valid: one comment
 * line, no series — scrapers parse it, dashboards show nothing.
 */

#ifndef EDB_TELEMETRY_PROM_H
#define EDB_TELEMETRY_PROM_H

#include <iosfwd>
#include <string>

namespace edb::telemetry {

/** Write the full exposition (HELP/TYPE lines plus every series). */
void writePrometheus(std::ostream &os);

/** The exposition as a string (what METRICS format 0 serves;
 *  content type `text/plain; version=0.0.4`). */
std::string prometheusText();

} // namespace edb::telemetry

#endif // EDB_TELEMETRY_PROM_H
