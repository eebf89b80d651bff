/**
 * @file
 * Tests for labeled obs series and the edb::telemetry exporters —
 * label domains, the cardinality cap's overflow series, the METRICS
 * report, the Prometheus exposition, and a TSan-facing concurrency
 * stress. The obs registry is process-global and accumulates across
 * suites, so every assertion here is delta-based or uses test-unique
 * names.
 */

#include <gtest/gtest.h>

#include "obs/obs.h"
#include "telemetry/prom.h"
#include "telemetry/report.h"

#if EDB_OBS_ENABLED

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace edb::telemetry {
namespace {

using obs::collect;
using obs::Domain;
using obs::HistSeries;
using obs::Kind;
using obs::Label;
using obs::maxLabelValueBytes;
using obs::Series;
using obs::SeriesValue;
using obs::seriesCount;
using obs::setMaxSeriesForTest;

/** Find one collected series by (name, single label value). */
const SeriesValue *
findSeries(const std::vector<SeriesValue> &all, const std::string &name,
           const std::string &label_value)
{
    for (const SeriesValue &s : all) {
        if (s.name != name)
            continue;
        if (label_value.empty() && s.labels.empty())
            return &s;
        for (const Label &l : s.labels) {
            if (l.value == label_value)
                return &s;
        }
    }
    return nullptr;
}

TEST(TelemetryDomain, RejectsTooManyLabels)
{
    std::vector<Label> five;
    for (int i = 0; i < 5; ++i)
        five.push_back({"k" + std::to_string(i), "v"});
    EXPECT_THROW(Domain{five}, std::invalid_argument);
    // Exactly maxLabelsPerDomain is fine...
    five.pop_back();
    EXPECT_NO_THROW(Domain{five});
    // ...and with() pushing past the cap throws again.
    Domain four{five};
    EXPECT_THROW(four.with("k9", "v"), std::invalid_argument);
}

TEST(TelemetryDomain, RejectsEmptyAndDuplicateKeys)
{
    EXPECT_THROW(Domain({{"", "v"}}), std::invalid_argument);
    EXPECT_THROW(Domain({{"k", "a"}, {"k", "b"}}),
                 std::invalid_argument);
    Domain d{{"k", "a"}};
    EXPECT_THROW(d.with("k", "b"), std::invalid_argument);
    EXPECT_NO_THROW(d.with("j", "b"));
}

TEST(TelemetryDomain, TruncatesLongLabelValues)
{
    // Values are truncated, never rejected: a tenant's name must not
    // be able to fail its own HELLO.
    const std::string longValue(3 * maxLabelValueBytes, 'x');
    Domain d{{"tenant", longValue}};
    ASSERT_EQ(d.labels().size(), 1u);
    EXPECT_EQ(d.labels()[0].value.size(), maxLabelValueBytes);
}

TEST(TelemetrySeries, CounterGaugeHistogramCollect)
{
    Domain d{{"tenant", "tt-collect"}};
    Series c = d.counter("test.telemetry.collect_c");
    Series g = d.gauge("test.telemetry.collect_g");
    HistSeries h = d.histogram("test.telemetry.collect_h");

    c.add(5);
    c.inc();
    g.add(10);
    g.sub(3);
    h.observe(100);
    h.observe(200);

    const std::vector<SeriesValue> all = collect();
    const SeriesValue *sc =
        findSeries(all, "test.telemetry.collect_c", "tt-collect");
    ASSERT_NE(sc, nullptr);
    EXPECT_EQ(sc->kind, Kind::Counter);
    EXPECT_EQ(sc->value, 6);

    const SeriesValue *sg =
        findSeries(all, "test.telemetry.collect_g", "tt-collect");
    ASSERT_NE(sg, nullptr);
    EXPECT_EQ(sg->kind, Kind::Gauge);
    EXPECT_EQ(sg->value, 7);

    const SeriesValue *sh =
        findSeries(all, "test.telemetry.collect_h", "tt-collect");
    ASSERT_NE(sh, nullptr);
    EXPECT_EQ(sh->kind, Kind::Histogram);
    EXPECT_EQ(sh->hist.count, 2u);
    EXPECT_EQ(sh->hist.sum, 300u);
    EXPECT_EQ(sh->hist.min, 100u);
    EXPECT_EQ(sh->hist.max, 200u);
}

TEST(TelemetrySeries, SameIdentitySharesOneCell)
{
    // Re-interning the identical (name, labels) — e.g. a tenant
    // reconnecting under the same name — resumes the same cell
    // instead of minting a new series.
    Domain a{{"tenant", "tt-shared"}};
    Series s1 = a.counter("test.telemetry.shared");
    s1.inc();
    const std::size_t before = seriesCount();

    Domain b{{"tenant", "tt-shared"}};
    Series s2 = b.counter("test.telemetry.shared");
    s2.add(2);
    EXPECT_EQ(seriesCount(), before);

    const std::vector<SeriesValue> all = collect();
    const SeriesValue *s =
        findSeries(all, "test.telemetry.shared", "tt-shared");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->value, 3);
}

TEST(TelemetrySeries, KindConflictThrows)
{
    Domain d{{"tenant", "tt-kind"}};
    (void)d.counter("test.telemetry.kind_conflict");
    EXPECT_THROW((void)d.gauge("test.telemetry.kind_conflict"),
                 std::invalid_argument);
    EXPECT_THROW((void)d.histogram("test.telemetry.kind_conflict"),
                 std::invalid_argument);
}

TEST(TelemetrySeries, CardinalityCapRoutesToOverflowCell)
{
    // Freeze the cap at the current population: every new identity
    // must land in its name's overflow series, {overflow="true"} —
    // attribution degrades, the process does not abort, each kind
    // keeps its own series, and the name's total stays exact.
    const std::size_t prev = setMaxSeriesForTest(seriesCount());
    const std::size_t frozen = seriesCount();

    const std::vector<SeriesValue> pre = collect();
    const obs::Snapshot snap0 = obs::takeSnapshot();
    const auto preValue = [&pre](const char *name) -> std::int64_t {
        const SeriesValue *s = findSeries(pre, name, "true");
        return s != nullptr ? s->value : 0;
    };

    Domain d{{"tenant", "tt-overflow-newcomer"}};
    Series c = d.counter("test.telemetry.capped");
    c.add(41);
    c.inc();
    // A late tenant's install + open: the gauges overflow too.
    Series g = d.gauge("test.telemetry.capped_g");
    g.add(4096);
    const std::vector<SeriesValue> mid = collect();
    // ...then its remove + close.
    g.sub(4095);
    HistSeries hs = d.histogram("test.telemetry.capped_hist");
    hs.observe(7);

    EXPECT_EQ(seriesCount(), frozen);
    const std::vector<SeriesValue> capped = collect();
    EXPECT_EQ(findSeries(capped, "test.telemetry.capped",
                         "tt-overflow-newcomer"),
              nullptr);
    const SeriesValue *ov =
        findSeries(capped, "test.telemetry.capped", "true");
    ASSERT_NE(ov, nullptr);
    ASSERT_EQ(ov->labels.size(), 1u);
    EXPECT_EQ(ov->labels[0].key, "overflow");
    EXPECT_EQ(ov->kind, Kind::Counter);
    EXPECT_EQ(ov->value, preValue("test.telemetry.capped") + 42);
    const SeriesValue *ovg =
        findSeries(capped, "test.telemetry.capped_g", "true");
    ASSERT_NE(ovg, nullptr);
    EXPECT_EQ(ovg->kind, Kind::Gauge);
    EXPECT_EQ(ovg->value, preValue("test.telemetry.capped_g") + 1);
    const SeriesValue *ovh =
        findSeries(capped, "test.telemetry.capped_hist", "true");
    ASSERT_NE(ovh, nullptr);
    EXPECT_EQ(ovh->kind, Kind::Histogram);
    EXPECT_EQ(ovh->value, preValue("test.telemetry.capped_hist") + 1);

    // No counter series decreases between two reads.
    for (const SeriesValue &a : mid) {
        if (a.kind != Kind::Counter)
            continue;
        for (const SeriesValue &b : capped) {
            if (b.name == a.name && b.labels == a.labels) {
                EXPECT_GE(b.value, a.value) << a.name;
            }
        }
    }

    // Each name's derived total includes the overflowed updates.
    const obs::Snapshot snap = obs::takeSnapshot();
    EXPECT_EQ(snap.counter("test.telemetry.capped") -
                  snap0.counter("test.telemetry.capped"),
              42);
    EXPECT_EQ(snap.gauge("test.telemetry.capped_g") -
                  snap0.gauge("test.telemetry.capped_g"),
              1);
    const obs::HistogramValue *h0 =
        snap0.histogram("test.telemetry.capped_hist");
    const obs::HistogramValue *h =
        snap.histogram("test.telemetry.capped_hist");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count - (h0 != nullptr ? h0->count : 0), 1u);

    setMaxSeriesForTest(prev);

    // With the cap restored, fresh identities intern normally again.
    Series fresh = d.counter("test.telemetry.post_cap");
    fresh.inc();
    const std::vector<SeriesValue> restored = collect();
    EXPECT_NE(findSeries(restored, "test.telemetry.post_cap",
                         "tt-overflow-newcomer"),
              nullptr);
}

TEST(TelemetryReport, CarriesLiveValuesAtEveryCall)
{
    Domain d{{"tenant", "tt-snap"}};
    Series c = d.counter("test.telemetry.snap");
    HistSeries h = d.histogram("test.telemetry.snap_h");
    c.add(9);
    h.observe(100);

    const auto value = [](const Report &report) -> std::int64_t {
        for (const ReportSeries &s : report.series) {
            if (s.name == "test.telemetry.snap" && !s.labels.empty() &&
                s.labels[0].value == "tt-snap") {
                EXPECT_EQ(s.kind, Kind::Counter);
                return s.value;
            }
        }
        ADD_FAILURE() << "test.telemetry.snap missing";
        return -1;
    };
    const Report first = makeReport();
    EXPECT_EQ(value(first), 9);
    // No cached copy: the next report reads the registry again.
    c.add(33);
    EXPECT_EQ(value(makeReport()), 42);

    bool found = false;
    for (const ReportHist &rh : first.hists) {
        if (rh.name == "test.telemetry.snap_h" && !rh.labels.empty() &&
            rh.labels[0].value == "tt-snap") {
            found = true;
            EXPECT_EQ(rh.count, 1u);
            EXPECT_EQ(rh.sum, 100u);
            EXPECT_DOUBLE_EQ(rh.p50, 100.0);
            EXPECT_DOUBLE_EQ(rh.p99, 100.0);
        }
    }
    EXPECT_TRUE(found);
}

TEST(TelemetryJson, ReportSchemaAndShape)
{
    Report report;
    report.series.push_back(
        {"a.b", {{"tenant", "t\"1"}}, Kind::Counter, 7});
    ReportHist h;
    h.name = "lat";
    h.count = 2;
    h.sum = 10;
    h.p50 = 5.0;
    report.hists.push_back(h);

    const std::string json = reportToJson(report);
    EXPECT_NE(json.find("\"schema\": \"edb-metrics-v2\""),
              std::string::npos);
    EXPECT_NE(json.find("\"value\": 7}"), std::string::npos);
    // Live values only: no interval, sample count or rate.
    EXPECT_EQ(json.find("interval_ms"), std::string::npos);
    EXPECT_EQ(json.find("\"samples\""), std::string::npos);
    EXPECT_EQ(json.find("\"rate\""), std::string::npos);
    EXPECT_NE(json.find("\\\"1"), std::string::npos); // escaped quote
    EXPECT_NE(json.find("\"p50\": 5"), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST(TelemetryProm, ExpositionIsWellFormed)
{
    // Populate at least one labeled series of each kind.
    Domain d{{"tenant", "tt-prom"}};
    d.counter("test.telemetry.prom_c").add(3);
    d.gauge("test.telemetry.prom_g").add(1);
    HistSeries h = d.histogram("test.telemetry.prom_h");
    h.observe(1);
    h.observe(1000);

    const std::string text = prometheusText();
    std::istringstream in(text);
    std::string line;
    std::set<std::string> typed;     // families with a TYPE comment
    std::set<std::string> helped;    // families with a HELP comment
    std::set<std::string> seen;      // sample identities (name+labels)
    while (std::getline(in, line)) {
        ASSERT_FALSE(line.empty());
        if (line.rfind("# HELP ", 0) == 0) {
            helped.insert(line.substr(7, line.find(' ', 7) - 7));
            continue;
        }
        if (line.rfind("# TYPE ", 0) == 0) {
            typed.insert(line.substr(7, line.find(' ', 7) - 7));
            continue;
        }
        ASSERT_NE(line[0], '#') << line;
        // Mangled names only, and the family must be declared first.
        EXPECT_EQ(line.rfind("edb_", 0), 0u) << line;
        const std::string ident = line.substr(0, line.rfind(' '));
        EXPECT_TRUE(seen.insert(ident).second)
            << "duplicate series: " << ident;
        std::string family = ident.substr(0, ident.find('{'));
        for (const char *suffix : {"_bucket", "_sum", "_count"}) {
            const std::size_t n = std::strlen(suffix);
            if (family.size() > n &&
                family.compare(family.size() - n, n, suffix) == 0 &&
                typed.count(family) == 0) {
                family.resize(family.size() - n);
                break;
            }
        }
        EXPECT_EQ(typed.count(family), 1u) << "untyped: " << line;
        EXPECT_EQ(helped.count(family), 1u) << "unhelped: " << line;
    }

    // The labeled series render with their label block.
    EXPECT_NE(
        text.find("edb_test_telemetry_prom_c{tenant=\"tt-prom\"} 3"),
        std::string::npos);
    // Histogram family: +Inf bucket equals _count.
    EXPECT_NE(text.find("edb_test_telemetry_prom_h_bucket{"
                        "tenant=\"tt-prom\",le=\"+Inf\"} 2"),
              std::string::npos);
    EXPECT_NE(
        text.find("edb_test_telemetry_prom_h_count{tenant=\"tt-prom\"} 2"),
        std::string::npos);
}

TEST(TelemetryStress, ConcurrentDomainsCollectAndSample)
{
    // TSan-facing: racing interns of the same identities, hot-path
    // increments, and concurrent collect()/makeReport() readers.
    constexpr int kThreads = 8;
    constexpr int kIters = 5000;

    std::atomic<bool> done{false};
    std::thread reader([&] {
        while (!done.load(std::memory_order_relaxed)) {
            (void)collect();
            (void)makeReport();
        }
    });

    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([t] {
            // Four distinct tenants, interned racily from two
            // threads each.
            Domain d{
                {"tenant", "tt-stress-" + std::to_string(t % 4)}};
            Series c = d.counter("test.telemetry.stress");
            HistSeries h = d.histogram("test.telemetry.stress_h");
            for (int i = 0; i < kIters; ++i) {
                c.inc();
                h.observe((std::uint64_t)i);
            }
        });
    }
    for (std::thread &w : workers)
        w.join();
    done.store(true, std::memory_order_relaxed);
    reader.join();

    std::int64_t total = 0;
    std::uint64_t hist_total = 0;
    for (const SeriesValue &s : collect()) {
        if (s.name == "test.telemetry.stress")
            total += s.value;
        if (s.name == "test.telemetry.stress_h")
            hist_total += s.hist.count;
    }
    EXPECT_EQ(total, (std::int64_t)kThreads * kIters);
    EXPECT_EQ(hist_total, (std::uint64_t)kThreads * kIters);
}

} // namespace
} // namespace edb::telemetry

#else // !EDB_OBS_ENABLED

TEST(Telemetry, DisabledInThisBuild)
{
    GTEST_SKIP()
        << "built with EDB_OBS=OFF; telemetry layer compiled away";
}

#endif // EDB_OBS_ENABLED
