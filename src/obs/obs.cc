/**
 * @file
 * The obs registry: series interning (zero-label slots and labeled
 * cells, the labeled-series cap and its overflow series), shard
 * lifecycle (adopt / recycle), collect(), the by-name snapshot fold,
 * and JSON export.
 *
 * The registry is an intentionally leaked singleton: detached threads
 * and atexit hooks may touch instruments after main() returns, and a
 * destructed registry would turn those into use-after-free. ~30KB of
 * shards plus a few hundred bytes per labeled cell is a fair price
 * for never having to reason about static destruction order.
 */

#include "obs/obs.h"

#if EDB_OBS_ENABLED

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <utility>
#include <vector>

#include <unistd.h>

#include "util/json.h"
#include "util/logging.h"

namespace edb::obs {

constinit thread_local Shard *t_shard = nullptr;

namespace {

constexpr std::uint32_t noSlot = ~std::uint32_t{0};

/** A series' identity; map order is (name, labels), so one name's
 *  series are adjacent. */
using SeriesId = std::pair<std::string, std::vector<Label>>;

/** One stored series: a shard slot (zero-label instrument) or a
 *  shared cell (labeled series). Never freed: handles point in. */
struct Entry
{
    Kind kind = Kind::Counter;
    std::uint32_t slot = noSlot;
    std::atomic<std::int64_t> value{0};
    std::unique_ptr<Shard::Hist> hist; ///< labeled histogram cell
};

/** Add one histogram cell into a merged value (min starts at ~0). */
void
addHist(HistogramValue &dst, const Shard::Hist &src)
{
    const std::uint64_t count = src.count.load(std::memory_order_relaxed);
    if (count == 0)
        return;
    dst.count += count;
    dst.sum += src.sum.load(std::memory_order_relaxed);
    dst.min = std::min(dst.min, src.min.load(std::memory_order_relaxed));
    dst.max = std::max(dst.max, src.max.load(std::memory_order_relaxed));
    for (std::size_t b = 0; b < histBuckets; ++b)
        dst.buckets[b] += src.buckets[b].load(std::memory_order_relaxed);
}

/** Add one merged value into another (the snapshot's family fold). */
void
addHist(HistogramValue &dst, const HistogramValue &src)
{
    if (src.count == 0)
        return;
    dst.min = dst.count == 0 ? src.min : std::min(dst.min, src.min);
    dst.count += src.count;
    dst.sum += src.sum;
    dst.max = std::max(dst.max, src.max);
    for (std::size_t b = 0; b < histBuckets; ++b)
        dst.buckets[b] += src.buckets[b];
}

class Registry
{
  public:
    Registry()
    {
        start_ns_ = monotonicNs();
        fallback_ = new Shard();
        shards_.push_back(fallback_);
        // The thread constructing the first instrument (normally the
        // main thread, during static init) gets its own shard now;
        // adoptCurrentThread() cannot be called here because the
        // registry's magic static is still mid-initialization.
        Shard *self = new Shard();
        shards_.push_back(self);
        t_shard = self;
        // Snapshots at process exit: EDB_OBS_JSON names a file to
        // write without any flag plumbing (benches rely on this), and
        // an enabled-but-unflushed trace sink gets its flush.
        std::atexit([] {
            if (traceEnabled() && !traceFlushed())
                flushTrace();
            if (const char *path = std::getenv("EDB_OBS_JSON");
                path != nullptr && *path != '\0') {
                writeSnapshotJsonFile(path);
            }
        });
    }

    Shard &fallback() { return *fallback_; }
    std::uint64_t startNs() const { return start_ns_; }

    std::uint32_t
    internSlot(const char *name, Kind kind)
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (const Entry *e = find(name, {}, kind)) {
            EDB_ASSERT(e->slot != noSlot,
                       "obs instrument '%s' is also a labeled series",
                       name);
            return e->slot;
        }
        std::uint32_t &next =
            kind == Kind::Histogram ? next_hist_ : next_scalar_;
        const std::size_t cap =
            kind == Kind::Histogram ? maxHistograms : maxScalars;
        EDB_ASSERT(next < cap,
                   "obs registry out of %s slots (%zu); raise "
                   "obs::maxScalars / obs::maxHistograms",
                   kindName(kind), cap);
        Entry &added = series_[{name, {}}];
        added.kind = kind;
        added.slot = next;
        return next++;
    }

    /** The cell of a labeled series, interned on first use; past the
     *  cap a new identity gets its name's overflow series. */
    Entry &
    internCell(const std::string &name, std::vector<Label> labels,
               Kind kind)
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (Entry *e = find(name, labels, kind)) {
            if (e->slot != noSlot) {
                throw std::invalid_argument(
                    "obs series '" + name +
                    "' is a zero-label instrument");
            }
            return *e;
        }
        if (labeled_ >= max_series_) {
            // Degrade attribution, never the process: the update still
            // reaches its name's total through the overflow series.
            labels = {{"overflow", "true"}};
            if (Entry *e = find(name, labels, kind))
                return *e;
        } else {
            ++labeled_;
        }
        Entry &e = series_[{name, std::move(labels)}];
        e.kind = kind;
        if (kind == Kind::Histogram)
            e.hist = std::make_unique<Shard::Hist>();
        return e;
    }

    void
    adoptCurrentThread()
    {
        if (t_shard != nullptr)
            return;
        std::lock_guard<std::mutex> lk(mu_);
        Shard *s;
        if (!free_.empty()) {
            s = free_.back();
            free_.pop_back();
        } else {
            s = new Shard();
            shards_.push_back(s);
        }
        t_shard = s;
    }

    /**
     * Hand a dying thread's shard to the next thread that adopts one,
     * so total footprint tracks peak concurrency, not the number of
     * threads ever created. The shard keeps its values: collect()
     * sums every shard ever created, so nothing is dropped or counted
     * twice, and sums, buckets and min/max stay valid accumulators
     * whichever thread adds to them next.
     */
    void
    retireCurrentThread()
    {
        Shard *s = t_shard;
        if (s == nullptr)
            return;
        t_shard = nullptr;
        std::lock_guard<std::mutex> lk(mu_);
        free_.push_back(s);
    }

    std::vector<SeriesValue>
    collect()
    {
        std::lock_guard<std::mutex> lk(mu_);
        std::vector<SeriesValue> out;
        out.reserve(series_.size());
        for (const auto &[id, e] : series_) {
            SeriesValue v;
            v.name = id.first;
            v.labels = id.second;
            v.kind = e.kind;
            if (e.kind == Kind::Histogram) {
                HistogramValue &h = v.hist;
                h.name = id.first;
                h.min = ~std::uint64_t{0};
                h.buckets.assign(histBuckets, 0);
                if (e.hist) {
                    addHist(h, *e.hist);
                } else {
                    for (const Shard *s : shards_)
                        addHist(h, s->hists[e.slot]);
                }
                if (h.count == 0)
                    h.min = 0;
                v.value = (std::int64_t)h.count;
            } else if (e.slot != noSlot) {
                for (const Shard *s : shards_) {
                    v.value += s->scalars[e.slot].load(
                        std::memory_order_relaxed);
                }
            } else {
                v.value = e.value.load(std::memory_order_relaxed);
            }
            out.push_back(std::move(v));
        }
        return out;
    }

    std::size_t
    labeledCount()
    {
        std::lock_guard<std::mutex> lk(mu_);
        return labeled_;
    }

    std::size_t
    setMaxSeries(std::size_t cap)
    {
        std::lock_guard<std::mutex> lk(mu_);
        return std::exchange(max_series_, cap);
    }

  private:
    /** The entry of (name, labels), or null. Throws
     *  std::invalid_argument when `name` already holds another kind:
     *  one name, one kind, so its series fold into one total. */
    Entry *
    find(const std::string &name, const std::vector<Label> &labels,
         Kind kind)
    {
        auto it = series_.find(SeriesId{name, labels});
        if (it == series_.end()) {
            // The first series of the name, if any, carries its kind.
            it = series_.lower_bound(SeriesId{name, {}});
            if (it == series_.end() || it->first.first != name)
                return nullptr;
        }
        if (it->second.kind != kind) {
            throw std::invalid_argument(
                "obs series '" + name + "' already registered as a " +
                kindName(it->second.kind) + ", not a " +
                kindName(kind));
        }
        return it->first.second == labels ? &it->second : nullptr;
    }

    std::mutex mu_;
    std::uint64_t start_ns_ = 0;
    Shard *fallback_;
    std::vector<Shard *> shards_; ///< every shard ever created
    std::vector<Shard *> free_;   ///< shards of exited threads
    std::map<SeriesId, Entry> series_;
    std::uint32_t next_scalar_ = 0;
    std::uint32_t next_hist_ = 0;
    std::size_t labeled_ = 0;
    std::size_t max_series_ = defaultMaxSeries;
};

Registry &
registry()
{
    static Registry *r = new Registry(); // leaked: see file comment
    return *r;
}

/** Per-thread sentinel whose destructor retires the shard. */
struct ShardRetirer
{
    ~ShardRetirer() { registry().retireCurrentThread(); }
};

/** Canonicalize and validate a label set (see Domain). */
std::vector<Label>
normalizeLabels(std::vector<Label> labels)
{
    if (labels.size() > maxLabelsPerDomain) {
        throw std::invalid_argument(
            "obs domain has " + std::to_string(labels.size()) +
            " labels; the cap is " + std::to_string(maxLabelsPerDomain));
    }
    for (Label &l : labels) {
        if (l.key.empty())
            throw std::invalid_argument("obs label key is empty");
        if (l.value.size() > maxLabelValueBytes)
            l.value.resize(maxLabelValueBytes);
    }
    std::sort(labels.begin(), labels.end(),
              [](const Label &a, const Label &b) { return a.key < b.key; });
    for (std::size_t i = 1; i < labels.size(); ++i) {
        if (labels[i - 1].key == labels[i].key) {
            throw std::invalid_argument("obs label key '" +
                                        labels[i].key + "' appears twice");
        }
    }
    return labels;
}

} // namespace

namespace detail {

std::uint32_t
internSlot(const char *name, Kind kind)
{
    return registry().internSlot(name, kind);
}

Shard &
fallbackShard()
{
    return registry().fallback();
}

} // namespace detail

void
prepareCurrentThread()
{
    registry().adoptCurrentThread();
    // Construct the retirer after adopting, so its destructor (which
    // runs in reverse construction order at thread exit) folds the
    // shard back even when later TLS destructors still count.
    thread_local ShardRetirer retirer;
    (void)retirer;
}

Domain::Domain(std::vector<Label> labels)
    : labels_(normalizeLabels(std::move(labels)))
{
}

Domain
Domain::with(std::string key, std::string value) const
{
    std::vector<Label> ext = labels_;
    ext.push_back({std::move(key), std::move(value)});
    return Domain(std::move(ext));
}

Series
Domain::counter(const std::string &name) const
{
    return Series(&registry().internCell(name, labels_, Kind::Counter).value);
}

Series
Domain::gauge(const std::string &name) const
{
    return Series(&registry().internCell(name, labels_, Kind::Gauge).value);
}

HistSeries
Domain::histogram(const std::string &name) const
{
    return HistSeries(
        registry().internCell(name, labels_, Kind::Histogram).hist.get());
}

double
HistogramValue::quantile(double q) const
{
    if (count == 0)
        return 0.0;
    if (q <= 0.0)
        return (double)min;
    if (q >= 1.0)
        return (double)max;
    // Rank targeting: the q-quantile sits at (fractional) rank
    // q * count within the sorted observations. Walk cumulative
    // bucket counts to the bucket containing that rank, then
    // interpolate linearly inside it. log2 bucket b > 0 spans
    // [2^(b-1), 2^b - 1] (bucket 0 holds only the value 0); both
    // bounds clamp to the histogram's exact min/max, which tightens
    // the head and tail buckets considerably.
    const double target = q * (double)count;
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
        const std::uint64_t n = buckets[b];
        if (n == 0)
            continue;
        if ((double)cum + (double)n >= target) {
            double lo = b == 0
                            ? 0.0
                            : (double)(std::uint64_t{1} << (b - 1));
            double hi;
            if (b == 0)
                hi = 0.0;
            else if (b >= 64)
                hi = (double)~std::uint64_t{0};
            else
                hi = (double)((std::uint64_t{1} << b) - 1);
            lo = std::max(lo, (double)min);
            hi = std::min(hi, (double)max);
            if (hi < lo)
                hi = lo;
            const double pos = (target - (double)cum) / (double)n;
            return lo + pos * (hi - lo);
        }
        cum += n;
    }
    return (double)max;
}

std::int64_t
Snapshot::counter(const std::string &name) const
{
    for (const auto &[n, v] : counters) {
        if (n == name)
            return v;
    }
    return 0;
}

std::int64_t
Snapshot::gauge(const std::string &name) const
{
    for (const auto &[n, v] : gauges) {
        if (n == name)
            return v;
    }
    return 0;
}

const HistogramValue *
Snapshot::histogram(const std::string &name) const &
{
    for (const HistogramValue &h : histograms) {
        if (h.name == name)
            return &h;
    }
    return nullptr;
}

std::vector<SeriesValue>
collect()
{
    return registry().collect();
}

std::size_t
seriesCount()
{
    return registry().labeledCount();
}

std::size_t
setMaxSeriesForTest(std::size_t cap)
{
    return registry().setMaxSeries(cap);
}

Snapshot
takeSnapshot()
{
    Snapshot snap;
    snap.wallMs = (std::uint64_t)std::chrono::duration_cast<
                      std::chrono::milliseconds>(
                      std::chrono::system_clock::now().time_since_epoch())
                      .count();
    snap.uptimeNs = monotonicNs() - registry().startNs();
    snap.pid = (std::int64_t)::getpid();

    // collect() is sorted by name, so each family is one run: fold it
    // into its last row.
    for (SeriesValue &s : collect()) {
        if (s.kind == Kind::Histogram) {
            if (!snap.histograms.empty() &&
                snap.histograms.back().name == s.name) {
                addHist(snap.histograms.back(), s.hist);
            } else {
                snap.histograms.push_back(std::move(s.hist));
            }
            continue;
        }
        auto &rows = s.kind == Kind::Counter ? snap.counters : snap.gauges;
        if (!rows.empty() && rows.back().first == s.name)
            rows.back().second += s.value;
        else
            rows.emplace_back(std::move(s.name), s.value);
    }
    return snap;
}

void
writeSnapshotJson(std::ostream &os)
{
    const Snapshot snap = takeSnapshot();
    os << "{\n  \"schema\": \"edb-obs-snapshot-v2\",\n"
       << "  \"meta\": {\"wall_ms\": " << snap.wallMs
       << ", \"uptime_ns\": " << snap.uptimeNs
       << ", \"pid\": " << snap.pid << "},\n";

    auto scalarBlock = [&os](const char *key, const auto &items,
                             const char *trailer) {
        os << "  \"" << key << "\": {";
        bool first = true;
        for (const auto &[name, value] : items) {
            os << (first ? "\n" : ",\n") << "    \""
               << jsonEscape(name) << "\": " << value;
            first = false;
        }
        os << (first ? "}" : "\n  }") << trailer << "\n";
    };
    scalarBlock("counters", snap.counters, ",");
    scalarBlock("gauges", snap.gauges, ",");

    os << "  \"histograms\": {";
    bool first = true;
    for (const HistogramValue &h : snap.histograms) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(h.name)
           << "\": {\"count\": " << h.count << ", \"sum\": " << h.sum
           << ", \"min\": " << h.min << ", \"max\": " << h.max
           << ",\n      \"buckets\": [";
        // Trailing all-zero buckets add noise; emit up to the last
        // occupied one (log2 bucket b covers values of bit length b).
        std::size_t last = 0;
        for (std::size_t b = 0; b < h.buckets.size(); ++b) {
            if (h.buckets[b] != 0)
                last = b + 1;
        }
        for (std::size_t b = 0; b < last; ++b)
            os << (b ? ", " : "") << h.buckets[b];
        os << "]}";
        first = false;
    }
    os << (first ? "}" : "\n  }") << "\n}\n";
}

bool
writeSnapshotJsonFile(const std::string &path)
{
    // Write-to-temp + rename so a reader polling the path (a live
    // dashboard tailing a daemon's snapshot) never sees a torn file:
    // it observes either the previous complete snapshot or this one.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) {
            warn("obs: cannot open '%s' for the snapshot",
                 tmp.c_str());
            return false;
        }
        writeSnapshotJson(os);
        os.flush();
        if (!os) {
            warn("obs: I/O error writing snapshot to '%s'",
                 tmp.c_str());
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("obs: cannot rename '%s' to '%s'", tmp.c_str(),
             path.c_str());
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace edb::obs

#endif // EDB_OBS_ENABLED
