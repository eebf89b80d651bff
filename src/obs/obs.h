/**
 * @file
 * `edb::obs` — the process-wide metrics registry and its instruments
 * (DESIGN.md §10, §15).
 *
 * One registry holds every series, identified by a name plus an
 * optional label set:
 *
 *  - Zero-label instruments (Counter / Gauge / Histogram) are
 *    constructed once with a fixed name and backed by thread-local
 *    shards of relaxed atomics: the hot-path increment is one relaxed
 *    fetch_add into the calling thread's shard, no locks, no
 *    allocation.
 *  - Labeled series (`served.runs{tenant="a"}`) come from a Domain,
 *    a set of up to maxLabelsPerDomain label pairs, at run time. Each
 *    is one shared cell of the same registry; an update is one
 *    relaxed RMW on it (a Histogram cell uses the same Shard::Hist
 *    layout and observe routine as the shards). Label values arrive
 *    from clients, so the registry caps the number of labeled series:
 *    past the cap a new identity lands in its name's overflow series,
 *    `name{overflow="true"}`, instead of aborting.
 *
 * collect() is the one read: every stored series, merged across
 * shards. takeSnapshot() folds it by name, so the snapshot value of
 * a labeled family is the sum over its labels — the process-global
 * total is derived at read time, never counted a second time.
 *
 * Signal-safety rules:
 *
 *  - Counter::add / Gauge::add / Histogram::observe and
 *    Series::add / HistSeries::observe are async-signal-safe: when
 *    the calling thread has no shard (it never called
 *    prepareCurrentThread()), the increment lands in a shared
 *    fallback shard via the same lock-free atomics — never an
 *    allocation, never a mutex. Signal-context code (live WMS
 *    notification paths) may therefore bump counters freely.
 *  - Everything else — instrument and series *creation*, ScopeTimer
 *    spans, the trace sink, collect() and snapshots — allocates or
 *    locks and must stay out of signal handlers.
 *
 * Compile-time gating: when the build sets EDB_OBS=OFF (no
 * EDB_OBS_ENABLED definition), the EDB_OBS_* macros below expand to
 * nothing, the zero-label instrument types do not exist, and Domain /
 * Series / HistSeries collapse to inline no-ops, so instrumented code
 * carries zero cost — not even a load — in the off build. Label and
 * Kind stay: the METRICS wire rows use them in every build.
 */

#ifndef EDB_OBS_OBS_H
#define EDB_OBS_OBS_H

#ifndef EDB_OBS_ENABLED
#define EDB_OBS_ENABLED 0
#endif

#include <compare>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace edb::obs {

/** One key=value attribution pair. */
struct Label
{
    std::string key;
    std::string value;

    auto operator<=>(const Label &) const = default;
};

/** What a series measures (Prometheus exposition types). */
enum class Kind : std::uint8_t { Counter = 0, Gauge = 1, Histogram = 2 };

/** The exposition type name of a kind ("counter", ...). */
constexpr const char *
kindName(Kind kind)
{
    switch (kind) {
      case Kind::Counter: return "counter";
      case Kind::Gauge: return "gauge";
      case Kind::Histogram: return "histogram";
    }
    return "?";
}

} // namespace edb::obs

#if EDB_OBS_ENABLED

#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <iosfwd>

namespace edb::obs {

/** Registry capacity: scalar slots (counters + gauges) per shard. */
inline constexpr std::size_t maxScalars = 256;
/** Registry capacity: histogram slots per shard. */
inline constexpr std::size_t maxHistograms = 64;
/** log2 buckets per histogram: bucket 0 holds value 0, bucket b>0
 *  holds values with bit length b (covers the full uint64 range). */
inline constexpr std::size_t histBuckets = 65;
/** Label pairs one Domain may carry. */
inline constexpr std::size_t maxLabelsPerDomain = 4;
/** Label values longer than this are truncated (never rejected:
 *  a tenant's chosen name must not be able to fail HELLO). */
inline constexpr std::size_t maxLabelValueBytes = 128;
/** Default cap on distinct labeled series (overflow series aside). */
inline constexpr std::size_t defaultMaxSeries = 4096;

/**
 * One thread's slice of every instrument. All members are lock-free
 * atomics updated with relaxed ordering; exact totals come from the
 * collect() merge, which only needs eventual per-cell consistency.
 */
struct Shard
{
    struct Hist
    {
        std::atomic<std::uint64_t> count{0};
        std::atomic<std::uint64_t> sum{0};
        /** Tracked via lock-free CAS loops. */
        std::atomic<std::uint64_t> min{~std::uint64_t{0}};
        std::atomic<std::uint64_t> max{0};
        std::atomic<std::uint64_t> buckets[histBuckets]{};

        static constexpr std::size_t
        bucketOf(std::uint64_t v) noexcept
        {
            return (std::size_t)(64 - std::countl_zero(v | 1)) -
                   (v == 0 ? 1 : 0);
        }

        /** Async-signal-safe: a few relaxed RMWs, the min/max CAS
         *  loops are lock-free. */
        void
        observe(std::uint64_t v) noexcept
        {
            buckets[bucketOf(v)].fetch_add(1, std::memory_order_relaxed);
            count.fetch_add(1, std::memory_order_relaxed);
            sum.fetch_add(v, std::memory_order_relaxed);
            std::uint64_t cur = min.load(std::memory_order_relaxed);
            while (v < cur && !min.compare_exchange_weak(
                                  cur, v, std::memory_order_relaxed)) {
            }
            cur = max.load(std::memory_order_relaxed);
            while (v > cur && !max.compare_exchange_weak(
                                  cur, v, std::memory_order_relaxed)) {
            }
        }
    };

    std::atomic<std::int64_t> scalars[maxScalars]{};
    Hist hists[maxHistograms]{};
};

/**
 * The calling thread's shard, or null when the thread never called
 * prepareCurrentThread() (then instruments fall back to the shared
 * fallback shard). constinit: access is a raw TLS load, no guard.
 */
extern constinit thread_local Shard *t_shard;

/**
 * Give the calling thread its own shard (idempotent). Worker threads
 * call this once at startup so their increments stay uncontended; the
 * shard keeps its values and is handed to the next thread that asks
 * when this one exits. NOT async-signal-safe (may allocate).
 */
void prepareCurrentThread();

/** Monotonic nanoseconds (steady clock), for spans and histograms. */
inline std::uint64_t
monotonicNs() noexcept
{
    return (std::uint64_t)std::chrono::duration_cast<
               std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace detail {
/** Intern a zero-label instrument; returns its shard slot. Panics
 *  on a full registry; throws std::invalid_argument when the name
 *  already holds another kind (a program bug). */
std::uint32_t internSlot(const char *name, Kind kind);
/** The shared fallback shard for threads without their own. */
Shard &fallbackShard();
} // namespace detail

/**
 * Monotonically increasing event count. Construction interns the name
 * in the process-wide registry (once; construct at namespace scope or
 * as a function-local static, not per call site execution).
 */
class Counter
{
  public:
    explicit Counter(const char *name)
        : id_(detail::internSlot(name, Kind::Counter)),
          fallback_(&detail::fallbackShard())
    {
    }

    /** Async-signal-safe; one relaxed fetch_add. */
    void
    add(std::uint64_t n) noexcept
    {
        Shard *s = t_shard;
        (s ? s : fallback_)
            ->scalars[id_]
            .fetch_add((std::int64_t)n, std::memory_order_relaxed);
    }

    void inc() noexcept { add(1); }

  private:
    std::uint32_t id_;
    Shard *fallback_;
};

/**
 * A signed level (queue depth, resident bytes). Stored as a
 * sum-of-deltas so shard merging is plain addition; the snapshot
 * value is the net level across all threads.
 */
class Gauge
{
  public:
    explicit Gauge(const char *name)
        : id_(detail::internSlot(name, Kind::Gauge)),
          fallback_(&detail::fallbackShard())
    {
    }

    /** Async-signal-safe; one relaxed fetch_add. */
    void
    add(std::int64_t d) noexcept
    {
        Shard *s = t_shard;
        (s ? s : fallback_)
            ->scalars[id_]
            .fetch_add(d, std::memory_order_relaxed);
    }

    void sub(std::int64_t d) noexcept { add(-d); }

  private:
    std::uint32_t id_;
    Shard *fallback_;
};

/**
 * A histogram tallied in plain fields, for loops where even the
 * relaxed RMWs of Histogram::observe() cost too much (DESIGN.md
 * §10.2): observe() here, then Histogram::merge() once. Same bucket
 * scheme, so merging n observations publishes exactly what n
 * Histogram::observe() calls would.
 */
struct HistTally
{
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = ~std::uint64_t{0};
    std::uint64_t max = 0;
    std::uint64_t buckets[histBuckets]{};

    void
    observe(std::uint64_t v) noexcept
    {
        ++buckets[Shard::Hist::bucketOf(v)];
        ++count;
        sum += v;
        min = v < min ? v : min;
        max = v > max ? v : max;
    }
};

/**
 * log2-bucketed value distribution with exact count/sum/min/max.
 * observe() is async-signal-safe (Shard::Hist::observe).
 */
class Histogram
{
  public:
    explicit Histogram(const char *name)
        : id_(detail::internSlot(name, Kind::Histogram)),
          fallback_(&detail::fallbackShard())
    {
    }

    static constexpr std::size_t
    bucketOf(std::uint64_t v) noexcept
    {
        return Shard::Hist::bucketOf(v);
    }

    void
    observe(std::uint64_t v) noexcept
    {
        Shard *s = t_shard;
        (s ? s : fallback_)->hists[id_].observe(v);
    }

    /** Fold a plain tally in: one RMW per field and nonzero bucket,
     *  whatever its count. Async-signal-safe. */
    void
    merge(const HistTally &t) noexcept
    {
        if (t.count == 0)
            return;
        Shard *s = t_shard;
        Shard::Hist &h = (s ? s : fallback_)->hists[id_];
        for (std::size_t b = 0; b < histBuckets; ++b) {
            if (t.buckets[b] != 0)
                h.buckets[b].fetch_add(t.buckets[b],
                                       std::memory_order_relaxed);
        }
        h.count.fetch_add(t.count, std::memory_order_relaxed);
        h.sum.fetch_add(t.sum, std::memory_order_relaxed);
        std::uint64_t cur = h.min.load(std::memory_order_relaxed);
        while (t.min < cur && !h.min.compare_exchange_weak(
                                  cur, t.min, std::memory_order_relaxed)) {
        }
        cur = h.max.load(std::memory_order_relaxed);
        while (t.max > cur && !h.max.compare_exchange_weak(
                                  cur, t.max, std::memory_order_relaxed)) {
        }
    }

  private:
    std::uint32_t id_;
    Shard *fallback_;
};

/**
 * Handle to a labeled counter or gauge cell. Cheap to copy; a
 * default-constructed handle is a no-op sink. Cells live as long as
 * the (leaked) registry, so a handle never dangles.
 */
class Series
{
  public:
    Series() = default;

    /** Async-signal-safe; one relaxed fetch_add. */
    void
    add(std::int64_t d) const noexcept
    {
        if (cell_ != nullptr)
            cell_->fetch_add(d, std::memory_order_relaxed);
    }

    void inc() const noexcept { add(1); }
    void sub(std::int64_t d) const noexcept { add(-d); }

  private:
    friend class Domain;
    explicit Series(std::atomic<std::int64_t> *cell) : cell_(cell) {}
    std::atomic<std::int64_t> *cell_ = nullptr;
};

/** Handle to a labeled histogram cell (the log2 bucket scheme). */
class HistSeries
{
  public:
    HistSeries() = default;

    /** Async-signal-safe (Shard::Hist::observe). */
    void
    observe(std::uint64_t v) const noexcept
    {
        if (cell_ != nullptr)
            cell_->observe(v);
    }

  private:
    friend class Domain;
    explicit HistSeries(Shard::Hist *cell) : cell_(cell) {}
    Shard::Hist *cell_ = nullptr;
};

/**
 * A set of label pairs scoping series names. Construction validates
 * the labels once; the factories then intern (name, labels) series
 * in the registry. Interning the same identity again (a tenant
 * reconnecting under its name) returns the same cell.
 *
 * Validation throws std::invalid_argument on more than
 * maxLabelsPerDomain pairs, an empty key, or a duplicate key; label
 * *values* are truncated to maxLabelValueBytes rather than rejected.
 * The factories throw std::invalid_argument when the name is already
 * registered with a different kind; past the series cap they return
 * the name's overflow series (see setMaxSeriesForTest()).
 */
class Domain
{
  public:
    /** The empty domain: series carry no labels. */
    Domain() = default;

    Domain(std::initializer_list<Label> labels)
        : Domain(std::vector<Label>(labels))
    {
    }

    explicit Domain(std::vector<Label> labels);

    /** A copy of this domain extended with one more pair (same
     *  validation: a duplicate key or a fifth pair throws). */
    Domain with(std::string key, std::string value) const;

    const std::vector<Label> &labels() const { return labels_; }

    Series counter(const std::string &name) const;
    Series gauge(const std::string &name) const;
    HistSeries histogram(const std::string &name) const;

  private:
    std::vector<Label> labels_; ///< key-ascending, canonical
};

/** One merged histogram in a Snapshot. min/max are 0 when count is. */
struct HistogramValue
{
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::vector<std::uint64_t> buckets; ///< histBuckets entries

    /**
     * Estimate the q-quantile (q in [0, 1]) by linear interpolation
     * inside the log2 bucket holding the target rank, with the
     * bucket's bounds clamped to the observed min/max (so q=0 / q=1
     * return min / max exactly, and a single-valued distribution
     * returns that value for every q). Returns 0 when count is 0.
     */
    double quantile(double q) const;
};

/** One stored series as collect() reads it. */
struct SeriesValue
{
    std::string name;
    std::vector<Label> labels; ///< key-ascending; empty: zero-label
    Kind kind = Kind::Counter;
    /** Counter / gauge value; a histogram's count. */
    std::int64_t value = 0;
    HistogramValue hist; ///< kind == Kind::Histogram only
};

/**
 * The one read of the registry: every stored series — zero-label
 * instruments merged across shards, every labeled series, overflow
 * series included — sorted by (name, labels), so a name's series are
 * adjacent. Values are relaxed reads: concurrent increments may or
 * may not be included. Thread-safe.
 */
std::vector<SeriesValue> collect();

/** Distinct labeled series counted against the cap (overflow series
 *  excluded). */
std::size_t seriesCount();

/** Override the labeled-series cap; returns the previous value.
 *  Exists for the cap-enforcement tests — production keeps
 *  defaultMaxSeries. */
std::size_t setMaxSeriesForTest(std::size_t cap);

/**
 * collect() folded by name: one value per name, names sorted
 * ascending. A labeled family's value is the sum over its series (a
 * histogram family merges its buckets), so `served.runs` is the
 * total over every tenant.
 */
struct Snapshot
{
    /** Wall-clock milliseconds since the Unix epoch at merge time. */
    std::uint64_t wallMs = 0;
    /** Monotonic nanoseconds since the obs registry was created
     *  (effectively process uptime: the registry comes up with the
     *  first instrument, during static init). */
    std::uint64_t uptimeNs = 0;
    /** Process id, so snapshot files can be matched to a daemon. */
    std::int64_t pid = 0;

    std::vector<std::pair<std::string, std::int64_t>> counters;
    std::vector<std::pair<std::string, std::int64_t>> gauges;
    std::vector<HistogramValue> histograms;

    /** Value of a counter by name; 0 when absent. */
    std::int64_t counter(const std::string &name) const;
    /** Value of a gauge by name; 0 when absent. */
    std::int64_t gauge(const std::string &name) const;
    /** Histogram by name; null when absent. Lvalue-only: the pointer
     *  aims into this Snapshot, so calling it on a temporary
     *  (`takeSnapshot().histogram(...)`) would dangle. */
    const HistogramValue *histogram(const std::string &name) const &;
    const HistogramValue *histogram(const std::string &name) const && =
        delete;
};

/** collect(), folded by name, plus the meta fields. Thread-safe. */
Snapshot takeSnapshot();

/** Serialize takeSnapshot() as JSON (schema edb-obs-snapshot-v2:
 *  a `meta` block with wall_ms/uptime_ns/pid precedes the
 *  instrument blocks, so tools can compute rates between two
 *  timestamped snapshots). */
void writeSnapshotJson(std::ostream &os);

/** writeSnapshotJson() to a file, atomically (written to
 *  `path + ".tmp"` then renamed, so concurrent readers never see a
 *  torn snapshot); warns and returns false on error. */
bool writeSnapshotJsonFile(const std::string &path);

// ---- Chrome trace-event sink (trace_sink.cc) -----------------------

/** Whether span B/E events are being captured (one relaxed load). */
bool traceEnabled() noexcept;

/**
 * Start capturing ScopeTimer spans into per-thread buffers for a
 * later flushTrace() to `path`. Not signal-safe.
 */
void enableTrace(std::string path);

/**
 * Write every buffered event as a chrome://tracing-loadable
 * {"traceEvents": [...]} JSON file. Idempotent-safe: each call
 * rewrites the full buffer. Returns false (after a warn) on I/O
 * failure or when tracing was never enabled.
 */
bool flushTrace();

/** True once flushTrace() succeeded (the atexit hook then skips). */
bool traceFlushed() noexcept;

/** Append one event; `ph` is the Chrome phase ('B' or 'E'). */
void emitTraceEvent(const char *name, char ph, std::uint64_t ns);

/** Append one event carrying a numeric argument (serialized as
 *  `"args": {"id": arg}`), e.g. a served request id, so spans can be
 *  correlated with log lines in chrome://tracing. */
void emitTraceEvent(const char *name, char ph, std::uint64_t ns,
                    std::uint64_t arg);

/**
 * RAII span: emits B/E trace events while tracing is enabled and
 * (optionally) observes its duration in nanoseconds into a
 * Histogram. Costs two relaxed loads when idle. Not signal-safe.
 */
class ScopeTimer
{
  public:
    explicit ScopeTimer(const char *name,
                        Histogram *hist = nullptr) noexcept
        : name_(name), hist_(hist), traced_(traceEnabled())
    {
        if (hist_ != nullptr || traced_)
            start_ns_ = monotonicNs();
        if (traced_)
            emitTraceEvent(name_, 'B', start_ns_);
    }

    ~ScopeTimer()
    {
        if (hist_ == nullptr && !traced_)
            return;
        const std::uint64_t end_ns = monotonicNs();
        if (traced_)
            emitTraceEvent(name_, 'E', end_ns);
        if (hist_ != nullptr)
            hist_->observe(end_ns - start_ns_);
    }

    ScopeTimer(const ScopeTimer &) = delete;
    ScopeTimer &operator=(const ScopeTimer &) = delete;

  private:
    const char *name_;
    Histogram *hist_;
    std::uint64_t start_ns_ = 0;
    bool traced_;
};

} // namespace edb::obs

// ---- Instrumentation macros (ON build) -----------------------------

/** Splice code into the build only when obs is compiled in. */
#define EDB_OBS_ONLY(...) __VA_ARGS__

#define EDB_OBS_INC(instr) (instr).inc()
#define EDB_OBS_ADD(instr, n) (instr).add(n)
#define EDB_OBS_GAUGE_ADD(instr, d) (instr).add(d)
#define EDB_OBS_GAUGE_SUB(instr, d) (instr).sub(d)
#define EDB_OBS_OBSERVE(instr, v) (instr).observe(v)

#define EDB_OBS_CONCAT_IMPL(a, b) a##b
#define EDB_OBS_CONCAT(a, b) EDB_OBS_CONCAT_IMPL(a, b)
/** RAII span scoped to the enclosing block. */
#define EDB_OBS_SPAN(name)                                               \
    ::edb::obs::ScopeTimer EDB_OBS_CONCAT(edb_obs_span_,                 \
                                          __LINE__)(name)
/** Span that also feeds its duration (ns) into a Histogram. */
#define EDB_OBS_TIMED_SPAN(name, hist)                                   \
    ::edb::obs::ScopeTimer EDB_OBS_CONCAT(edb_obs_span_,                 \
                                          __LINE__)(name, &(hist))

#else // !EDB_OBS_ENABLED — every macro compiles away entirely.

namespace edb::obs {

/** Labeled handles as inline no-op shells, zero cost. */
class Series
{
  public:
    void add(std::int64_t) const noexcept {}
    void inc() const noexcept {}
    void sub(std::int64_t) const noexcept {}
};

class HistSeries
{
  public:
    void observe(std::uint64_t) const noexcept {}
};

class Domain
{
  public:
    Domain() = default;
    Domain(std::initializer_list<Label>) {}
    Series counter(const std::string &) const { return {}; }
    Series gauge(const std::string &) const { return {}; }
    HistSeries histogram(const std::string &) const { return {}; }
};

} // namespace edb::obs

#define EDB_OBS_ONLY(...)

#define EDB_OBS_INC(instr) ((void)0)
#define EDB_OBS_ADD(instr, n) ((void)0)
#define EDB_OBS_GAUGE_ADD(instr, d) ((void)0)
#define EDB_OBS_GAUGE_SUB(instr, d) ((void)0)
#define EDB_OBS_OBSERVE(instr, v) ((void)0)
#define EDB_OBS_SPAN(name) ((void)0)
#define EDB_OBS_TIMED_SPAN(name, hist) ((void)0)

#endif // EDB_OBS_ENABLED

#endif // EDB_OBS_OBS_H
