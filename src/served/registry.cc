/**
 * @file
 * Tenant lifecycle, shared trace cache, quotas, and the replay /
 * query execution paths of the edb-served registry.
 */

#include "served/registry.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "obs/obs.h"
#include "sim/block_planner.h"

namespace edb::served {

namespace {

#if EDB_OBS_ENABLED
obs::Counter obsHellos{"served.hellos"};
obs::Counter obsByes{"served.byes"};
obs::Counter obsAdmissionRejects{"served.admission_rejects"};
obs::Counter obsOpens{"served.trace_opens"};
obs::Counter obsOpenShared{"served.trace_open_shared"};
obs::Counter obsPendingDropped{"served.pending_dropped"};
obs::Gauge obsTenants{"served.tenants"};
obs::Histogram obsRunNs{"served.run_ns"};
obs::Histogram obsQueryNs{"served.query_ns"};
obs::Histogram obsResumeBatch{"served.resume_batch"};
#endif

/** Canonical cache key for a trace path, so two tenants spelling the
 *  same file differently still share one mapping. */
std::string
canonicalPath(const std::string &path)
{
    char *real = ::realpath(path.c_str(), nullptr);
    if (real == nullptr)
        return path; // unreadable: open() will throw with the cause
    std::string s(real);
    std::free(real);
    return s;
}

} // namespace

// ---- TraceCache ----------------------------------------------------

std::shared_ptr<const SharedTrace>
TraceCache::open(const std::string &path)
{
    const std::string key = canonicalPath(path);
    std::lock_guard<std::mutex> lk(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
        if (auto live = it->second.lock()) {
            EDB_OBS_INC(obsOpenShared);
            return live;
        }
    }
    std::shared_ptr<const SharedTrace> fresh;
    try {
        fresh = std::make_shared<const SharedTrace>(key);
    } catch (const trace::TraceError &e) {
        throw ServedError(ErrCode::TraceLoadFailed,
                          std::string("cannot map trace '") + path +
                              "': " + e.what());
    }
    map_[key] = fresh;
    EDB_OBS_INC(obsOpens);
    return fresh;
}

std::vector<TraceCache::Entry>
TraceCache::stats()
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<Entry> rows;
    for (auto it = map_.begin(); it != map_.end();) {
        if (auto live = it->second.lock()) {
            // use_count counts tenant handles plus `live` itself.
            rows.push_back({it->first, (long)live.use_count() - 1,
                            live->mapped.eventCount(),
                            live->mapped.index() != nullptr});
            ++it;
        } else {
            it = map_.erase(it);
        }
    }
    return rows;
}

std::size_t
TraceCache::size()
{
    return stats().size();
}

// ---- Tenant --------------------------------------------------------

Tenant::Tenant(Registry &owner, std::uint64_t id, std::string name,
               Engine engine)
    : owner_(owner), id_(id), name_(std::move(name))
{
    const wms::NotificationHandler handler =
        [this](const wms::Notification &n) { onNotification(n); };
    if (engine == Engine::Adaptive) {
        // CodePatch-initial with no live mechanisms attached: every
        // checkWrite performs the software lookup, and AdaptiveWms's
        // exactly-once contract holds across any later migration.
        wms::AdaptiveOptions opts;
        opts.initial = wms::AdaptiveBackend::CodePatch;
        adaptive_ = std::make_unique<wms::AdaptiveWms>(opts);
        adaptive_->setNotificationHandler(handler);
    } else {
        software_.setNotificationHandler(handler);
    }

    // Per-tenant series, handles cached so the request path pays one
    // relaxed RMW per update. The tenant *name* is the label (not the
    // id): reconnecting under the same name resumes the same series,
    // which is what a dashboard wants.
    const obs::Domain d{{"tenant", name_}};
    t_runs_ = d.counter("served.runs");
    t_queries_ = d.counter("served.queries");
    t_installs_ = d.counter("served.installs");
    t_removes_ = d.counter("served.removes");
    t_resumes_ = d.counter("served.resumes");
    t_notifications_ = d.counter("served.notifications");
    t_run_writes_ = d.counter("served.run_writes");
    t_monitors_ = d.gauge("served.monitors");
    t_pending_hits_ = d.gauge("served.pending_hits");
    t_open_traces_ = d.gauge("served.open_traces");
    t_trace_bytes_ = d.gauge("served.trace_bytes");
}

Tenant::~Tenant()
{
    t_monitors_.sub((std::int64_t)monitors_.size());
    t_open_traces_.sub((std::int64_t)traces_.size());
    t_pending_hits_.sub((std::int64_t)pending_.size());
    t_trace_bytes_.sub((std::int64_t)trace_bytes_total_);
}

void
Tenant::installEngine(const AddrRange &r)
{
    // Pages first: should either step throw, the tracker is left
    // over-counting, which only makes a plan skip less.
    live_pages_.add(r);
    if (adaptive_)
        adaptive_->installMonitor(r);
    else
        software_.installMonitor(r);
}

void
Tenant::removeEngine(const AddrRange &r)
{
    if (adaptive_)
        adaptive_->removeMonitor(r);
    else
        software_.removeMonitor(r);
    live_pages_.remove(r);
}

OpenResult
Tenant::openTrace(const std::string &path)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (traces_.size() >= owner_.quotas().maxTracesPerTenant) {
        throw ServedError(
            ErrCode::QuotaExceeded,
            "tenant '" + name_ + "' already holds " +
                std::to_string(traces_.size()) +
                " open trace(s); the quota is " +
                std::to_string(owner_.quotas().maxTracesPerTenant));
    }
    std::shared_ptr<const SharedTrace> handle =
        owner_.traces().open(path);
    const std::uint32_t tid = next_trace_++;
    traces_.emplace(tid, handle);
    traces_stat_.store(traces_.size(), std::memory_order_relaxed);
    // Attribute the mapping's bytes to every tenant holding it: the
    // gauge answers "how much trace data does this tenant pin", and
    // a shared mapping is pinned by each of its holders.
    const std::uint64_t bytes = handle->mapped.fileBytes();
    trace_bytes_total_ += bytes;
    t_open_traces_.add(1);
    t_trace_bytes_.add((std::int64_t)bytes);

    OpenResult res;
    res.traceId = tid;
    res.events = handle->mapped.eventCount();
    res.writes = handle->mapped.totalWrites();
    res.sessionCount = (std::uint32_t)handle->sessions.size();
    res.blocks = (std::uint32_t)handle->mapped.blockCount();
    res.indexed = handle->mapped.index() != nullptr;
    return res;
}

std::uint32_t
Tenant::install(const AddrRange &r)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (monitors_.size() >= owner_.quotas().maxMonitorsPerTenant) {
        throw ServedError(
            ErrCode::QuotaExceeded,
            "tenant '" + name_ + "' already holds " +
                std::to_string(monitors_.size()) +
                " monitor(s); the quota is " +
                std::to_string(owner_.quotas().maxMonitorsPerTenant));
    }
    if (r.size() > owner_.quotas().maxMonitorBytes) {
        throw ServedError(
            ErrCode::QuotaExceeded,
            "monitor " + r.str() + " covers " +
                std::to_string(r.size()) +
                " bytes; the per-monitor quota is " +
                std::to_string(owner_.quotas().maxMonitorBytes));
    }
    // The engine's index works on the word-aligned hull: an empty
    // range has none, and a range ending in the last word's padding
    // would wrap it to address 0.
    if (r.empty() || wordAlignUp(r.end) < r.end) {
        throw ServedError(ErrCode::MalformedPayload,
                          "monitor " + r.str() +
                              (r.empty() ? " is empty"
                                         : " ends past the last whole "
                                           "word of the address space"));
    }
    // Register only once the engine has accepted the range, so a
    // throwing install leaves no monitor the engine does not hold.
    installEngine(r);
    const std::uint32_t id = next_monitor_++;
    monitors_.emplace(id, Monitor{r, true});
    monitors_stat_.store(monitors_.size(), std::memory_order_relaxed);
    t_installs_.inc();
    t_monitors_.add(1);
    return id;
}

void
Tenant::remove(std::uint32_t monitorId)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = monitors_.find(monitorId);
    if (it == monitors_.end()) {
        throw ServedError(ErrCode::UnknownMonitor,
                          "monitor " + std::to_string(monitorId) +
                              " is not installed");
    }
    if (it->second.enabled)
        removeEngine(it->second.range);
    monitors_.erase(it);
    if (pending_.erase(monitorId) > 0)
        t_pending_hits_.sub(1);
    pending_stat_.store(pending_.size(), std::memory_order_relaxed);
    monitors_stat_.store(monitors_.size(), std::memory_order_relaxed);
    t_removes_.inc();
    t_monitors_.sub(1);
}

void
Tenant::enable(std::uint32_t monitorId)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = monitors_.find(monitorId);
    if (it == monitors_.end()) {
        throw ServedError(ErrCode::UnknownMonitor,
                          "monitor " + std::to_string(monitorId) +
                              " is not installed");
    }
    if (!it->second.enabled) {
        it->second.enabled = true;
        installEngine(it->second.range);
    }
}

void
Tenant::disable(std::uint32_t monitorId)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = monitors_.find(monitorId);
    if (it == monitors_.end()) {
        throw ServedError(ErrCode::UnknownMonitor,
                          "monitor " + std::to_string(monitorId) +
                              " is not installed");
    }
    if (it->second.enabled) {
        it->second.enabled = false;
        removeEngine(it->second.range);
    }
}

ResumeBatch
Tenant::resume()
{
    std::lock_guard<std::mutex> lk(mu_);
    ResumeBatch batch;
    batch.hits.reserve(pending_.size());
    for (const auto &[id, hit] : pending_)
        batch.hits.push_back(hit);
    batch.dropped = pending_dropped_;
    pending_.clear();
    pending_dropped_ = 0;
    pending_stat_.store(0, std::memory_order_relaxed);
    EDB_OBS_OBSERVE(obsResumeBatch, batch.hits.size());
    t_resumes_.inc();
    t_pending_hits_.sub((std::int64_t)batch.hits.size());
    return batch;
}

void
Tenant::onNotification(const wms::Notification &n)
{
    // Attribute the written range to every enabled monitor it
    // intersects (mgsim's per-breakpoint active set): the engine
    // delivers one notification per hit write, this fan-out recovers
    // which registrations fired.
    for (const auto &[id, mon] : monitors_) {
        if (!mon.enabled || !mon.range.intersects(n.written))
            continue;
        notifications_.fetch_add(1, std::memory_order_relaxed);
        t_notifications_.inc();
        auto it = pending_.find(id);
        if (it != pending_.end()) {
            it->second.count++;
            it->second.last = n.written.intersection(mon.range);
        } else if (pending_.size() <
                   owner_.quotas().maxPendingHits) {
            pending_.emplace(
                id, PendingHit{id, n.written.intersection(mon.range),
                               1});
            pending_stat_.store(pending_.size(),
                                std::memory_order_relaxed);
            t_pending_hits_.add(1);
        } else {
            ++pending_dropped_;
            EDB_OBS_INC(obsPendingDropped);
        }
        if (subscribed_ && sink_) {
            sink_(EventOut{next_seq_++, id,
                           n.written.intersection(mon.range), n.pc});
        }
    }
}

std::shared_ptr<const SharedTrace>
Tenant::traceHandle(std::uint32_t traceId)
{
    auto it = traces_.find(traceId);
    if (it == traces_.end()) {
        throw ServedError(ErrCode::UnknownTrace,
                          "trace " + std::to_string(traceId) +
                              " is not open in this tenant");
    }
    return it->second;
}

std::uint64_t
Tenant::screen(const trace::WriteBatch &batch)
{
    if (!adaptive_) {
        return software_.checkWrites(batch.wrBegin.data(),
                                     batch.wrSize.data(),
                                     batch.wrAux.data(), batch.writes);
    }
    // Every lane passes: the adaptive cost model counts each miss.
    std::uint64_t hits = 0;
    for (std::size_t k = 0; k < batch.writes; ++k) {
        const Addr b = batch.wrBegin[k];
        hits += adaptive_->checkWrite(AddrRange(b, b + batch.wrSize[k]),
                                      batch.wrAux[k]);
    }
    return hits;
}

LiveRunResult
Tenant::runLive(std::uint32_t traceId)
{
    std::lock_guard<std::mutex> lk(mu_);
    EDB_OBS_ONLY(obs::ScopeTimer span("served.run", &obsRunNs);)
    std::shared_ptr<const SharedTrace> t = traceHandle(traceId);
    const std::uint64_t before =
        notifications_.load(std::memory_order_relaxed);

    // Live mode ignores session installs and removes, so the monitored
    // set is fixed for the whole walk: a static plan over it skips
    // every block whose writes cannot reach an enabled monitor.
    sim::BlockPlanner planner(t->mapped,
                              adaptive_ ? nullptr : &live_pages_);
    sim::BlockPlanner::Step step;
    trace::WriteBatch batch;
    LiveRunResult res;
    while (planner.next(step)) {
        t->mapped.decodeBlockBatch(step.block, batch);
        res.writes += batch.writes;
        res.hits += screen(batch);
        if (subscribed_ && flush_)
            flush_();
    }
    planner.publish();
    const std::uint64_t skipped = planner.stats().writesSkipped;
    res.writes += skipped;
    if (!adaptive_)
        software_.countMisses(skipped);

    res.notifications =
        notifications_.load(std::memory_order_relaxed) - before;
    runs_.fetch_add(1, std::memory_order_relaxed);
    t_runs_.inc();
    t_run_writes_.add((std::int64_t)res.writes);
    return res;
}

SessionRunResult
Tenant::runSessions(std::uint32_t traceId,
                    const std::vector<std::uint32_t> &ids)
{
    std::shared_ptr<const SharedTrace> t;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (ids.size() > owner_.quotas().maxRunSessions) {
            throw ServedError(
                ErrCode::QuotaExceeded,
                "RUN names " + std::to_string(ids.size()) +
                    " sessions; the quota is " +
                    std::to_string(owner_.quotas().maxRunSessions));
        }
        t = traceHandle(traceId);
    }
    for (std::uint32_t id : ids) {
        if (id >= t->sessions.size()) {
            throw ServedError(ErrCode::BadSession,
                              "session id " + std::to_string(id) +
                                  " out of range (trace has " +
                                  std::to_string(t->sessions.size()) +
                                  ")");
        }
    }
    EDB_OBS_ONLY(obs::ScopeTimer span("served.run", &obsRunNs);)
    // Replay outside the tenant lock: the handle is pinned by the
    // shared_ptr and simulate() only reads the shared mapping.
    const session::SessionSet sub = t->sessions.subset(
        std::vector<session::SessionId>(ids.begin(), ids.end()));
    const sim::SimResult sim = sim::simulate(t->mapped, sub);

    SessionRunResult res;
    res.totalWrites = sim.totalWrites;
    res.counters = sim.counters;
    runs_.fetch_add(1, std::memory_order_relaxed);
    t_runs_.inc();
    t_run_writes_.add((std::int64_t)res.totalWrites);
    return res;
}

QueryReply
Tenant::query(const WireQuery &q)
{
    std::shared_ptr<const SharedTrace> t;
    {
        std::lock_guard<std::mutex> lk(mu_);
        t = traceHandle(q.traceId);
    }
    EDB_OBS_ONLY(obs::ScopeTimer span("served.query", &obsQueryNs);)
    query::QuerySpec spec;
    spec.addrRanges = q.addrRanges;
    spec.sessions.assign(q.sessions.begin(), q.sessions.end());
    spec.kindMask = q.kindMask;
    spec.firstIndex = q.firstIndex;
    spec.lastIndex = q.lastIndex;
    spec.minSize = q.minSize;
    spec.maxSize = q.maxSize;
    spec.agg = q.agg == 1 ? query::Agg::CountBySession
                          : query::Agg::Count;
    const std::string problem =
        query::validateSpec(spec, t->sessions.size());
    if (!problem.empty())
        throw ServedError(ErrCode::BadQuery, problem);

    const query::QueryResult r =
        query::runQuery(t->mapped, t->sessions, spec);
    queries_.fetch_add(1, std::memory_order_relaxed);
    t_queries_.inc();
    return QueryReply{r.matches, r.sessionCounts};
}

void
Tenant::subscribe(bool on,
                  std::function<void(const EventOut &)> sink,
                  std::function<void()> flush)
{
    std::lock_guard<std::mutex> lk(mu_);
    subscribed_ = on;
    sink_ = on ? std::move(sink) : nullptr;
    flush_ = on ? std::move(flush) : nullptr;
}

Tenant::EngineStats
Tenant::engineStats()
{
    std::lock_guard<std::mutex> lk(mu_);
    EngineStats s;
    s.software = software_.stats();
    if (adaptive_)
        s.adaptive = adaptive_->stats();
    return s;
}

// ---- Registry ------------------------------------------------------

Registry::Registry(const Quotas &quotas, Engine engine,
                   unsigned workers)
    : quotas_(quotas), engine_(engine),
      pool_(workers, /*max_queued=*/2 * (std::size_t)workers)
{
}

std::shared_ptr<Tenant>
Registry::hello(const std::string &name)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (tenants_.size() >= quotas_.maxTenants) {
        EDB_OBS_INC(obsAdmissionRejects);
        throw ServedError(
            ErrCode::QuotaExceeded,
            "server already holds " +
                std::to_string(tenants_.size()) +
                " tenant(s); the admission quota is " +
                std::to_string(quotas_.maxTenants));
    }
    const std::uint64_t id = next_tenant_++;
    auto tenant = std::make_shared<Tenant>(*this, id, name, engine_);
    tenants_.emplace(id, tenant);
    EDB_OBS_INC(obsHellos);
    EDB_OBS_GAUGE_ADD(obsTenants, 1);
    return tenant;
}

void
Registry::bye(const std::shared_ptr<Tenant> &tenant)
{
    if (!tenant)
        return;
    std::lock_guard<std::mutex> lk(mu_);
    if (tenants_.erase(tenant->id()) > 0) {
        EDB_OBS_INC(obsByes);
        EDB_OBS_GAUGE_SUB(obsTenants, 1);
    }
}

RegistryStats
Registry::stats()
{
    RegistryStats out;
    {
        std::lock_guard<std::mutex> lk(mu_);
        out.tenants = tenants_.size();
        out.tenantRows.reserve(tenants_.size());
        for (const auto &[id, t] : tenants_) {
            out.tenantRows.push_back(
                {id, t->name(), t->monitorCount(), t->traceCount(),
                 t->pendingCount(), t->notifications(), t->runs(),
                 t->queries()});
        }
    }
    out.traceRows = traces_.stats();
    return out;
}

} // namespace edb::served
