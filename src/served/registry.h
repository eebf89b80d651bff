/**
 * @file
 * The multi-tenant session registry behind `edb-served`
 * (DESIGN.md §13).
 *
 * The paper's WMS interface — InstallMonitor / RemoveMonitor /
 * MonitorNotification — is a natural *service* boundary: one
 * long-running daemon multiplexes many concurrent debug sessions
 * over shared traces and shared engines. This layer owns that
 * multiplexing, independent of any transport, so in-process tests
 * drive exactly the logic the socket server exposes:
 *
 *  - a Tenant per connected client, holding its installed monitors
 *    (with mgsim-style enable/disable and batched Resume drains —
 *    SNIPPETS.md snippet 3), its open trace handles, its pending-hit
 *    set and its subscriber sink;
 *  - a TraceCache deduplicating mmap'd trace::MappedTrace handles
 *    across tenants by canonical path, refcounted with shared_ptr so
 *    the last goodbye unmaps;
 *  - Quotas enforced at every admission point (tenant count, monitor
 *    count, open traces, pending hits); violations throw
 *    ServedError, which the server answers with a typed ERR reply —
 *    other tenants never notice;
 *  - heavy work (RUN replay, QUERY evaluation) funneled through one
 *    bounded util::ThreadPool so a burst of tenants degrades to
 *    queueing, not thread explosion.
 */

#ifndef EDB_SERVED_REGISTRY_H
#define EDB_SERVED_REGISTRY_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "query/query.h"
#include "served/protocol.h"
#include "session/session.h"
#include "sim/counters.h"
#include "sim/relevance.h"
#include "sim/simulator.h"
#include "trace/trace_io.h"
#include "util/thread_pool.h"
#include "wms/adaptive_wms.h"
#include "wms/software_wms.h"

namespace edb::served {

/** Per-tenant and per-server admission limits. */
struct Quotas
{
    /** Concurrent tenants admitted; HELLO beyond it is rejected. */
    std::size_t maxTenants = 64;
    /** Concurrently installed monitors per tenant. */
    std::size_t maxMonitorsPerTenant = 256;
    /** Bytes one monitor may cover. The software engine keeps
     *  per-page state, so an unbounded range (a client asking for
     *  [0, 2^64)) would wedge a worker; reject it at admission. */
    std::uint64_t maxMonitorBytes = 1ull << 30;
    /** Concurrently open trace handles per tenant. */
    std::size_t maxTracesPerTenant = 8;
    /** Coalesced pending-hit entries a tenant may accumulate between
     *  RESUMEs; beyond it, hits fold into the overflow drop count. */
    std::size_t maxPendingHits = 4096;
    /** Session ids accepted by one RUN. */
    std::size_t maxRunSessions = 4096;
    /** Frame body cap the transport enforces. */
    std::size_t maxFrameBytes = defaultMaxFrameBytes;
};

/**
 * A semantic (non-protocol) failure: quota exceeded, unknown id, bad
 * state. The server maps it to a typed ERR reply; the connection and
 * every other tenant proceed.
 */
class ServedError : public std::runtime_error
{
  public:
    ServedError(ErrCode code, const std::string &what)
        : std::runtime_error(what), code_(code)
    {
    }

    ErrCode code() const { return code_; }

  private:
    ErrCode code_;
};

/** A mapped trace plus its enumerated sessions, shared by tenants. */
struct SharedTrace
{
    explicit SharedTrace(const std::string &p)
        : path(p), mapped(p),
          sessions(session::SessionSet::enumerate(mapped.registry()))
    {
    }

    std::string path;
    trace::MappedTrace mapped;
    session::SessionSet sessions;
};

/**
 * Path-keyed cache of SharedTrace handles. open() returns the live
 * handle when any tenant still holds it (one mmap per file no matter
 * how many tenants study it); the weak entry lets the map drop the
 * mapping once the last holder releases.
 */
class TraceCache
{
  public:
    /** Handle for `path`, shared with every other tenant that has it
     *  open. Throws ServedError(TraceLoadFailed) on a bad file. */
    std::shared_ptr<const SharedTrace> open(const std::string &path);

    /** One cache row for STATS. `refs` counts tenant handles. */
    struct Entry
    {
        std::string path;
        long refs;
        std::uint64_t events;
        /** A validated .edbi sidecar rode along with the mmap — every
         *  tenant sharing the mapping shares the index too. */
        bool indexed;
    };

    /** Live entries (expired rows are pruned as a side effect). */
    std::vector<Entry> stats();

    /** Live (non-expired) entry count. */
    std::size_t size();

  private:
    std::mutex mu_;
    std::map<std::string, std::weak_ptr<const SharedTrace>> map_;
};

/** Which engine family a tenant's live monitors run on. */
enum class Engine : std::uint8_t {
    Software, ///< wms::SoftwareWms — plain MonitorIndex lookups
    Adaptive, ///< wms::AdaptiveWms — CodePatch-initial, migratable
};

/** One coalesced pending hit, drained by RESUME. */
struct PendingHit
{
    std::uint32_t monitorId = 0;
    AddrRange last;          ///< most recent written range
    std::uint64_t count = 0; ///< hits since the previous RESUME
};

/** The batch one RESUME drains (mgsim Resume() semantics). */
struct ResumeBatch
{
    std::vector<PendingHit> hits; ///< monitor-id ascending
    /** Hits dropped because maxPendingHits was reached. */
    std::uint64_t dropped = 0;
};

/** A notification streamed to a subscribed client. */
struct EventOut
{
    std::uint64_t seq = 0; ///< per-tenant, strictly increasing
    std::uint32_t monitorId = 0;
    AddrRange written;
    Addr pc = 0;
};

/** Result of a live-monitor RUN. */
struct LiveRunResult
{
    std::uint64_t writes = 0;        ///< write events replayed
    std::uint64_t hits = 0;          ///< checkWrite() hits
    std::uint64_t notifications = 0; ///< per-monitor attributions
};

/** Result of a session RUN (sim::simulate over a subset). */
struct SessionRunResult
{
    std::uint64_t totalWrites = 0;
    /** counters[i] corresponds to the i-th requested session id and
     *  is bit-identical to the one-shot simulate() oracle's counters
     *  for that session (SessionSet::subset positional contract). */
    std::vector<sim::SessionCounters> counters;
};

/** Info OPEN_TRACE replies with. */
struct OpenResult
{
    std::uint32_t traceId = 0;
    std::uint64_t events = 0;
    std::uint64_t writes = 0;
    std::uint32_t sessionCount = 0;
    std::uint32_t blocks = 0;
    /** The shared mapping carries a validated .edbi sidecar. */
    bool indexed = false;
};

/** Wire form of a QUERY request (a QuerySpec subset). */
struct WireQuery
{
    std::uint32_t traceId = 0;
    std::vector<AddrRange> addrRanges;
    std::vector<std::uint32_t> sessions;
    std::uint32_t kindMask = query::allKindsMask;
    std::uint64_t firstIndex = 0;
    std::uint64_t lastIndex = ~0ull;
    std::uint32_t minSize = 0;
    std::uint32_t maxSize = 0xffffffffu;
    /** 0 = Count, 1 = CountBySession. */
    std::uint8_t agg = 0;
};

/** QUERY reply. */
struct QueryReply
{
    std::uint64_t matches = 0;
    std::vector<std::uint64_t> sessionCounts;
};

class Registry;

/**
 * One connected client's session state. Created by
 * Registry::hello(), destroyed by bye()/disconnect. All public
 * methods are thread-safe (one mutex per tenant); the stats-visible
 * counters are atomics so live STATS never blocks behind a long RUN.
 */
class Tenant
{
  public:
    Tenant(Registry &owner, std::uint64_t id, std::string name,
           Engine engine);

    /** Releases the tenant's gauge contributions and trace refs. */
    ~Tenant();

    std::uint64_t id() const { return id_; }
    const std::string &name() const { return name_; }

    /** Map a trace (through the shared cache) into this tenant. */
    OpenResult openTrace(const std::string &path);

    /** Install a live monitor over [r.begin, r.end). An empty range,
     *  or one whose word-aligned hull would run past the end of the
     *  address space, is ServedError(MalformedPayload). */
    std::uint32_t install(const AddrRange &r);
    void remove(std::uint32_t monitorId);
    /** Disable: keep the registration, stop notifications (mgsim's
     *  enabled flag); enable re-arms. Idempotent. */
    void enable(std::uint32_t monitorId);
    void disable(std::uint32_t monitorId);

    /** Drain and clear the coalesced pending-hit batch. */
    ResumeBatch resume();

    /**
     * Replay every write event of an open trace through the live
     * monitors. Hits accumulate in the pending set (for RESUME) and
     * stream to the subscriber sink when subscribed. Executes on the
     * caller's thread — the server wraps it in a pool task.
     *
     * The walk is a static sim::BlockPlanner plan: blocks whose write
     * summary misses every enabled monitor are skipped undecoded
     * (their writes count as engine misses), the rest decode in
     * column form and screen 64 writes per index probe. The adaptive
     * engine's plan skips nothing and its screen passes every write,
     * since its cost model counts every miss (DESIGN.md §13.3).
     */
    LiveRunResult runLive(std::uint32_t traceId);

    /**
     * sim::simulate the subset of the trace's sessions given by
     * `ids` (indices into the trace's own SessionSet). counters[i]
     * is bit-identical to full simulate()'s counters[ids[i]].
     */
    SessionRunResult runSessions(std::uint32_t traceId,
                                 const std::vector<std::uint32_t> &ids);

    /** Answer a wire query over an open trace via edb::query. */
    QueryReply query(const WireQuery &q);

    /** Toggle streaming; the sink receives EventOut from runLive,
     *  and `flush`, when given, is called at each block boundary of
     *  a live RUN so a buffering sink can push its events out. */
    void subscribe(bool on,
                   std::function<void(const EventOut &)> sink,
                   std::function<void()> flush = {});

    /** The engine's lifetime counters; the member that matches the
     *  tenant's Engine is the meaningful one. */
    struct EngineStats
    {
        wms::SoftwareWmsStats software;
        wms::AdaptiveWmsStats adaptive;
    };
    EngineStats engineStats();

    /** @name Stats-visible counters (atomic; never block) */
    /// @{
    std::size_t monitorCount() const
    {
        return monitors_stat_.load(std::memory_order_relaxed);
    }
    std::size_t traceCount() const
    {
        return traces_stat_.load(std::memory_order_relaxed);
    }
    std::uint64_t pendingCount() const
    {
        return pending_stat_.load(std::memory_order_relaxed);
    }
    std::uint64_t notifications() const
    {
        return notifications_.load(std::memory_order_relaxed);
    }
    std::uint64_t runs() const
    {
        return runs_.load(std::memory_order_relaxed);
    }
    std::uint64_t queries() const
    {
        return queries_.load(std::memory_order_relaxed);
    }
    /// @}

  private:
    struct Monitor
    {
        AddrRange range;
        bool enabled = true;
    };

    /** The engine's notification upcall: attribute the written range
     *  to every enabled monitor it intersects, fold into pending,
     *  forward to the sink. Called with mu_ held (SoftwareWms
     *  delivers synchronously from checkWrite). */
    void onNotification(const wms::Notification &n);

    std::shared_ptr<const SharedTrace>
    traceHandle(std::uint32_t traceId);

    /** Check a decoded block's writes against the engine, in stream
     *  order; returns the hits. */
    std::uint64_t screen(const trace::WriteBatch &batch);

    /** Arm / disarm a monitor range in the engine and in live_pages_. */
    void installEngine(const AddrRange &r);
    void removeEngine(const AddrRange &r);

    Registry &owner_;
    const std::uint64_t id_;
    const std::string name_;

    std::mutex mu_;
    wms::SoftwareWms software_;
    std::unique_ptr<wms::AdaptiveWms> adaptive_; ///< when Engine::Adaptive
    /** Summary pages of the enabled monitors: the static relevance
     *  set of a live RUN's plan. */
    sim::SummaryPageTracker live_pages_;
    std::map<std::uint32_t, Monitor> monitors_;
    std::uint32_t next_monitor_ = 1;
    std::map<std::uint32_t, std::shared_ptr<const SharedTrace>>
        traces_;
    std::uint32_t next_trace_ = 1;
    /** monitor id -> coalesced pending hit (RESUME batch). */
    std::map<std::uint32_t, PendingHit> pending_;
    std::uint64_t pending_dropped_ = 0;
    std::uint64_t next_seq_ = 1;
    bool subscribed_ = false;
    std::function<void(const EventOut &)> sink_;
    std::function<void()> flush_;

    std::atomic<std::size_t> monitors_stat_{0};
    std::atomic<std::size_t> traces_stat_{0};
    std::atomic<std::uint64_t> pending_stat_{0};
    std::atomic<std::uint64_t> notifications_{0};
    std::atomic<std::uint64_t> runs_{0};
    std::atomic<std::uint64_t> queries_{0};

    /** @name Per-tenant obs series
     *  Cached handles of the `{tenant: name}` series, so every
     *  update on the request path stays one relaxed RMW. Each
     *  quantity is counted here only: the process-global
     *  `served.runs` etc. are these series summed over tenants when
     *  the registry is read. Gauge contributions are withdrawn by
     *  the destructor. Under EDB_OBS=OFF these are inline no-ops. */
    /// @{
    obs::Series t_runs_;
    obs::Series t_queries_;
    obs::Series t_installs_;
    obs::Series t_removes_;
    obs::Series t_resumes_;
    obs::Series t_notifications_;
    obs::Series t_run_writes_;
    obs::Series t_monitors_;      ///< gauge
    obs::Series t_pending_hits_;  ///< gauge
    obs::Series t_open_traces_;   ///< gauge
    obs::Series t_trace_bytes_;   ///< gauge
    /** Sum of fileBytes() over this tenant's open handles, so the
     *  destructor can withdraw the trace-byte gauges exactly. */
    std::uint64_t trace_bytes_total_ = 0;
    /// @}
};

/** One tenant row of a stats report. */
struct TenantStats
{
    std::uint64_t id;
    std::string name;
    std::size_t monitors;
    std::size_t traces;
    std::uint64_t pendingHits;
    std::uint64_t notifications;
    std::uint64_t runs;
    std::uint64_t queries;
};

/** The registry-level stats block STATS serves. */
struct RegistryStats
{
    std::size_t tenants = 0;
    std::vector<TenantStats> tenantRows;
    std::vector<TraceCache::Entry> traceRows;
};

/**
 * The daemon's root object: admission control, the tenant table, the
 * shared trace cache and the bounded worker pool.
 */
class Registry
{
  public:
    explicit Registry(const Quotas &quotas = {},
                      Engine engine = Engine::Software,
                      unsigned workers = 2);

    const Quotas &quotas() const { return quotas_; }

    /**
     * Admit a tenant. Throws ServedError(QuotaExceeded) when the
     * tenant table is full — the daemon's admission control.
     */
    std::shared_ptr<Tenant> hello(const std::string &name);

    /** Release a tenant (BYE or disconnect). Idempotent. */
    void bye(const std::shared_ptr<Tenant> &tenant);

    /** Point-in-time registry stats (tenant rows + trace cache). */
    RegistryStats stats();

    TraceCache &traces() { return traces_; }
    ThreadPool &pool() { return pool_; }

    /**
     * Run `fn` on the bounded worker pool and wait for its result —
     * per-request completion, unlike ThreadPool::wait() which is
     * global. Exceptions propagate to the caller.
     */
    template <typename Fn>
    auto
    onPool(Fn &&fn) -> decltype(fn())
    {
        using R = decltype(fn());
        // Worker-side errors cross the pool boundary *by value*
        // (code + message) and are re-created here, rather than
        // rethrown through std::exception_ptr. Rethrowing would
        // share one exception object between the caller's catch
        // block and the worker's task state, coupling the two
        // threads' lifetimes through libstdc++-internal refcounts
        // for no benefit — the wire reply only needs code and text.
        struct Outcome
        {
            std::optional<R> value;
            int err = 0; // 0 ok, 1 ServedError, 2 TraceError, 3 other
            ErrCode code = ErrCode::Internal;
            std::string message;
        };
        auto task = std::make_shared<std::packaged_task<Outcome()>>(
            [fn = std::forward<Fn>(fn)]() mutable {
                Outcome out;
                try {
                    out.value.emplace(fn());
                } catch (const ServedError &e) {
                    out.err = 1;
                    out.code = e.code();
                    out.message = e.what();
                } catch (const trace::TraceError &e) {
                    out.err = 2;
                    out.message = e.what();
                } catch (const std::exception &e) {
                    out.err = 3;
                    out.message = e.what();
                }
                return out;
            });
        std::future<Outcome> fut = task->get_future();
        pool_.submit([task] { (*task)(); });
        Outcome out = fut.get();
        switch (out.err) {
          case 1:
            throw ServedError(out.code, out.message);
          case 2:
            throw trace::TraceError(out.message);
          case 3:
            throw std::runtime_error(out.message);
          default:
            break;
        }
        return std::move(*out.value);
    }

    Engine engine() const { return engine_; }

  private:
    friend class Tenant;

    const Quotas quotas_;
    const Engine engine_;
    ThreadPool pool_;
    TraceCache traces_;

    std::mutex mu_;
    std::map<std::uint64_t, std::shared_ptr<Tenant>> tenants_;
    std::uint64_t next_tenant_ = 1;
};

} // namespace edb::served

#endif // EDB_SERVED_REGISTRY_H
