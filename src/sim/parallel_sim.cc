/**
 * @file
 * Implementation of the sharded parallel simulator: boundary snapshot
 * maintenance, the per-shard replayer, and the two dispatch front ends
 * (a materialized Trace and a mapped v2 trace).
 *
 * Shard replay runs on the shared ReplayEngine (replay_core.h) — the
 * same code path the sequential simulate() uses — seeded from the
 * boundary snapshot. Workers draw engines from a fixed pool of `jobs`
 * pre-sized instances, so steady-state replay allocates nothing and
 * never rehashes a page table mid-shard.
 */

#include "sim/parallel_sim.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "sim/relevance.h"
#include "sim/replay_core.h"
#include "trace/index_format.h"
#include "trace/trace_format.h"
#include "util/thread_pool.h"

namespace edb::sim {

#if EDB_OBS_ENABLED
namespace {
obs::Counter obsDispatchRuns{"sim.parallel.runs"};
obs::Counter obsShards{"sim.parallel.shards"};
/** Events in dispatched shards not yet replayed. */
obs::Gauge obsBufferedEvents{"sim.parallel.buffered_events"};
/** Wall time one worker spends replaying one shard. */
obs::Histogram obsShardWallNs{"sim.parallel.shard_wall_ns"};
} // namespace
#endif

using session::SessionMaskTable;
using session::SessionSet;
using trace::Event;
using trace::EventKind;
using trace::MappedTrace;
using trace::ObjectId;
using trace::Trace;

namespace {

using detail::LiveMonitor;
using detail::ReplayEngine;

/** The installed-monitor state at a shard boundary, sorted by begin. */
using Snapshot = std::vector<LiveMonitor>;

/**
 * The running install/remove state the sequential scanner maintains
 * between shard dispatches: begin -> (end, object).
 */
using LiveMap = std::map<Addr, std::pair<Addr, ObjectId>>;

Snapshot
snapshotOf(const LiveMap &live)
{
    Snapshot snap;
    snap.reserve(live.size());
    for (const auto &[begin, rest] : live)
        snap.push_back(LiveMonitor{begin, rest.first, rest.second});
    return snap;
}

/**
 * Advance the running state over one shard's install/remove events.
 * Writes are ignored here — the scanner only tracks what the *next*
 * shard's boundary snapshot needs.
 */
void
advanceLiveState(LiveMap &live, const Event *events, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const Event &e = events[i];
        if (e.kind == EventKind::InstallMonitor) {
            const AddrRange r = e.range();
            auto [it, inserted] =
                live.emplace(r.begin, std::make_pair(r.end, e.aux));
            EDB_ASSERT(inserted, "overlapping install at %s",
                       r.str().c_str());
            (void)it;
        } else if (e.kind == EventKind::RemoveMonitor) {
            const AddrRange r = e.range();
            auto it = live.find(r.begin);
            EDB_ASSERT(it != live.end() && it->second.first == r.end &&
                           it->second.second == e.aux,
                       "remove %s does not match a live install",
                       r.str().c_str());
            live.erase(it);
        }
    }
}

/**
 * The dispatcher-side twin of ReplayEngine's summary-page refcounts
 * (the shared sim::SummaryPageTracker of relevance.h): summary page ->
 * number of *session-relevant* monitored objects touching it,
 * maintained in stream order as blocks are dispatched. The parallel front end skips
 * a pure-write block exactly when the sequential engine would — the
 * live set at a block's position is a pure function of the preceding
 * install/remove events, which the dispatcher consumes in order.
 */
class SkipPageMap
{
  public:
    explicit SkipPageMap(const SessionSet &sessions)
        : sessions_(sessions)
    {
    }

    /** Fold one decoded block's install/removes into the map. */
    void
    advance(const Event *events, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i) {
            const Event &e = events[i];
            if (e.kind == EventKind::Write)
                continue;
            if (sessions_.sessionsOf(e.aux).empty())
                continue;
            if (e.kind == EventKind::InstallMonitor)
                pages_.add(e.range());
            else
                pages_.remove(e.range());
        }
    }

    /** Dispatcher twin of ReplayEngine::anyInstallTouchesSummary():
     *  true when a session-relevant install among `ctl` lands on a
     *  summary page of `runs`. */
    bool
    anyInstallTouches(const Event *ctl, std::size_t n,
                      const trace::PageRun *runs,
                      std::size_t nruns) const
    {
        return anyInstallTouchesRuns(
            ctl, n, runs, nruns, [this](ObjectId obj) {
                return !sessions_.sessionsOf(obj).empty();
            });
    }

    /** True when any summary page in `runs` is currently monitored. */
    bool
    anyMonitored(const trace::PageRun *runs, std::size_t n) const
    {
        return pages_.anyMonitored(runs, n);
    }

  private:
    const SessionSet &sessions_;
    SummaryPageTracker pages_;
};

/**
 * A fixed set of pre-sized ReplayEngines, one per worker thread.
 * Counter arrays, scratch masks and page-table capacity are all
 * allocated once here — before the first shard is dispatched — so
 * replay itself performs no rehashing.
 */
class EnginePool
{
  public:
    EnginePool(const SessionSet &sessions,
               const SessionMaskTable &masks, unsigned count,
               std::size_t page_hint)
    {
        engines_.reserve(count);
        free_.reserve(count);
        for (unsigned i = 0; i < count; ++i) {
            engines_.push_back(std::make_unique<ReplayEngine>(
                sessions, masks, page_hint));
            free_.push_back(engines_.back().get());
        }
    }

    ReplayEngine *
    acquire()
    {
        std::lock_guard<std::mutex> lock(mu_);
        // The pool holds one engine per pool thread, and each worker
        // releases before finishing, so a free engine always exists.
        EDB_ASSERT(!free_.empty(), "engine pool exhausted");
        ReplayEngine *e = free_.back();
        free_.pop_back();
        return e;
    }

    void
    release(ReplayEngine *e)
    {
        std::lock_guard<std::mutex> lock(mu_);
        free_.push_back(e);
    }

  private:
    std::mutex mu_;
    std::vector<std::unique_ptr<ReplayEngine>> engines_;
    std::vector<ReplayEngine *> free_;
};

/**
 * Events in dispatched shards that no worker has finished replaying,
 * and the high-water mark of that count (ParallelStats).
 */
class InFlight
{
  public:
    void
    add(std::size_t n)
    {
        const std::size_t now =
            events_.fetch_add(n, std::memory_order_relaxed) + n;
        std::size_t seen = peak_.load(std::memory_order_relaxed);
        while (now > seen &&
               !peak_.compare_exchange_weak(seen, now,
                                            std::memory_order_relaxed)) {
        }
        EDB_OBS_GAUGE_ADD(obsBufferedEvents, (std::int64_t)n);
    }

    void
    sub(std::size_t n)
    {
        events_.fetch_sub(n, std::memory_order_relaxed);
        EDB_OBS_GAUGE_SUB(obsBufferedEvents, (std::int64_t)n);
    }

    std::size_t peak() const
    {
        return peak_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::size_t> events_{0};
    std::atomic<std::size_t> peak_{0};
};

unsigned
jobsFor(const ParallelOptions &opts)
{
    return std::min(opts.jobs ? opts.jobs : ThreadPool::defaultJobs(),
                    ThreadPool::maxJobs);
}

} // namespace

SimResult
parallelSimulate(const Trace &trace, const SessionSet &sessions,
                 const ParallelOptions &opts, ParallelStats *stats)
{
    EDB_OBS_INC(obsDispatchRuns);
    EDB_OBS_SPAN("sim.parallel.dispatch");
    const unsigned jobs = jobsFor(opts);
    const std::size_t shard_events =
        std::max<std::size_t>(opts.shardEvents, 1);

    SimResult merged;
    merged.counters.resize(sessions.size());

    ParallelStats local_stats;
    local_stats.jobs = jobs;

    // Shared per-run read-only state plus the worker engines, all
    // built before the pool starts. The page-capacity hint comes from
    // the trace header's object registry (via the session set): live
    // objects bound monitored pages.
    const SessionMaskTable masks(sessions);
    EnginePool engines(sessions, masks, jobs, sessions.objectCount());

    // Declared before the pool so workers never outlive them.
    std::deque<SimResult> parts;
    InFlight in_flight;
    LiveMap running;
    {
        // Queue bound = jobs: the scanner runs at most jobs shards
        // ahead of the workers.
        ThreadPool pool(jobs, jobs);

        const std::size_t total = trace.events.size();
        for (std::size_t at = 0; at < total; at += shard_events) {
            // Workers read their shard straight out of the trace; the
            // scanner consumes its install/removes now.
            const Event *events = trace.events.data() + at;
            const std::size_t n = std::min(shard_events, total - at);
            Snapshot snap = snapshotOf(running);
            advanceLiveState(running, events, n);
            in_flight.add(n);

            parts.emplace_back();
            SimResult *out = &parts.back();
            ++local_stats.shards;
            EDB_OBS_INC(obsShards);

            // The live/page state is *seeded* from the snapshot
            // without counting: the install events that created it
            // were counted by the shards that contain them.
            pool.submit([events, n, snap = std::move(snap), out,
                         &engines, &in_flight] {
                EDB_OBS_TIMED_SPAN("sim.parallel.shard",
                                   obsShardWallNs);
                ReplayEngine *engine = engines.acquire();
                engine->reset();
                engine->seed(snap.data(), snap.size());
                engine->replay(events, n);
                *out = engine->result();
                engines.release(engine);
                in_flight.sub(n);
            });
        }
        pool.wait();
    }

    for (const SimResult &part : parts)
        merged.merge(part);

    local_stats.peakBufferedEvents = in_flight.peak();
    if (stats)
        *stats = local_stats;
    EDB_ASSERT(merged.totalWrites == trace.totalWrites,
               "trace totalWrites header (%llu) disagrees with events "
               "(%llu)",
               (unsigned long long)trace.totalWrites,
               (unsigned long long)merged.totalWrites);
    return merged;
}

SimResult
parallelSimulate(const MappedTrace &trace, const SessionSet &sessions,
                 const ParallelOptions &opts, ParallelStats *stats)
{
    EDB_OBS_INC(obsDispatchRuns);
    EDB_OBS_SPAN("sim.parallel.dispatch");
    const unsigned jobs = jobsFor(opts);
    const std::size_t shard_events =
        std::max<std::size_t>(opts.shardEvents, 1);

    SimResult merged;
    merged.counters.resize(sessions.size());

    ParallelStats local_stats;
    local_stats.jobs = jobs;

    const SessionMaskTable masks(sessions);
    EnginePool engines(sessions, masks, jobs, sessions.objectCount());

    // Dispatcher-owned stream-order state: the boundary live map for
    // snapshots, the monitored-summary-page refcounts for the skip
    // decision, and a decode scratch for the control groups — the
    // dispatcher decodes only those (writes never change live state).
    std::deque<SimResult> parts;
    InFlight in_flight;
    LiveMap running;
    SkipPageMap skip(sessions);
    std::vector<Event> scratch(trace.largestBlockEvents());
    const trace::TraceIndex *idx = trace.index();
    std::uint64_t idx_elided = 0;
    // Writes of fully-skipped blocks never reach a worker, so they
    // fold into the merged result below; control-only skipped writes
    // are folded by the worker (ReplayEngine::skipWrites) instead.
    std::uint64_t fold_writes = 0;
    /** One worker work item: a block, decoded fully or control-only. */
    struct ShardBlock
    {
        std::size_t id;
        bool ctlOnly;
    };
    {
        ThreadPool pool(jobs, jobs);

        std::size_t b = 0;
        while (b < trace.blockCount()) {
            // Gather one shard: consecutive non-skipped blocks up to
            // the event budget. Blocks are atomic — a shard boundary
            // never splits one.
            auto blocks = std::make_shared<std::vector<ShardBlock>>();
            std::size_t shard_size = 0;
            Snapshot snap = snapshotOf(running);
            while (b < trace.blockCount() &&
                   shard_size < shard_events) {
                // Tree descent (same proof as the sequential path,
                // DESIGN.md §16): a pure-write superblock whose
                // merged runs miss every monitored page retires all
                // its member blocks in one probe — none would have
                // been decoded or dispatched, and the live state
                // cannot change across a node with no controls.
                if (idx != nullptr &&
                    (b & (trace::traceIndexSuperSpan - 1)) == 0) {
                    const trace::IndexNode &super = idx->superOf(b);
                    if (sim::indexNodeSkippable(super, skip)) {
                        local_stats.skippedBlocks += super.blocks;
                        local_stats.skippedWrites += super.writes;
                        fold_writes += super.writes;
                        idx_elided += super.blocks;
                        b += super.blocks;
                        continue;
                    }
                }
                const MappedTrace::Block &blk = trace.block(b);
                const std::size_t ctl = (std::size_t)blk.controls();
                // Judge the write summary against the monitored set
                // *before* this block's own installs advance it.
                bool write_skip =
                    blk.writes > 0 &&
                    !skip.anyMonitored(blk.runs.begin(),
                                       blk.runs.size());
                if (write_skip && blk.pureWrites()) {
                    // Never decoded or dispatched: its writes hit
                    // nothing, and pure writes cannot perturb the
                    // live state.
                    ++local_stats.skippedBlocks;
                    local_stats.skippedWrites += blk.writes;
                    fold_writes += blk.writes;
                    ++b;
                    continue;
                }
                if (ctl > 0) {
                    trace.decodeBlockControl(b, scratch.data());
                    if (write_skip &&
                        skip.anyInstallTouches(scratch.data(), ctl,
                                               blk.runs.begin(),
                                               blk.runs.size())) {
                        write_skip = false;
                    }
                }
                if (write_skip) {
                    blocks->push_back(ShardBlock{b, true});
                    shard_size += ctl;
                    ++local_stats.controlOnlyBlocks;
                    local_stats.skippedWrites += blk.writes;
                } else {
                    blocks->push_back(ShardBlock{b, false});
                    shard_size += (std::size_t)blk.events;
                }
                if (ctl > 0) {
                    advanceLiveState(running, scratch.data(), ctl);
                    skip.advance(scratch.data(), ctl);
                }
                ++b;
            }
            if (blocks->empty())
                continue; // the tail of the trace was all skipped
            in_flight.add(shard_size);

            parts.emplace_back();
            SimResult *out = &parts.back();
            ++local_stats.shards;
            EDB_OBS_INC(obsShards);

            // Workers decode their own blocks straight from the
            // mapping (decodeBlock is const and thread-safe), so the
            // only data crossing the dispatch boundary is the block
            // list and the snapshot.
            pool.submit([blocks, snap = std::move(snap), shard_size,
                         out, &engines, &trace, &in_flight] {
                EDB_OBS_TIMED_SPAN("sim.parallel.shard",
                                   obsShardWallNs);
                ReplayEngine *engine = engines.acquire();
                engine->reset();
                engine->seed(snap.data(), snap.size());
                std::vector<Event> buf(trace.largestBlockEvents());
                trace::WriteBatch batch;
                for (const ShardBlock &sb : *blocks) {
                    const MappedTrace::Block &blk =
                        trace.block(sb.id);
                    if (sb.ctlOnly) {
                        trace.decodeBlockControl(sb.id, buf.data());
                        engine->replay(buf.data(),
                                       (std::size_t)blk.controls());
                        engine->skipWrites(blk.writes);
                    } else {
                        trace.decodeBlockBatch(sb.id, batch);
                        engine->replayBlock(batch);
                    }
                }
                *out = engine->result();
                engines.release(engine);
                in_flight.sub(shard_size);
            });
        }
        pool.wait();
    }

    for (const SimResult &part : parts)
        merged.merge(part);
    merged.totalWrites += fold_writes;
    trace::obsNoteSkippedBlocks(local_stats.skippedBlocks +
                                    local_stats.controlOnlyBlocks,
                                local_stats.skippedWrites);
    if (idx != nullptr) {
        trace::obsNoteIndexPlan(trace.blockCount() - idx_elided,
                                idx_elided);
    }

    local_stats.peakBufferedEvents = in_flight.peak();
    if (stats)
        *stats = local_stats;

    EDB_ASSERT(merged.totalWrites == trace.totalWrites(),
               "replayed + skipped write count (%llu) disagrees with "
               "the trace trailer (%llu)",
               (unsigned long long)merged.totalWrites,
               (unsigned long long)trace.totalWrites());
    return merged;
}

} // namespace edb::sim
