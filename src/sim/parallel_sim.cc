/**
 * @file
 * Implementation of the sharded parallel simulator: boundary snapshot
 * maintenance, the per-shard replayer, and the two dispatch front ends
 * (a materialized Trace and a mapped v2 trace).
 *
 * Shard replay runs on the shared ReplayEngine (replay_core.h) — the
 * same code path the sequential simulate() uses — seeded from the
 * boundary snapshot. Workers draw engines, each with its own block
 * decode scratch, from a fixed pool of `jobs` pre-sized instances, so
 * steady-state replay allocates nothing and never rehashes a page
 * table mid-shard. The mapped front end takes every block decision
 * from the BlockPlanner (block_planner.h) that simulate() runs too.
 */

#include "sim/parallel_sim.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "sim/block_planner.h"
#include "sim/replay_core.h"
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

/** One pooled worker: an engine plus the decode scratch of its
 *  mapped blocks, reused across every shard it replays. */
struct Worker
{
    Worker(const SessionSet &sessions, const SessionMaskTable &masks)
        : engine(sessions, masks)
    {
    }

    ReplayEngine engine;
    trace::WriteBatch batch;
};

/**
 * A fixed set of pre-sized workers, one per worker thread. Counter
 * arrays, scratch masks and page-table capacity are all allocated
 * once here — before the first shard is dispatched — so replay
 * itself performs no rehashing, and a worker's decode batch grows to
 * the largest block it has decoded, then stays.
 */
class EnginePool
{
  public:
    EnginePool(const SessionSet &sessions,
               const SessionMaskTable &masks, unsigned count)
    {
        workers_.reserve(count);
        free_.reserve(count);
        for (unsigned i = 0; i < count; ++i) {
            workers_.push_back(
                std::make_unique<Worker>(sessions, masks));
            free_.push_back(workers_.back().get());
        }
    }

    Worker *
    acquire()
    {
        std::lock_guard<std::mutex> lock(mu_);
        // The pool holds one worker per pool thread, and each task
        // releases before finishing, so a free worker always exists.
        EDB_ASSERT(!free_.empty(), "engine pool exhausted");
        Worker *w = free_.back();
        free_.pop_back();
        return w;
    }

    void
    release(Worker *w)
    {
        std::lock_guard<std::mutex> lock(mu_);
        free_.push_back(w);
    }

  private:
    std::mutex mu_;
    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<Worker *> free_;
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

/**
 * The dispatch loop both front ends share. The scanner snapshots the
 * boundary live state, then `gather(running, budget, shard)` fills
 * the next shard, advances `running` over its install/removes and
 * returns its event count; an empty shard ends the stream. Each
 * shard is replayed by `replay(worker, shard)` on a pooled engine
 * *seeded* from the snapshot without counting: the install events
 * that created that state were counted by the shards that hold them.
 */
template <typename Shard, typename Gather, typename Replay>
SimResult
dispatchShards(const SessionSet &sessions, const ParallelOptions &opts,
               ParallelStats &stats, Gather &&gather, Replay &&replay)
{
    EDB_OBS_INC(obsDispatchRuns);
    EDB_OBS_SPAN("sim.parallel.dispatch");
    stats.jobs = std::min(opts.jobs ? opts.jobs
                                    : ThreadPool::defaultJobs(),
                          ThreadPool::maxJobs);
    const std::size_t budget = std::max<std::size_t>(opts.shardEvents, 1);

    // Shared per-run read-only state plus the workers, all built
    // before the pool starts.
    const SessionMaskTable masks(sessions);
    EnginePool engines(sessions, masks, stats.jobs);

    // Declared before the pool so workers never outlive them.
    std::deque<SimResult> parts;
    InFlight in_flight;
    LiveMap running;
    {
        // Queue bound = jobs: the scanner runs at most jobs shards
        // ahead of the workers.
        ThreadPool pool(stats.jobs, stats.jobs);
        for (;;) {
            Snapshot snap = snapshotOf(running);
            Shard shard;
            const std::size_t n = gather(running, budget, shard);
            if (shard.empty())
                break;
            in_flight.add(n);
            parts.emplace_back();
            SimResult *out = &parts.back();
            ++stats.shards;
            EDB_OBS_INC(obsShards);

            pool.submit([shard = std::move(shard),
                         snap = std::move(snap), n, out, &engines,
                         &in_flight, &replay] {
                EDB_OBS_TIMED_SPAN("sim.parallel.shard",
                                   obsShardWallNs);
                Worker *w = engines.acquire();
                w->engine.reset();
                w->engine.seed(snap.data(), snap.size());
                replay(*w, shard);
                *out = w->engine.result();
                engines.release(w);
                in_flight.sub(n);
            });
        }
        pool.wait();
    }

    SimResult merged;
    merged.counters.resize(sessions.size());
    for (const SimResult &part : parts)
        merged.merge(part);
    stats.peakBufferedEvents = in_flight.peak();
    return merged;
}

} // namespace

SimResult
parallelSimulate(const Trace &trace, const SessionSet &sessions,
                 const ParallelOptions &opts, ParallelStats *stats)
{
    // Workers read their event-index shard straight out of the trace.
    using Span = std::span<const Event>;
    std::size_t at = 0;
    ParallelStats local;
    SimResult merged = dispatchShards<Span>(
        sessions, opts, local,
        [&](LiveMap &running, std::size_t budget, Span &shard) {
            shard = Span(trace.events).subspan(
                at, std::min(budget, trace.events.size() - at));
            advanceLiveState(running, shard.data(), shard.size());
            at += shard.size();
            return shard.size();
        },
        [](Worker &w, const Span &shard) {
            w.engine.replay(shard.data(), shard.size());
        });

    if (stats)
        *stats = local;
    detail::checkTotalWrites(merged, trace.totalWrites);
    return merged;
}

SimResult
parallelSimulate(const MappedTrace &trace, const SessionSet &sessions,
                 const ParallelOptions &opts, ParallelStats *stats)
{
    /** One worker work item: a block, decoded fully or control-only. */
    struct ShardBlock
    {
        std::size_t id;
        bool ctlOnly;
    };
    // The planner decides every block in stream order; the scanner
    // only batches the blocks it hands out into shards, whole blocks
    // each. Skipped blocks never reach a worker, and their writes
    // fold into the merged count below.
    BlockPlanner planner(trace, sessions);
    BlockPlanner::Step step;
    bool more = planner.next(step);
    ParallelStats local;
    SimResult merged = dispatchShards<std::vector<ShardBlock>>(
        sessions, opts, local,
        [&](LiveMap &running, std::size_t budget,
            std::vector<ShardBlock> &shard) {
            std::size_t n = 0;
            for (; more && n < budget; more = planner.next(step)) {
                const bool ctl_only =
                    step.action == BlockPlanner::Action::ControlOnly;
                shard.push_back(ShardBlock{step.block, ctl_only});
                n += ctl_only ? step.controls
                              : (std::size_t)trace.block(step.block)
                                    .events;
                // Only controls change the live state: the scanner
                // decodes those and leaves the writes to the workers.
                const Event *ctl = planner.controlsOf(step);
                advanceLiveState(running, ctl, step.controls);
                planner.advance(ctl, step.controls);
            }
            return n;
        },
        [&trace](Worker &w, const std::vector<ShardBlock> &shard) {
            // Workers decode their own blocks straight from the
            // mapping (decoding is const and thread-safe).
            for (const ShardBlock &sb : shard) {
                if (sb.ctlOnly) {
                    std::vector<Event> &ctl = w.batch.ctl;
                    ctl.resize((std::size_t)trace.block(sb.id).controls());
                    trace.decodeBlockControl(sb.id, ctl.data());
                    w.engine.replay(ctl.data(), ctl.size());
                } else {
                    trace.decodeBlockBatch(sb.id, w.batch);
                    w.engine.replayBlock(w.batch);
                }
            }
        });

    merged.totalWrites += planner.stats().writesSkipped;
    planner.publish();
    local.plan = planner.stats();
    if (stats)
        *stats = local;
    detail::checkTotalWrites(merged, trace.totalWrites());
    return merged;
}

} // namespace edb::sim
