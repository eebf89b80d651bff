/**
 * @file
 * Parallel sharded phase-2 simulation.
 *
 * The one-pass simulator (simulator.h) already exploits the additivity
 * of the paper's counting variables to evaluate every monitor session
 * in a single sequential sweep. This module exploits the same property
 * across the *event axis*: the stream is split into contiguous shards,
 * each shard is replayed by a worker thread against the interval/page
 * state snapshotted at its boundary, and the per-shard partial
 * counters are summed in a final reduce.
 *
 * Why that is exact (DESIGN.md §7 gives the full argument):
 *
 *  - every counter is a sum of per-event contributions, and each event
 *    lands in exactly one shard;
 *  - an event's contribution depends only on the set of live monitors
 *    at that point of the stream — a pure function of the preceding
 *    install/remove events — which the boundary snapshot reconstructs
 *    exactly (per-page active counts are themselves derivable from the
 *    live set);
 *  - the write-epoch deduplication that collapses multi-object hits
 *    into one notification is local to a single write event, so it
 *    never spans a shard boundary;
 *  - addition of the partial counters is commutative and associative.
 *
 * Two front ends share one dispatch loop and shard replayer: one over
 * a materialized Trace, whose workers replay event-index shards in
 * place, and one over a mapped v2 trace, whose workers decode their
 * own runs of whole blocks straight out of the mapping.
 */

#ifndef EDB_SIM_PARALLEL_SIM_H
#define EDB_SIM_PARALLEL_SIM_H

#include <cstddef>

#include "session/session.h"
#include "sim/counters.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "trace/trace_io.h"

namespace edb::sim {

/** Tuning knobs for the sharded simulator. */
struct ParallelOptions
{
    /** Worker threads; 0 means ThreadPool::defaultJobs(). */
    unsigned jobs = 0;
    /** Events per shard. Small shards exercise the boundary logic
     *  (tests use tiny values); large shards amortize snapshot cost. */
    std::size_t shardEvents = 64 * 1024;
};

/** Observability counters for tests and the scaling benchmark. */
struct ParallelStats
{
    /** Shards dispatched. */
    std::size_t shards = 0;
    /** Worker threads actually used. */
    unsigned jobs = 0;
    /**
     * Peak number of events in shards dispatched but not yet replayed
     * (both front ends). The scanner runs at most a bounded queue of
     * shards ahead of the workers, so this is bounded by jobs and
     * shardEvents, not by trace size.
     */
    std::size_t peakBufferedEvents = 0;
    /** The block plan the mapped front end executed: the same
     *  counts the sequential simulate(MappedTrace) reports. Zero for
     *  the Trace front end. */
    BlockSkipStats plan;
};

/**
 * Sharded parallel equivalent of simulate(): bit-identical counters,
 * computed by `jobs` workers over `shardEvents`-sized shards.
 */
SimResult parallelSimulate(const trace::Trace &trace,
                           const session::SessionSet &sessions,
                           const ParallelOptions &opts = {},
                           ParallelStats *stats = nullptr);

/**
 * Block-sharded front end over a mapped v2 trace. It runs the same
 * BlockPlanner as simulate(MappedTrace) (block_planner.h) and batches
 * the blocks it hands out into shards of whole blocks: skipped blocks
 * are never dispatched, control-only ones are dispatched so workers
 * decode just their install/remove columns, and full ones are decoded
 * whole by the workers, straight out of the mapping. Skipped writes
 * contribute only their header count (DESIGN.md §11), so the result
 * stays bit-identical to simulate() on the same sessions.
 */
SimResult parallelSimulate(const trace::MappedTrace &trace,
                           const session::SessionSet &sessions,
                           const ParallelOptions &opts = {},
                           ParallelStats *stats = nullptr);

} // namespace edb::sim

#endif // EDB_SIM_PARALLEL_SIM_H
