/**
 * @file
 * The phase-2 simulator (paper Section 4, Figure 1).
 *
 * "In phase 2, the simulator uses that trace and a description of the
 * objects to be monitored to output detailed data about program
 * behavior with respect to the monitored objects."
 *
 * The paper ran phase 2 once per monitor session; we exploit the fact
 * that its counting variables are all additive to evaluate *every*
 * session of a trace in a single pass (the paper itself observes that
 * per-session re-runs "would be impractical" for some programs):
 *
 *  - an interval map of currently installed objects resolves each
 *    WriteEvent to the objects it touches, and the object -> session
 *    inverted index attributes MonitorHit_sigma;
 *  - per VM page size, a page -> (session, active-monitor-count) table
 *    maintained by install/remove events yields VMProtect_sigma /
 *    VMUnprotect_sigma transitions and, on writes, the
 *    VMActivePageMiss_sigma attribution;
 *  - epoch marking deduplicates sessions so a write touching two
 *    objects of one session still counts a single monitor hit, exactly
 *    as "there is a single monitor notification for each monitor hit"
 *    (Section 2).
 */

#ifndef EDB_SIM_SIMULATOR_H
#define EDB_SIM_SIMULATOR_H

#include "session/session.h"
#include "sim/counters.h"
#include "trace/trace.h"
#include "trace/trace_io.h"

namespace edb::sim {

/**
 * Run the one-pass simulation of every session over a trace.
 *
 * @param trace    The phase-1 event trace.
 * @param sessions Sessions enumerated from the same trace.
 * @return Counting variables for every session.
 */
SimResult simulate(const trace::Trace &trace,
                   const session::SessionSet &sessions);

/** What the v2 block-skip fast path did during one simulation. */
struct BlockSkipStats
{
    std::uint64_t blocksTotal = 0;
    /** Blocks skipped without decoding a single byte: pure-write
     *  blocks, or any block under a static plan (block_planner.h). */
    std::uint64_t blocksSkipped = 0;
    /** Mixed blocks whose writes were skipped: only the (small)
     *  control column group was decoded and replayed. */
    std::uint64_t blocksControlOnly = 0;
    /** Write events across both kinds of skipped block. */
    std::uint64_t writesSkipped = 0;

    bool operator==(const BlockSkipStats &) const = default;
};

/**
 * One-pass simulation over a mapped v2 trace, executing the
 * BlockPlanner's plan (block_planner.h) inline: a block whose write
 * summary misses every page monitored by a session in `sessions`,
 * and every page its own installs monitor, never decodes its write
 * columns. Its installs and removes still replay exactly, and its
 * write count folds straight into the counters, bit-identically to
 * full replay (DESIGN.md §11). parallelSimulate() runs the same plan.
 * Most profitable under a sparse SessionSet::subset(), where most
 * blocks miss the monitored set.
 *
 * @param stats Optional out-param reporting the plan.
 */
SimResult simulate(const trace::MappedTrace &trace,
                   const session::SessionSet &sessions,
                   BlockSkipStats *stats = nullptr);

/**
 * Reference implementation: recompute the counters of a single session
 * by replaying the trace with only that session's monitors installed,
 * exactly as the paper's per-session simulator did. Quadratic if used
 * for every session; used by tests as an oracle for simulate() and by
 * examples that inspect one session.
 */
SessionCounters simulateOneSession(const trace::Trace &trace,
                                   const session::SessionSet &sessions,
                                   session::SessionId id);

} // namespace edb::sim

#endif // EDB_SIM_SIMULATOR_H
