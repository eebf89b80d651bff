/**
 * @file
 * The one block planner of mapped replay (DESIGN.md §11.2, §16).
 *
 * simulate(MappedTrace) and parallelSimulate(MappedTrace) both walk a
 * v2 trace through one BlockPlanner. It holds the only tracker of the
 * summary pages under live session-relevant objects and decides once,
 * in stream order, what each block needs:
 *
 *  - Skipped: a pure-write block whose write summary misses every
 *    monitored page. Nothing is decoded; its writes fold into
 *    writesSkipped. With a sidecar index one probe of a superblock's
 *    merged runs retires all its member blocks;
 *  - ControlOnly: a mixed block whose writes miss both the monitored
 *    pages and every relevant install inside the block. Only its
 *    control group is decoded and replayed; its writes fold;
 *  - Full: everything else, decoded and replayed whole.
 *
 * The front ends only execute the plan, inline or sharded.
 *
 * Live RUN in edb-served plans in *static mode*: its relevance set is
 * fixed for the whole walk (the summary pages of the tenant's enabled
 * monitors) and install/remove events are never relevant, so any
 * block whose write summary misses the set is Skipped, pure or mixed,
 * with no control decode.
 */

#ifndef EDB_SIM_BLOCK_PLANNER_H
#define EDB_SIM_BLOCK_PLANNER_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "session/session.h"
#include "sim/relevance.h"
#include "sim/simulator.h"
#include "trace/index_format.h"
#include "trace/trace_io.h"

namespace edb::sim {

/** Plans one mapped trace's blocks, once each, in stream order. */
class BlockPlanner
{
  public:
    /** How to execute a block next() hands out; Skipped blocks never
     *  reach the caller. */
    enum class Action : std::uint8_t
    {
        ControlOnly,
        Full,
    };

    /** One block the caller must execute. */
    struct Step
    {
        std::size_t block = 0;
        Action action = Action::Full;
        /** The block's install/remove events once the planner has
         *  decoded them (always for ControlOnly), else nullptr.
         *  Controls the planner decoded are already folded. */
        const trace::Event *ctl = nullptr;
        std::size_t controls = 0;
    };

    /** Session mode: the relevance set is the summary pages under
     *  live session-relevant objects, tracked as the plan folds each
     *  block's installs and removes. */
    BlockPlanner(const trace::MappedTrace &trace,
                 const session::SessionSet &sessions);

    /**
     * Static mode: the relevance set is `monitored`, which must not
     * change while the planner lives, or every page when it is null
     * (a consumer that must see every write). Steps are always Full
     * and never owe advance().
     */
    BlockPlanner(const trace::MappedTrace &trace,
                 const SummaryPageTracker *monitored);

    /**
     * Retire the skippable blocks up to the next block that needs
     * work and describe it in `step`; false at the end of the trace.
     * A Full step's controls must go through advance() before the
     * next call.
     */
    bool next(Step &step);

    /** Fold a Full step's install/remove events into the tracker,
     *  unless the planner has already. */
    void advance(const trace::Event *ctl, std::size_t n);

    /** The step's control events, decoding them into the planner's
     *  scratch if next() has not; valid until the next next(). */
    const trace::Event *controlsOf(Step &step);

    /** The plan so far; the caller adds writesSkipped to the writes
     *  it replayed. */
    const BlockSkipStats &stats() const { return stats_; }

    /** Publish the finished plan to the obs registry, once. */
    void publish() const;

  private:
    bool relevant(trace::ObjectId obj) const
    {
        return !sessions_->sessionsOf(obj).empty();
    }

    /** True when no page of `runs` is in the relevance set. */
    bool misses(const trace::PageRun *runs, std::size_t n) const
    {
        return monitored_ != nullptr && !monitored_->anyMonitored(runs, n);
    }

    /** Count `blocks` blocks holding `writes` writes as Skipped. */
    void retire(std::size_t blocks, std::uint64_t writes);

    /** Fold a block's controls into the tracker, in stream order.
     *  True when a relevant install among them lands on a summary
     *  page of `runs`: the block's writes may then hit it. */
    bool fold(const trace::Event *ctl, std::size_t n,
              const trace::PageRun *runs, std::size_t nruns);

    const trace::MappedTrace &trace_;
    /** Null in static mode. */
    const session::SessionSet *sessions_;
    const trace::TraceIndex *index_;
    /** Session mode: summary page -> live session-relevant objects
     *  touching it. */
    SummaryPageTracker pages_;
    /** The relevance set the skip probes: &pages_ in session mode;
     *  in static mode the caller's set, null for every page. */
    const SummaryPageTracker *monitored_;
    /** Control decode buffer for the mixed-block probe. */
    std::vector<trace::Event> scratch_;
    std::size_t next_ = 0;
    /** Blocks retired by superblock descent. */
    std::uint64_t index_elided_ = 0;
    /** True while a Full step's controls await advance(). */
    bool owed_ = false;
    BlockSkipStats stats_;
};

} // namespace edb::sim

#endif // EDB_SIM_BLOCK_PLANNER_H
