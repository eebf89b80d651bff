/**
 * @file
 * The one block planner of mapped replay, live RUN and the trace
 * query (DESIGN.md §11.2, §12, §16).
 *
 * simulate(MappedTrace), parallelSimulate(MappedTrace), edb-served's
 * live RUN and query::runQuery(MappedTrace) all walk a v2 trace
 * through one BlockPlanner. It holds the only tracker of the summary
 * pages under live relevant objects and decides once, in stream
 * order, what each block needs:
 *
 *  - Skipped: a block whose write summary misses every tracked page
 *    and that holds no control the caller needs. Nothing is decoded;
 *    its writes fold into writesSkipped. One probe of a superblock's
 *    merged runs (MappedTrace::superBlocks()) retires all its members
 *    up to the next block holding a needed control;
 *  - ControlOnly: a block holding needed controls whose writes miss
 *    both the tracked pages and every relevant install inside the
 *    block. Only its control group is decoded; its writes fold;
 *  - Full: everything else, decoded and executed whole.
 *
 * What a caller needs of the control events is its explicit choice
 * (ControlNeed): replay needs every one, because its engine checks
 * every object against its live map; the query needs only the
 * controls of the objects its spec selects, and a sidecar's extents
 * prove which blocks hold none. The callers only execute the plan.
 *
 * Live RUN in edb-served plans in *static mode*: its relevance set is
 * fixed for the whole walk (the summary pages of the tenant's enabled
 * monitors) and it needs no control event, so any block whose write
 * summary misses the set is Skipped, pure or mixed, with no control
 * decode. A query without a session predicate plans in static mode
 * over every page and judges each step itself.
 *
 * The fold is tolerant, as a query over an untrusted trace must be:
 * an empty install is ignored, a second install at a live begin
 * replaces the stored range, and a remove that matches no live
 * install of its object is ignored. Replay still aborts on such a
 * trace, in its engine.
 */

#ifndef EDB_SIM_BLOCK_PLANNER_H
#define EDB_SIM_BLOCK_PLANNER_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "session/session.h"
#include "sim/relevance.h"
#include "sim/simulator.h"
#include "trace/trace_io.h"
#include "util/flat_map.h"

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

    /** Which install/remove events the caller must see. */
    enum class ControlNeed : std::uint8_t
    {
        /** Every control event of every block (replay). */
        All,
        /** Only the relevant objects' controls (the query). */
        Relevant,
    };

    /** Whether the caller wants block `b`'s writes at all. A block
     *  whose writes are unwanted is planned as if they missed, and
     *  its summary is never probed. */
    using WritesWanted = std::function<bool(std::size_t b)>;

    /** One block the caller must execute. */
    struct Step
    {
        std::size_t block = 0;
        Action action = Action::Full;
        /** The block's install/remove events once decoded (always
         *  for ControlOnly), else nullptr; see controlsOf(). */
        const trace::Event *ctl = nullptr;
        /** Block-relative stream positions of ctl[0 .. controls). */
        const std::uint32_t *pos = nullptr;
        /** The block's control count, or 0 when the sidecar proves
         *  it holds none the caller needs. */
        std::size_t controls = 0;
    };

    /** Replay: the relevant objects are those a session of
     *  `sessions` monitors, and every control is needed. */
    BlockPlanner(const trace::MappedTrace &trace,
                 const session::SessionSet &sessions);

    /**
     * Tracking mode: the relevance set is the summary pages under
     * live objects that `tracked` marks (by object id), folded from
     * each block's controls in stream order.
     */
    BlockPlanner(const trace::MappedTrace &trace,
                 std::vector<bool> tracked, ControlNeed need,
                 WritesWanted wanted = {});

    /**
     * Static mode: the relevance set is `monitored`, which must not
     * change while the planner lives, or every page when it is null
     * (a consumer that judges every write itself). Steps are always
     * Full and never owe advance().
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

    /** The step's control events (and positions), decoding them into
     *  the planner's scratch if next() has not; valid until the next
     *  next(). */
    const trace::Event *controlsOf(Step &step);

    /** Visit the live relevant objects as (begin, end, object), in
     *  no particular order: the state before the current step. */
    template <typename Fn>
    void
    forEachLive(Fn &&fn) const
    {
        live_.forEach([&](Addr begin, const LiveObj &o) {
            fn(begin, o.end, o.obj);
        });
    }

    /** Number of live relevant objects. */
    std::size_t liveCount() const { return live_.size(); }

    /** The plan so far; the caller adds writesSkipped to the writes
     *  it replayed. */
    const BlockSkipStats &stats() const { return stats_; }

    /** Control-bearing blocks whose control decode the sidecar's
     *  extents prove unneeded, over the whole plan; 0 without them. */
    std::uint64_t indexElided() const { return index_elided_; }

    /** Publish the finished plan to the obs registry, once. */
    void publish() const;

    /** Publish only the sidecar's share of the plan (the query's
     *  part of publish()); a no-op unless the extents planned it. */
    void publishIndexPlan() const;

  private:
    struct LiveObj
    {
        Addr end = 0;
        trace::ObjectId obj = 0;
    };

    bool
    relevant(std::uint64_t obj) const
    {
        return obj < relevant_.size() && relevant_[obj];
    }

    /** True when no page of `runs` is in the relevance set. */
    bool misses(const trace::PageRun *runs, std::size_t n) const
    {
        return monitored_ != nullptr && !monitored_->anyMonitored(runs, n);
    }

    /** True when block `b` holds a control the caller needs. */
    bool needs(std::size_t b) const;

    /** True when the superblock of `b` misses the relevance set as it
     *  stands, probed once per superblock and set version. */
    bool superMisses(std::size_t b);

    /** The first block from `b` to the end of its superblock that
     *  holds a needed control, or that end. */
    std::size_t nextNeeded(std::size_t b) const;

    /** Count blocks [first, last) as Skipped. */
    void retire(std::size_t first, std::size_t last);

    /** True when a relevant install among `ctl` lands on a summary
     *  page of `runs`: the block's writes may then hit it. */
    bool installTouches(const trace::Event *ctl, std::size_t n,
                        const trace::PageRun *runs,
                        std::size_t nruns) const;

    /** Fold controls into the live set and tracker, in stream order. */
    void fold(const trace::Event *ctl, std::size_t n);

    const trace::MappedTrace &trace_;
    /** Static mode: the relevance set never changes. */
    bool fixed_;
    /** Tracking mode: object id -> tracked. */
    std::vector<bool> relevant_;
    WritesWanted wanted_;
    /** One bit per block holding a needed control, one word per
     *  superblock; all clear in static mode. */
    std::vector<std::uint64_t> needed_;
    /** True when the sidecar's extents marked needed_. */
    bool extents_ = false;
    /** The trace's superblocks; null for a plan over every page. */
    const std::vector<trace::MappedTrace::SuperBlock> *supers_;
    /** Tracking mode: begin -> live relevant object. */
    util::FlatMap<Addr, LiveObj> live_;
    /** Tracking mode: summary page -> live relevant objects
     *  touching it. */
    SummaryPageTracker pages_;
    /** The relevance set the skip probes: &pages_ when tracking; in
     *  static mode the caller's set, null for every page. */
    const SummaryPageTracker *monitored_;
    /** Bumped whenever a fold changes the tracker. */
    std::uint64_t version_ = 0;
    std::size_t probe_super_ = ~std::size_t{0};
    std::uint64_t probe_version_ = 0;
    bool probe_miss_ = false;
    /** Control decode buffers; a static plan sizes them on first
     *  use, as live RUN never decodes controls. */
    std::vector<trace::Event> scratch_;
    std::vector<std::uint32_t> scratch_pos_;
    std::size_t next_ = 0;
    std::uint64_t index_elided_ = 0;
    /** True while a Full step's controls await advance(). */
    bool owed_ = false;
    BlockSkipStats stats_;
};

} // namespace edb::sim

#endif // EDB_SIM_BLOCK_PLANNER_H
