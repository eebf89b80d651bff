/**
 * @file
 * The block planner's per-block decision (see block_planner.h).
 */

#include "sim/block_planner.h"

#include "sim/counters.h"
#include "trace/trace_format.h"

namespace edb::sim {

// The skip relies on every monitored page of every simulated size
// nesting inside a summary page: then "no summary page of the block
// is monitored" implies no write in the block can hit an object or
// land on an active page, for any size (DESIGN.md §11.2).
static_assert(trace::summaryPageBytes %
                      vmPageSizes[vmPageSizeCount - 1] ==
                  0,
              "block summaries must nest the coarsest VM page");

BlockPlanner::BlockPlanner(const trace::MappedTrace &trace,
                           const session::SessionSet &sessions)
    : trace_(trace), sessions_(&sessions), index_(trace.index()),
      monitored_(&pages_), scratch_(trace.largestBlockEvents())
{
    stats_.blocksTotal = trace.blockCount();
}

BlockPlanner::BlockPlanner(const trace::MappedTrace &trace,
                           const SummaryPageTracker *monitored)
    : trace_(trace), sessions_(nullptr), index_(trace.index()),
      monitored_(monitored)
{
    stats_.blocksTotal = trace.blockCount();
}

void
BlockPlanner::retire(std::size_t blocks, std::uint64_t writes)
{
    next_ += blocks;
    stats_.blocksSkipped += blocks;
    stats_.writesSkipped += writes;
}

bool
BlockPlanner::next(Step &step)
{
    EDB_ASSERT(!owed_, "a Full step's controls were not advanced");
    // In static mode the relevance set never changes and controls
    // never matter: a summary miss alone retires a block, or a whole
    // superblock, pure or mixed (DESIGN.md §11.2).
    const bool fixed = sessions_ == nullptr;
    while (next_ < trace_.blockCount()) {
        const std::size_t b = next_;
        // Tree descent (DESIGN.md §16): a superblock with no control
        // events whose merged runs miss every monitored page proves
        // each member would skip on its own, and the monitored set
        // cannot change across it. One probe retires the node.
        if (index_ != nullptr &&
            (b & (trace::traceIndexSuperSpan - 1)) == 0) {
            const trace::IndexNode &super = index_->superOf(b);
            if ((fixed || (super.pureWrites() && super.writes > 0)) &&
                misses(super.runs.begin(), super.runs.size())) {
                retire(super.blocks, super.writes);
                index_elided_ += super.blocks;
                continue;
            }
        }
        const trace::MappedTrace::Block &blk = trace_.block(b);
        // The writes can matter only if their summary touches a page
        // monitored before the block ...
        const bool writes_miss =
            (fixed || blk.writes > 0) &&
            misses(blk.runs.begin(), blk.runs.size());
        if (writes_miss && (fixed || blk.pureWrites())) {
            retire(1, blk.writes);
            continue;
        }
        ++next_;
        step = Step{b, Action::Full, nullptr,
                    (std::size_t)blk.controls()};
        owed_ = !fixed && step.controls > 0;
        if (writes_miss) {
            // ... or one the block itself installs (removes only
            // shrink the set). Decode just the control group to ask,
            // folding it into the tracker on the same pass.
            trace_.decodeBlockControl(b, scratch_.data());
            step.ctl = scratch_.data();
            if (!fold(step.ctl, step.controls, blk.runs.begin(),
                      blk.runs.size())) {
                step.action = Action::ControlOnly;
                ++stats_.blocksControlOnly;
                stats_.writesSkipped += blk.writes;
            }
        }
        return true;
    }
    return false;
}

void
BlockPlanner::advance(const trace::Event *ctl, std::size_t n)
{
    if (owed_)
        fold(ctl, n, nullptr, 0);
}

bool
BlockPlanner::fold(const trace::Event *ctl, std::size_t n,
                   const trace::PageRun *runs, std::size_t nruns)
{
    bool touches = false;
    for (std::size_t i = 0; i < n; ++i) {
        const trace::Event &e = ctl[i];
        if (e.kind == trace::EventKind::Write || !relevant(e.aux))
            continue;
        const AddrRange r = e.range();
        if (e.kind == trace::EventKind::RemoveMonitor) {
            pages_.remove(r);
            continue;
        }
        touches = touches || rangeTouchesRuns(r, runs, nruns);
        pages_.add(r);
    }
    owed_ = false;
    return touches;
}

const trace::Event *
BlockPlanner::controlsOf(Step &step)
{
    EDB_ASSERT(sessions_ != nullptr, "static plans carry no controls");
    if (step.ctl == nullptr && step.controls > 0) {
        trace_.decodeBlockControl(step.block, scratch_.data());
        step.ctl = scratch_.data();
    }
    return step.ctl;
}

void
BlockPlanner::publish() const
{
    trace::obsNoteSkippedBlocks(stats_.blocksSkipped +
                                    stats_.blocksControlOnly,
                                stats_.writesSkipped);
    if (index_ != nullptr) {
        trace::obsNoteIndexPlan(trace_.blockCount() - index_elided_,
                                index_elided_);
    }
}

} // namespace edb::sim
