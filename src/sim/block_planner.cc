/**
 * @file
 * The block planner's per-block decision (see block_planner.h).
 */

#include "sim/block_planner.h"

#include <algorithm>
#include <bit>

#include "sim/counters.h"
#include "trace/index_format.h"
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

// One bitset word of needed_ covers exactly one superblock.
static_assert(trace::superBlockSpan == 64,
              "a needed_ word must cover exactly one superblock");

namespace {

std::vector<bool>
sessionObjects(const session::SessionSet &sessions)
{
    std::vector<bool> relevant(sessions.objectCount());
    for (std::size_t o = 0; o < relevant.size(); ++o)
        relevant[o] = !sessions.sessionsOf((trace::ObjectId)o).empty();
    return relevant;
}

/** One zeroed needed_ word per superblock of `trace`. */
std::vector<std::uint64_t>
neededWords(const trace::MappedTrace &trace)
{
    return std::vector<std::uint64_t>(
        (trace.blockCount() + trace::superBlockSpan - 1) >>
        trace::superBlockShift);
}

} // namespace

BlockPlanner::BlockPlanner(const trace::MappedTrace &trace,
                           const session::SessionSet &sessions)
    : BlockPlanner(trace, sessionObjects(sessions), ControlNeed::All)
{
}

BlockPlanner::BlockPlanner(const trace::MappedTrace &trace,
                           std::vector<bool> tracked, ControlNeed need,
                           WritesWanted wanted)
    : trace_(trace), fixed_(false), relevant_(std::move(tracked)),
      wanted_(std::move(wanted)), needed_(neededWords(trace)),
      supers_(&trace.superBlocks()), monitored_(&pages_),
      scratch_(trace.largestBlockEvents()),
      scratch_pos_(trace.largestBlockEvents())
{
    stats_.blocksTotal = trace.blockCount();
    // The aggregate skip stops at the next block holding a needed
    // control: any control for replay, and for the query a control
    // of a relevant object, which the sidecar's extents list.
    auto mark = [&](std::size_t b) {
        needed_[b >> 6] |= std::uint64_t{1} << (b & 63);
    };
    const trace::TraceIndex *index = trace.index();
    if (need == ControlNeed::Relevant && index != nullptr) {
        for (const trace::IndexExtent &e : index->extents) {
            if (relevant(e.object)) {
                for (std::uint32_t b : e.blocks)
                    mark(b);
            }
        }
        extents_ = true;
    }
    for (std::size_t b = 0; b < trace.blockCount(); ++b) {
        if (trace.block(b).controls() == 0)
            continue;
        if (!extents_)
            mark(b);
        else if (!needs(b))
            ++index_elided_;
    }
}

BlockPlanner::BlockPlanner(const trace::MappedTrace &trace,
                           const SummaryPageTracker *monitored)
    : trace_(trace), fixed_(true), needed_(neededWords(trace)),
      // A plan over every page misses nothing: it never probes a
      // superblock, so it never builds them.
      supers_(monitored != nullptr ? &trace.superBlocks() : nullptr),
      monitored_(monitored)
{
    stats_.blocksTotal = trace.blockCount();
}

bool
BlockPlanner::needs(std::size_t b) const
{
    return ((needed_[b >> 6] >> (b & 63)) & 1) != 0;
}

bool
BlockPlanner::superMisses(std::size_t b)
{
    const std::size_t s = b >> trace::superBlockShift;
    if (s != probe_super_ || version_ != probe_version_) {
        probe_miss_ = supers_ != nullptr &&
                      misses((*supers_)[s].runs.begin(),
                             (*supers_)[s].runs.size());
        probe_super_ = s;
        probe_version_ = version_;
    }
    return probe_miss_;
}

std::size_t
BlockPlanner::nextNeeded(std::size_t b) const
{
    const std::size_t s = b >> trace::superBlockShift;
    const std::uint64_t rest = needed_[s] & (~std::uint64_t{0} << (b & 63));
    return rest != 0 ? s * trace::superBlockSpan +
                           (std::size_t)std::countr_zero(rest)
                     : std::min(trace_.blockCount(),
                                (s + 1) * trace::superBlockSpan);
}

void
BlockPlanner::retire(std::size_t first, std::size_t last)
{
    std::uint64_t writes = 0;
    if (last - first == trace::superBlockSpan) {
        writes = (*supers_)[first >> trace::superBlockShift].writes;
    } else {
        for (std::size_t b = first; b < last; ++b)
            writes += trace_.block(b).writes;
    }
    next_ = last;
    stats_.blocksSkipped += last - first;
    stats_.writesSkipped += writes;
}

bool
BlockPlanner::next(Step &step)
{
    EDB_ASSERT(!owed_, "a Full step's controls were not advanced");
    while (next_ < trace_.blockCount()) {
        const std::size_t b = next_;
        // Aggregate skip (DESIGN.md §16): when a superblock's merged
        // runs miss the whole relevance set, so does every member's
        // summary, and the set can change only at a block holding a
        // needed control. One probe retires the members up to it.
        const bool super_miss = superMisses(b);
        if (super_miss) {
            const std::size_t stop = nextNeeded(b);
            if (stop > b) {
                retire(b, stop);
                continue;
            }
        }
        const trace::MappedTrace::Block &blk = trace_.block(b);
        const bool needed = needs(b);
        // The sidecar proves this block holds no control the caller
        // needs: its control decode is elided.
        const bool ctl_elided =
            !fixed_ && !needed && blk.controls() > 0;
        // The writes can matter only if the caller wants them and
        // their summary touches a page tracked before the block ...
        bool wanted = true;
        bool writes_miss = false;
        if (fixed_ || blk.writes > 0) {
            wanted = !wanted_ || wanted_(b);
            writes_miss = !wanted || super_miss ||
                          misses(blk.runs.begin(), blk.runs.size());
        }
        if (writes_miss && !needed) {
            retire(b, b + 1);
            continue;
        }
        ++next_;
        step = Step{b, Action::Full, nullptr, nullptr,
                    ctl_elided ? 0 : (std::size_t)blk.controls()};
        owed_ = !fixed_ && step.controls > 0;
        if (writes_miss) {
            // ... or one the block itself installs (removes only
            // shrink the set). Decode just the control group to ask.
            controlsOf(step);
            if (!wanted || !installTouches(step.ctl, step.controls,
                                           blk.runs.begin(),
                                           blk.runs.size())) {
                fold(step.ctl, step.controls);
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
        fold(ctl, n);
}

bool
BlockPlanner::installTouches(const trace::Event *ctl, std::size_t n,
                             const trace::PageRun *runs,
                             std::size_t nruns) const
{
    for (std::size_t i = 0; i < n; ++i) {
        const trace::Event &e = ctl[i];
        if (e.kind == trace::EventKind::InstallMonitor && e.size > 0 &&
            relevant(e.aux) && rangeTouchesRuns(e.range(), runs, nruns)) {
            return true;
        }
    }
    return false;
}

void
BlockPlanner::fold(const trace::Event *ctl, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const trace::Event &e = ctl[i];
        if (e.kind == trace::EventKind::Write || !relevant(e.aux))
            continue;
        if (e.kind == trace::EventKind::InstallMonitor) {
            if (e.size == 0)
                continue;
            auto [o, fresh] = live_.try_emplace(e.begin);
            if (!fresh)
                pages_.remove(AddrRange{e.begin, o->end});
            *o = LiveObj{e.begin + e.size, (trace::ObjectId)e.aux};
            pages_.add(e.range());
        } else {
            const LiveObj *o = live_.find(e.begin);
            if (o == nullptr || o->obj != e.aux)
                continue;
            pages_.remove(AddrRange{e.begin, o->end});
            live_.erase(e.begin);
        }
        ++version_;
    }
    owed_ = false;
}

const trace::Event *
BlockPlanner::controlsOf(Step &step)
{
    if (step.ctl == nullptr && step.controls > 0) {
        if (scratch_.empty()) {
            scratch_.resize(trace_.largestBlockEvents());
            scratch_pos_.resize(trace_.largestBlockEvents());
        }
        trace_.decodeBlockControl(step.block, scratch_.data(),
                                  scratch_pos_.data());
        step.ctl = scratch_.data();
        step.pos = scratch_pos_.data();
    }
    return step.ctl;
}

void
BlockPlanner::publish() const
{
    trace::obsNoteSkippedBlocks(stats_.blocksSkipped +
                                    stats_.blocksControlOnly,
                                stats_.writesSkipped);
    publishIndexPlan();
}

void
BlockPlanner::publishIndexPlan() const
{
    if (extents_) {
        trace::obsNoteIndexPlan(trace_.blockCount() - index_elided_,
                                index_elided_);
    }
}

} // namespace edb::sim
