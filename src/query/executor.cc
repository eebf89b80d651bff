/**
 * @file
 * The pushdown query executor over mapped v2 traces.
 *
 * The dispatcher executes one sim::BlockPlanner plan (block_planner.h),
 * the same planner replay and live RUN run. With a session predicate
 * the planner tracks the summary pages under live selected objects
 * and needs only their controls; the spec's own write predicates (the
 * event-index window and the address ranges against a block's 8 KiB
 * page-summary runs) tell it which blocks' writes are wanted at all
 * (DESIGN.md §12 argues the soundness). Without a session predicate
 * the plan is static over every page and each step is judged here.
 * Blocks whose writes cannot match are never fully decoded: their
 * control rows are evaluated straight off the control columns at
 * their exact stream positions, and the rest are skipped without
 * touching a payload byte. Surviving blocks fan out to a thread pool;
 * workers decode independently from the mapping and evaluate against
 * the planner's boundary snapshot of selected live objects, so
 * results are bit-identical to the serial in-memory pass.
 */

#include <chrono>
#include <vector>

#include "obs/obs.h"
#include "query/eval.h"
#include "query/query.h"
#include "sim/block_planner.h"
#include "util/thread_pool.h"

namespace edb::query {

#if EDB_OBS_ENABLED
namespace {
obs::Counter obsRuns{"query.runs"};
/** Blocks whose write columns were never decoded. */
obs::Counter obsBlocksPruned{"query.blocks_pruned"};
/** Blocks fully decoded and handed to workers. */
obs::Counter obsBlocksDecoded{"query.blocks_decoded"};
/** Write events pruned without decoding. */
obs::Counter obsWritesPruned{"query.writes_pruned"};
/** Rows matched across all queries. */
obs::Counter obsRows{"query.rows"};
} // namespace
#endif

namespace {

using detail::Evaluator;
using detail::LiveSel;
using detail::Partial;
using detail::SessionFilter;
using sim::BlockPlanner;
using trace::Event;
using trace::MappedTrace;
using trace::ObjectId;

std::uint64_t
nsSince(std::chrono::steady_clock::time_point start)
{
    return (std::uint64_t)std::chrono::duration_cast<
               std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Plan the query's blocks: a session predicate tracks the selected
 *  objects and needs only their controls; without one every write
 *  may match, so the plan is static over every page. */
BlockPlanner
planFor(const MappedTrace &trace, const SessionFilter &filter,
        std::size_t objects, BlockPlanner::WritesWanted wanted)
{
    if (!filter.active())
        return BlockPlanner(trace, nullptr);
    std::vector<bool> selected(objects);
    for (std::size_t o = 0; o < objects; ++o)
        selected[o] = filter.selected((ObjectId)o);
    return BlockPlanner(trace, std::move(selected),
                        BlockPlanner::ControlNeed::Relevant,
                        std::move(wanted));
}

} // namespace

QueryResult
runQuery(const trace::MappedTrace &trace,
         const session::SessionSet &sessions, const QuerySpec &spec,
         const QueryOptions &options, QueryStats *stats)
{
    const std::string problem = validateSpec(spec, sessions.size());
    if (!problem.empty())
        throw QueryError("invalid query: " + problem);

    EDB_OBS_SPAN("query.run");
    EDB_OBS_INC(obsRuns);

    const SessionFilter filter(sessions, spec);
    const bool wantsWrites =
        (spec.kindMask & detail::writeKindBit) != 0;
    const bool wantsControls =
        (spec.kindMask & detail::controlKindBits) != 0;
    const unsigned jobs = options.jobs < 1 ? 1 : options.jobs;

    const std::size_t nblocks = trace.blockCount();
    QueryStats local;
    local.blocksTotal = nblocks;
    local.jobs = jobs;
    local.actions.resize(nblocks, BlockAction::Skipped);

    auto inWindow = [&](const MappedTrace::Block &blk) {
        return blk.firstEvent < spec.lastIndex &&
               blk.firstEvent + blk.events > spec.firstIndex;
    };
    // The spec's own predicates on a block's writes, from its header:
    // the event-index window and the address ranges against its
    // page-summary runs. Sessions are the planner's part.
    auto writesWanted = [&](std::size_t b) {
        const MappedTrace::Block &blk = trace.block(b);
        if (!wantsWrites || blk.writes == 0 || !inWindow(blk))
            return false;
        if (spec.addrRanges.empty())
            return true;
        for (const AddrRange &r : spec.addrRanges) {
            if (sim::rangeTouchesRuns(r, blk.runs.begin(),
                                      blk.runs.size())) {
                return true;
            }
        }
        return false;
    };

    std::vector<Partial> parts(nblocks);
    std::uint64_t fullWrites = 0;
    std::uint64_t submitNs = 0;
    ThreadPool pool(jobs, jobs);
    BlockPlanner planner =
        planFor(trace, filter, sessions.objectCount(), writesWanted);
    BlockPlanner::Step step;

    const auto planStart = std::chrono::steady_clock::now();
    while (planner.next(step)) {
        const std::size_t b = step.block;
        const MappedTrace::Block &blk = trace.block(b);
        const std::uint64_t blockFirst = blk.firstEvent;
        if (step.action == BlockPlanner::Action::Full &&
            writesWanted(b)) {
            local.actions[b] = BlockAction::Full;
            ++local.blocksFull;
            fullWrites += blk.writes;

            std::vector<LiveSel> snap;
            snap.reserve(planner.liveCount());
            planner.forEachLive([&](Addr begin, Addr end, ObjectId obj) {
                snap.push_back({begin, end, obj});
            });
            Partial *out = &parts[b];
            // Workers decode their own block straight from the
            // mapping; only the id and the snapshot cross over. The
            // handoff can block on a full worker queue, which is
            // evaluation backpressure, not planning — keep it out of
            // planNs.
            const auto submitStart = std::chrono::steady_clock::now();
            pool.submit([b, blockFirst, out, snap = std::move(snap),
                         &trace, &spec, &filter] {
                // Batched decode: rows evaluate in stream order from
                // the struct-of-arrays batch — write Events
                // materialize on the fly, controls (the only rows
                // that advance live-set state) come interleaved by
                // position.
                trace::WriteBatch batch;
                trace.decodeBlockBatch(b, batch);
                Evaluator eval(spec, filter, *out);
                eval.seed(snap.data(), snap.size());
                const std::size_t nc = batch.ctl.size();
                std::size_t w = 0;
                std::size_t pos = 0;
                for (std::size_t c = 0; c <= nc; ++c) {
                    const std::size_t upto =
                        c < nc ? (std::size_t)batch.ctlPos[c] - c
                               : (std::size_t)batch.writes;
                    for (; w < upto; ++w, ++pos) {
                        const Event e{batch.wrBegin[w],
                                      batch.wrSize[w],
                                      batch.wrAux[w],
                                      trace::EventKind::Write};
                        eval.row(blockFirst + pos, e);
                    }
                    if (c < nc) {
                        eval.row(blockFirst + pos, batch.ctl[c]);
                        eval.state(batch.ctl[c]);
                        ++pos;
                    }
                }
            });
            submitNs += nsSince(submitStart);
        } else {
            // Control rows need only session membership, not live
            // state: evaluate them right here at their exact stream
            // positions. A session filter matches only a selected
            // object's control, and the planner's step then carries
            // none when the sidecar proves the block holds none.
            const bool rows = wantsControls && inWindow(blk);
            if (step.controls > 0 && (rows || filter.active())) {
                const Event *ctl = planner.controlsOf(step);
                if (rows) {
                    Evaluator eval(spec, filter, parts[b]);
                    for (std::size_t k = 0; k < step.controls; ++k)
                        eval.row(blockFirst + step.pos[k], ctl[k]);
                }
                local.actions[b] = BlockAction::ControlOnly;
                ++local.blocksControlOnly;
            }
        }
        // Advance the planner's selected live state past this block
        // (workers saw the pre-block snapshot).
        if (filter.active())
            planner.advance(planner.controlsOf(step), step.controls);
    }
    local.planNs = nsSince(planStart);
    local.planNs = local.planNs > submitNs ? local.planNs - submitNs : 0;
    local.blocksSkipped =
        nblocks - local.blocksFull - local.blocksControlOnly;
    local.writesPruned = trace.totalWrites() - fullWrites;
    local.blocksIndexElided = planner.indexElided();
    planner.publishIndexPlan();
    EDB_OBS_ADD(obsBlocksDecoded, local.blocksFull);
    EDB_OBS_ADD(obsBlocksPruned, nblocks - local.blocksFull);
    EDB_OBS_ADD(obsWritesPruned, local.writesPruned);
    pool.wait(); // rethrows the first worker decode/eval error

    QueryResult result = detail::finalizeParts(
        spec, parts.data(), parts.size());
    EDB_OBS_ADD(obsRows, result.matches);
    if (stats)
        *stats = std::move(local);
    return result;
}

} // namespace edb::query
