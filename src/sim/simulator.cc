/**
 * @file
 * One-pass multi-session simulator and the per-session oracle.
 *
 * simulate() is a thin front end over the shared ReplayEngine
 * (replay_core.h), which owns the bitset/flat-table hot path; the
 * engine is also what the parallel shards run, so the two stay
 * identical by construction. Over a mapped trace it executes the
 * BlockPlanner's plan (block_planner.h), the same plan the parallel
 * front end shards. simulateOneSession() deliberately keeps
 * its naive flat-list implementation: it is the oracle the
 * differential tests pin everything else against, so it must stay
 * simple enough to be obviously correct.
 */

#include "sim/simulator.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "sim/block_planner.h"
#include "sim/replay_core.h"

namespace edb::sim {

using session::SessionId;
using session::SessionSet;
using trace::Event;
using trace::EventKind;
using trace::ObjectId;
using trace::Trace;

SimResult
simulate(const Trace &trace, const SessionSet &sessions)
{
    const session::SessionMaskTable masks(sessions);
    detail::ReplayEngine engine(sessions, masks);
    engine.replay(trace.events.data(), trace.events.size());

    SimResult result = engine.result();
    detail::checkTotalWrites(result, trace.totalWrites);
    return result;
}

SimResult
simulate(const trace::MappedTrace &trace, const SessionSet &sessions,
         BlockSkipStats *stats)
{
    const session::SessionMaskTable masks(sessions);
    detail::ReplayEngine engine(sessions, masks);

    // The planner decides every block; this loop only executes the
    // plan. A Full block's controls fold back into the planner from
    // the batch they were decoded into, not from a second decode.
    BlockPlanner planner(trace, sessions);
    BlockPlanner::Step step;
    trace::WriteBatch batch;
    while (planner.next(step)) {
        if (step.action == BlockPlanner::Action::ControlOnly) {
            engine.replay(step.ctl, step.controls);
            continue;
        }
        trace.decodeBlockBatch(step.block, batch);
        engine.replayBlock(batch);
        planner.advance(batch.ctl.data(), batch.ctl.size());
    }
    planner.publish();
    if (stats != nullptr)
        *stats = planner.stats();

    SimResult result = engine.result();
    result.totalWrites += planner.stats().writesSkipped;
    detail::checkTotalWrites(result, trace.totalWrites());
    return result;
}

SessionCounters
simulateOneSession(const Trace &trace, const SessionSet &sessions,
                   SessionId id)
{
    SessionCounters c;

    // Live monitors of this session only, as a flat list — an
    // intentionally different (and obviously correct) structure from
    // the one-pass simulator's, so tests can use this as an oracle.
    std::vector<std::pair<AddrRange, ObjectId>> monitors;
    std::array<std::unordered_map<Addr, std::uint32_t>,
               vmPageSizeCount> page_counts;

    auto in_session = [&](ObjectId obj) {
        const auto &s = sessions.sessionsOf(obj);
        return std::binary_search(s.begin(), s.end(), id);
    };

    for (const Event &e : trace.events) {
        switch (e.kind) {
          case EventKind::InstallMonitor: {
            if (!in_session(e.aux))
                break;
            ++c.installs;
            const AddrRange r = e.range();
            monitors.emplace_back(r, e.aux);
            for (std::size_t i = 0; i < vmPageSizeCount; ++i) {
                auto [first, last] = pageSpan(r, vmPageSizes[i]);
                for (Addr p = first; p <= last; ++p) {
                    if (++page_counts[i][p] == 1)
                        ++c.vm[i].protects;
                }
            }
            break;
          }

          case EventKind::RemoveMonitor: {
            if (!in_session(e.aux))
                break;
            ++c.removes;
            const AddrRange r = e.range();
            auto it = std::find_if(
                monitors.begin(), monitors.end(), [&](const auto &m) {
                    return m.first == r && m.second == e.aux;
                });
            EDB_ASSERT(it != monitors.end(),
                       "oracle: remove %s without install",
                       r.str().c_str());
            monitors.erase(it);
            for (std::size_t i = 0; i < vmPageSizeCount; ++i) {
                auto [first, last] = pageSpan(r, vmPageSizes[i]);
                for (Addr p = first; p <= last; ++p) {
                    auto pc = page_counts[i].find(p);
                    EDB_ASSERT(pc != page_counts[i].end() &&
                                   pc->second > 0,
                               "oracle: page count corrupt");
                    if (--pc->second == 0) {
                        ++c.vm[i].unprotects;
                        page_counts[i].erase(pc);
                    }
                }
            }
            break;
          }

          case EventKind::Write: {
            const AddrRange w = e.range();
            bool hit = std::any_of(
                monitors.begin(), monitors.end(),
                [&](const auto &m) { return m.first.intersects(w); });
            if (hit) {
                ++c.hits;
                break;
            }
            for (std::size_t i = 0; i < vmPageSizeCount; ++i) {
                auto [first, last] = pageSpan(w, vmPageSizes[i]);
                for (Addr p = first; p <= last; ++p) {
                    auto pc = page_counts[i].find(p);
                    if (pc != page_counts[i].end() && pc->second > 0) {
                        ++c.vm[i].activePageMisses;
                        break;
                    }
                }
            }
            break;
          }
        }
    }
    return c;
}

} // namespace edb::sim
