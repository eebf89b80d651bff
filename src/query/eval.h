/**
 * @file
 * The row evaluator behind the mapped query executor (internal to
 * src/query).
 *
 * Every candidate row of every block funnels through one Evaluator;
 * scanAll() stays independent of it, as the differential oracle. The
 * evaluator is deliberately tolerant of inconsistent install/remove
 * streams — queries run over untrusted artifacts, so a fuzzed trace
 * must surface a TraceError from the decoder or a wrong-looking
 * answer, never a process abort.
 */

#ifndef EDB_QUERY_EVAL_H
#define EDB_QUERY_EVAL_H

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "query/query.h"

namespace edb::query::detail {

constexpr std::uint32_t writeKindBit =
    kindBit(trace::EventKind::Write);
constexpr std::uint32_t controlKindBits =
    kindBit(trace::EventKind::InstallMonitor) |
    kindBit(trace::EventKind::RemoveMonitor);

/**
 * Object -> positions into spec.sessions, precomputed once per query.
 * "Selected" means monitored by at least one spec session; positions
 * index spec.sessions (and QueryResult::sessionCounts), not global
 * session ids.
 */
class SessionFilter
{
  public:
    SessionFilter(const session::SessionSet &set,
                  const QuerySpec &spec)
    {
        if (spec.sessions.empty())
            return;
        active_ = true;
        pos_.resize(set.objectCount());
        for (std::size_t o = 0; o < set.objectCount(); ++o) {
            for (session::SessionId s :
                 set.sessionsOf((trace::ObjectId)o)) {
                for (std::size_t i = 0; i < spec.sessions.size();
                     ++i) {
                    if (spec.sessions[i] == s)
                        pos_[o].push_back((std::uint32_t)i);
                }
            }
        }
    }

    /** False when the spec selects no sessions (filter disabled). */
    bool active() const { return active_; }

    /** True when a selected session monitors the object. Safe on any
     *  object id, including out-of-range ids from hostile traces. */
    bool
    selected(trace::ObjectId obj) const
    {
        return active_ && (std::size_t)obj < pos_.size() &&
               !pos_[(std::size_t)obj].empty();
    }

    /** Positions of the object's selected sessions in spec.sessions.
     *  Only meaningful when selected(obj). */
    const std::vector<std::uint32_t> &
    positions(trace::ObjectId obj) const
    {
        return pos_[(std::size_t)obj];
    }

  private:
    bool active_ = false;
    std::vector<std::vector<std::uint32_t>> pos_;
};

/** Aggregation state for one slice of the stream (one block on the
 *  mapped path, the whole trace in memory); merged in block order by
 *  finalizeParts(). */
struct Partial
{
    std::uint64_t matches = 0;
    std::map<Addr, std::uint64_t> pages;
    std::vector<std::uint64_t> sessionCounts;
    std::vector<MatchedRow> rows;
};

/** One live monitored range of a query-selected object — the unit of
 *  the boundary snapshots the dispatcher hands to workers. */
struct LiveSel
{
    Addr begin = 0;
    Addr end = 0;
    trace::ObjectId obj = 0;
};

/**
 * Evaluates rows against a spec and aggregates matches into a
 * Partial.
 *
 * The caller drives it in stream order with the row-then-state
 * discipline: row(i, e) first (the event is judged against the live
 * state *before* it applies), then state(e) for install/remove
 * events. On the mapped path a worker first seed()s the evaluator
 * with the dispatcher's boundary snapshot of selected live objects.
 */
class Evaluator
{
  public:
    Evaluator(const QuerySpec &spec, const SessionFilter &filter,
              Partial &out)
        : spec_(spec), filter_(filter), out_(out)
    {
        if (spec.agg == Agg::CountBySession)
            out.sessionCounts.assign(spec.sessions.size(), 0);
        if (filter.active())
            marks_.assign(spec.sessions.size(), 0);
    }

    /** Install the boundary snapshot without evaluating any row. */
    void
    seed(const LiveSel *objs, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            live_[objs[i].begin] = {objs[i].end, objs[i].obj};
    }

    /** Judge one row against the spec and aggregate it if it
     *  matches. `index` is the row's global stream index. */
    void
    row(std::uint64_t index, const trace::Event &e)
    {
        if (!(spec_.kindMask & kindBit(e.kind)))
            return;
        if (index < spec_.firstIndex || index >= spec_.lastIndex)
            return;
        if (e.size < spec_.minSize || e.size > spec_.maxSize)
            return;
        if (!spec_.auxAny.empty() &&
            std::find(spec_.auxAny.begin(), spec_.auxAny.end(),
                      e.aux) == spec_.auxAny.end()) {
            return;
        }
        if (!spec_.addrRanges.empty()) {
            if (e.size == 0)
                return; // spans no bytes: no address can match
            const AddrRange r = e.range();
            bool hit = false;
            for (const AddrRange &q : spec_.addrRanges) {
                if (q.intersects(r)) {
                    hit = true;
                    break;
                }
            }
            if (!hit)
                return;
        }
        matched_.clear();
        if (filter_.active()) {
            if (e.kind == trace::EventKind::Write) {
                if (e.size == 0)
                    return;
                collectWriteSessions(e);
            } else if (filter_.selected(e.aux)) {
                matched_ = filter_.positions((trace::ObjectId)e.aux);
            }
            if (matched_.empty())
                return;
        }
        record(index, e);
    }

    /**
     * Apply an install/remove to the selected live-object map.
     * Tolerant by design: a duplicate install overwrites, an
     * unmatched remove is ignored — see the file comment.
     */
    void
    state(const trace::Event &e)
    {
        if (!filter_.active())
            return;
        if (e.kind == trace::EventKind::InstallMonitor) {
            if (e.size == 0 ||
                !filter_.selected((trace::ObjectId)e.aux)) {
                return;
            }
            live_[e.begin] = {e.begin + e.size,
                              (trace::ObjectId)e.aux};
        } else if (e.kind == trace::EventKind::RemoveMonitor) {
            auto it = live_.find(e.begin);
            if (it != live_.end() && it->second.second == e.aux)
                live_.erase(it);
        }
    }

  private:
    /** Selected-session positions of live objects the write hits,
     *  deduplicated, into matched_. */
    void
    collectWriteSessions(const trace::Event &e)
    {
        const Addr wb = e.begin;
        const Addr we = e.begin + e.size;
        ++epoch_;
        auto consider = [&](trace::ObjectId obj) {
            for (std::uint32_t pos : filter_.positions(obj)) {
                if (marks_[pos] != epoch_) {
                    marks_[pos] = epoch_;
                    matched_.push_back(pos);
                }
            }
        };
        auto it = live_.lower_bound(wb);
        if (it != live_.begin()) {
            auto p = std::prev(it);
            if (p->second.first > wb)
                consider(p->second.second);
        }
        for (; it != live_.end() && it->first < we; ++it)
            consider(it->second.second);
        // CountBySession attributes per selected session; keep the
        // order deterministic across executors.
        std::sort(matched_.begin(), matched_.end());
    }

    void
    record(std::uint64_t index, const trace::Event &e)
    {
        ++out_.matches;
        switch (spec_.agg) {
        case Agg::Count:
            break;
        case Agg::CountByPage:
        case Agg::TopPages: {
            const auto [first, last] = rowPages(e);
            for (Addr p = first; p <= last; ++p)
                ++out_.pages[p];
            break;
        }
        case Agg::CountBySession:
            for (std::uint32_t pos : matched_)
                ++out_.sessionCounts[pos];
            break;
        case Agg::First:
            if (out_.rows.empty())
                out_.rows.push_back({index, e});
            break;
        case Agg::Last:
            if (out_.rows.empty())
                out_.rows.push_back({index, e});
            else
                out_.rows[0] = {index, e};
            break;
        case Agg::Rows:
            if (out_.rows.size() < spec_.rowLimit)
                out_.rows.push_back({index, e});
            break;
        }
    }

    const QuerySpec &spec_;
    const SessionFilter &filter_;
    Partial &out_;
    /** begin -> (end, object) of live selected objects. */
    std::map<Addr, std::pair<Addr, trace::ObjectId>> live_;
    std::vector<std::uint64_t> marks_; ///< per-position write epoch
    std::uint64_t epoch_ = 0;
    std::vector<std::uint32_t> matched_; ///< scratch, per row
};

/** Merge per-slice partials, in stream order, into the result. */
QueryResult finalizeParts(const QuerySpec &spec, Partial *parts,
                          std::size_t n);

} // namespace edb::query::detail

#endif // EDB_QUERY_EVAL_H
