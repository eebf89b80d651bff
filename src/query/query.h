/**
 * @file
 * edb::query — predicate + aggregation queries over recorded traces.
 *
 * Phase 1 records a program's event trace once; the paper's whole
 * premise is that the expensive artifact is then analyzed many times.
 * This layer is the analysis side of that bargain beyond replay: a
 * QuerySpec combines predicates over address ranges, monitor
 * sessions, event kinds, sizes, write sites and event-index windows
 * with an aggregation, and the engine answers it.
 *
 * Two executors answer the same spec:
 *
 *  - scanAll() is the brute-force reference: one linear pass over a
 *    materialized Trace, no pruning, no parallelism, deliberately
 *    simple.
 *  - runQuery() is the pushdown path: it executes the one
 *    sim::BlockPlanner plan, which prunes whole blocks of a
 *    MappedTrace against the block index and 8 KiB page-summary runs
 *    (DESIGN.md §12), decodes only the control columns when a
 *    block's writes cannot match, and fans decoded blocks out over a
 *    thread pool.
 *
 * Both return bit-identical QueryResults on the same trace and spec;
 * tests/test_query_differential.cc enforces it.
 */

#ifndef EDB_QUERY_QUERY_H
#define EDB_QUERY_QUERY_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "session/session.h"
#include "sim/relevance.h"
#include "trace/event.h"
#include "trace/trace.h"
#include "trace/trace_io.h"
#include "util/addr.h"

namespace edb::query {

/** How matched rows are aggregated into a QueryResult. */
enum class Agg : std::uint8_t
{
    Count,          ///< total matched rows only
    CountByPage,    ///< matches per touched 8 KiB summary page
    CountBySession, ///< matches per selected session (needs sessions)
    TopPages,       ///< the k most-written summary pages
    First,          ///< the first matching row in stream order
    Last,           ///< the last matching row in stream order
    Rows,           ///< materialize matches up to rowLimit rows
};

/** Stable lower-case name of an aggregation (CLI --agg values). */
const char *aggName(Agg agg);

/** Mask bit for one event kind in QuerySpec::kindMask. */
constexpr std::uint32_t
kindBit(trace::EventKind kind)
{
    return 1u << (unsigned)kind;
}

/** Every event kind — the default, unfiltered kindMask. */
constexpr std::uint32_t allKindsMask =
    (1u << trace::eventKindCount) - 1;

/** Hard cap on QuerySpec::rowLimit: queries answer questions, they do
 *  not re-materialize traces. */
constexpr std::size_t maxRowLimit = 1u << 20;

/**
 * One query: conjunction of predicates plus an aggregation.
 *
 * Empty vector predicates mean "no constraint". A row matches when
 * every non-empty predicate accepts it:
 *
 *  - its kind's bit is set in kindMask;
 *  - its global stream index lies in [firstIndex, lastIndex);
 *  - its size lies in [minSize, maxSize];
 *  - its aux word (object id for install/remove, write-site id for
 *    writes) appears in auxAny, if auxAny is non-empty;
 *  - its byte range intersects one of addrRanges, if non-empty
 *    (size-0 events span no bytes and never match an address
 *    predicate);
 *  - it is attributed to a selected session, if sessions is
 *    non-empty: installs and removes through their object's session
 *    membership, writes by intersecting an object that is live at
 *    that point in the stream and monitored by a selected session.
 *    Liveness always follows the full install/remove stream — the
 *    other predicates filter reported rows, never the state.
 */
struct QuerySpec
{
    std::vector<AddrRange> addrRanges;
    std::vector<session::SessionId> sessions;
    std::uint32_t kindMask = allKindsMask;
    std::uint64_t firstIndex = 0;
    std::uint64_t lastIndex = ~0ull;
    std::uint32_t minSize = 0;
    std::uint32_t maxSize = 0xffffffffu;
    std::vector<std::uint32_t> auxAny;
    Agg agg = Agg::Count;
    std::size_t k = 10;         ///< TopPages: pages reported
    std::size_t rowLimit = 100; ///< Rows: rows materialized
};

/** One matched row: the event plus its global stream index. */
struct MatchedRow
{
    std::uint64_t index = 0;
    trace::Event event;

    bool operator==(const MatchedRow &) const = default;
};

/** Matches attributed to one 8 KiB summary page. */
struct PageCount
{
    Addr page = 0; ///< summary page index (byte address >> 13)
    std::uint64_t count = 0;

    bool operator==(const PageCount &) const = default;
};

/**
 * The answer to one QuerySpec. `matches` is always the total matched
 * row count; the other fields are filled per the aggregation:
 * `pages` for CountByPage (page-ascending) and TopPages (count
 * descending, page ascending tie-break, truncated to k),
 * `sessionCounts` for CountBySession (parallel to spec.sessions),
 * `rows` for First/Last (one row) and Rows (stream order, capped at
 * rowLimit).
 */
struct QueryResult
{
    std::uint64_t matches = 0;
    std::vector<PageCount> pages;
    std::vector<std::uint64_t> sessionCounts;
    std::vector<MatchedRow> rows;

    bool operator==(const QueryResult &) const = default;
};

/** What the planner decided for one block of a mapped trace. */
enum class BlockAction : std::uint8_t
{
    Skipped,     ///< no payload byte decoded
    ControlOnly, ///< control columns decoded, write columns untouched
    Full,        ///< fully decoded and evaluated
};

/** Planner/executor observability for one runQuery(MappedTrace). */
struct QueryStats
{
    std::uint64_t blocksTotal = 0;
    std::uint64_t blocksFull = 0;
    std::uint64_t blocksControlOnly = 0;
    std::uint64_t blocksSkipped = 0;
    /** Write events never decoded thanks to pruning. */
    std::uint64_t writesPruned = 0;
    unsigned jobs = 1;
    /**
     * Wall time of the dispatcher's loop over the sim::BlockPlanner
     * plan (relevance probes, control decodes for live-state advance
     * and control rows, boundary snapshots — full-block evaluation
     * overlaps on the pool, and the handoff to it is subtracted).
     * This is the cost the sidecar index attacks; bench_query
     * reports it indexed vs index-free.
     */
    std::uint64_t planNs = 0;
    /** Blocks whose planning work the sidecar index elided (probe
     *  short-circuit or control-decode elision); 0 without an index. */
    std::uint64_t blocksIndexElided = 0;
    /** Per-block decision, for the property-test harness. */
    std::vector<BlockAction> actions;
};

/** Execution knobs for the mapped path. */
struct QueryOptions
{
    /** Worker threads for full-block evaluation; clamped to >= 1. */
    unsigned jobs = 1;
};

/** An invalid QuerySpec (see validateSpec) handed to an executor. */
class QueryError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Check a spec against a session universe of `sessionCount` sessions.
 * Returns an empty string when valid, else a one-line description of
 * the first problem. The executors throw QueryError on the same
 * condition; the CLI reports it as a usage error instead.
 */
std::string validateSpec(const QuerySpec &spec,
                         std::size_t sessionCount);

/**
 * Brute-force reference executor: a single linear pass over the
 * event stream with naive data structures. No pruning, no shared
 * evaluator, no parallelism — kept deliberately simple so it can be
 * trusted as the differential oracle for every optimized path.
 */
QueryResult scanAll(const trace::Trace &trace,
                    const session::SessionSet &sessions,
                    const QuerySpec &spec);

/**
 * Pushdown executor over a mapped trace: prunes blocks whose
 * index entry or page-summary runs prove no row can match, decodes
 * only control columns where the writes are irrelevant, and
 * evaluates surviving blocks on `options.jobs` workers. Fills
 * `stats` (when non-null) with the planner's per-block decisions.
 */
QueryResult runQuery(const trace::MappedTrace &trace,
                     const session::SessionSet &sessions,
                     const QuerySpec &spec,
                     const QueryOptions &options = {},
                     QueryStats *stats = nullptr);

/**
 * Inclusive summary-page span a matched row is attributed to by the
 * per-page aggregations. Size-0 events carry no bytes; they attribute
 * to the page holding their begin address.
 */
inline std::pair<Addr, Addr>
rowPages(const trace::Event &e)
{
    const Addr last = e.begin + (e.size ? e.size - 1 : 0);
    return {e.begin >> sim::summaryPageShift,
            last >> sim::summaryPageShift};
}

} // namespace edb::query

#endif // EDB_QUERY_QUERY_H
