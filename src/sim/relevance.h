/**
 * @file
 * Summary-page relevance helpers of the block planner (DESIGN.md
 * §11/§12).
 *
 * Every consumer of the v2 block summaries — replay, live RUN and
 * the trace query — judges "can this block's writes possibly
 * matter?" through sim::BlockPlanner (block_planner.h), against the
 * per-block 8 KiB page-summary runs. A wrong "no" turns a skip into
 * silent data loss, so the refcounted monitored-summary-page set and
 * the range-touches-summary test live here, once; the planner keeps
 * the only tracking SummaryPageTracker, and live RUN hands a static
 * one to it.
 */

#ifndef EDB_SIM_RELEVANCE_H
#define EDB_SIM_RELEVANCE_H

#include <bit>
#include <cstdint>

#include "trace/event.h"
#include "trace/trace_format.h"
#include "util/addr.h"
#include "util/flat_map.h"

namespace edb::sim {

/** log2 of the v2 block-summary page size. */
constexpr unsigned summaryPageShift =
    (unsigned)std::countr_zero(trace::summaryPageBytes);

/** Inclusive summary-page index span of a non-empty address range. */
inline std::pair<Addr, Addr>
summaryPageSpan(const AddrRange &r)
{
    return {r.begin >> summaryPageShift,
            (r.end - 1) >> summaryPageShift};
}

/** True when the summary-page span of `r` overlaps any of `runs`. */
inline bool
rangeTouchesRuns(const AddrRange &r, const trace::PageRun *runs,
                 std::size_t nruns)
{
    const auto [first, last] = summaryPageSpan(r);
    for (std::size_t k = 0; k < nruns; ++k) {
        if (first < runs[k].firstPage + runs[k].pages &&
            last >= runs[k].firstPage) {
            return true;
        }
    }
    return false;
}

/**
 * Summary page -> count of relevant live objects touching it. What
 * "relevant" means is the caller's policy (session-relevant for
 * replay, query-selected for the query, enabled monitors for live
 * RUN); the tracker just refcounts non-empty ranges onto
 * trace::summaryPageBytes-sized pages and answers the block-skip
 * probe.
 */
class SummaryPageTracker
{
  public:
    /** Count one relevant object onto the summary pages of `r`,
     *  which must not be empty. */
    void
    add(const AddrRange &r)
    {
        const auto [first, last] = summaryPageSpan(r);
        for (Addr p = first; p <= last; ++p)
            ++*pages_.try_emplace(p).first;
    }

    /** Inverse of add(); the object must be counted. */
    void
    remove(const AddrRange &r)
    {
        const auto [first, last] = summaryPageSpan(r);
        for (Addr p = first; p <= last; ++p) {
            std::uint32_t *count = pages_.find(p);
            EDB_ASSERT(count != nullptr && *count > 0,
                       "summary page table corrupt on remove");
            if (--*count == 0)
                pages_.erase(p);
        }
    }

    /** True when any summary page in `runs` is currently tracked. */
    bool
    anyMonitored(const trace::PageRun *runs, std::size_t n) const
    {
        std::uint64_t span = 0;
        for (std::size_t i = 0; i < n; ++i)
            span += runs[i].pages;
        if (span > pages_.size()) {
            // Wide summary, few monitored pages: probe the other way.
            bool found = false;
            pages_.forEach([&](Addr page, const std::uint32_t &) {
                for (std::size_t i = 0; i < n && !found; ++i)
                    found = runs[i].contains(page);
            });
            return found;
        }
        for (std::size_t i = 0; i < n; ++i) {
            const Addr end = runs[i].firstPage + runs[i].pages;
            for (Addr p = runs[i].firstPage; p < end; ++p) {
                if (pages_.find(p) != nullptr)
                    return true;
            }
        }
        return false;
    }

  private:
    util::FlatMap<Addr, std::uint32_t> pages_;
};

} // namespace edb::sim

#endif // EDB_SIM_RELEVANCE_H
