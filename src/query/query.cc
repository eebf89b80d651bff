/**
 * @file
 * Spec validation and partial-result merging, shared by the mapped
 * executor (executor.cc). scanAll (scan_all.cc) independently
 * cross-checks it.
 */

#include <algorithm>

#include "query/eval.h"
#include "query/query.h"

namespace edb::query {

const char *
aggName(Agg agg)
{
    switch (agg) {
    case Agg::Count:
        return "count";
    case Agg::CountByPage:
        return "by-page";
    case Agg::CountBySession:
        return "by-session";
    case Agg::TopPages:
        return "top-pages";
    case Agg::First:
        return "first";
    case Agg::Last:
        return "last";
    case Agg::Rows:
        return "rows";
    }
    return "?";
}

std::string
validateSpec(const QuerySpec &spec, std::size_t sessionCount)
{
    if (spec.kindMask == 0 || spec.kindMask > allKindsMask)
        return "kind mask selects no valid event kind";
    if (spec.firstIndex >= spec.lastIndex)
        return "event-index window is empty";
    if (spec.minSize > spec.maxSize)
        return "size bounds are inverted (min > max)";
    for (const AddrRange &r : spec.addrRanges) {
        if (r.empty())
            return "address range is empty";
    }
    for (std::size_t i = 0; i < spec.sessions.size(); ++i) {
        if (spec.sessions[i] >= sessionCount)
            return "session id " +
                   std::to_string(spec.sessions[i]) +
                   " out of range (trace has " +
                   std::to_string(sessionCount) + " sessions)";
        for (std::size_t j = 0; j < i; ++j) {
            if (spec.sessions[j] == spec.sessions[i])
                return "session id " +
                       std::to_string(spec.sessions[i]) +
                       " selected twice";
        }
    }
    if (spec.agg == Agg::CountBySession && spec.sessions.empty())
        return "by-session aggregation needs selected sessions";
    if (spec.agg == Agg::TopPages && spec.k == 0)
        return "top-pages needs k >= 1";
    if (spec.agg == Agg::Rows &&
        (spec.rowLimit == 0 || spec.rowLimit > maxRowLimit)) {
        return "row limit must be in [1, " +
               std::to_string(maxRowLimit) + "]";
    }
    return "";
}

namespace detail {

QueryResult
finalizeParts(const QuerySpec &spec, Partial *parts, std::size_t n)
{
    QueryResult result;
    if (spec.agg == Agg::CountBySession)
        result.sessionCounts.assign(spec.sessions.size(), 0);

    std::map<Addr, std::uint64_t> pages;
    for (std::size_t i = 0; i < n; ++i) {
        const Partial &part = parts[i];
        result.matches += part.matches;
        for (const auto &[page, count] : part.pages)
            pages[page] += count;
        for (std::size_t s = 0; s < part.sessionCounts.size(); ++s)
            result.sessionCounts[s] += part.sessionCounts[s];
        switch (spec.agg) {
        case Agg::First:
            if (result.rows.empty() && !part.rows.empty())
                result.rows.push_back(part.rows.front());
            break;
        case Agg::Last:
            if (!part.rows.empty())
                result.rows.assign(1, part.rows.back());
            break;
        case Agg::Rows:
            for (const MatchedRow &row : part.rows) {
                if (result.rows.size() >= spec.rowLimit)
                    break;
                result.rows.push_back(row);
            }
            break;
        default:
            break;
        }
    }

    if (spec.agg == Agg::CountByPage) {
        result.pages.reserve(pages.size());
        for (const auto &[page, count] : pages)
            result.pages.push_back({page, count});
    } else if (spec.agg == Agg::TopPages) {
        result.pages.reserve(pages.size());
        for (const auto &[page, count] : pages)
            result.pages.push_back({page, count});
        std::sort(result.pages.begin(), result.pages.end(),
                  [](const PageCount &a, const PageCount &b) {
                      if (a.count != b.count)
                          return a.count > b.count;
                      return a.page < b.page;
                  });
        if (result.pages.size() > spec.k)
            result.pages.resize(spec.k);
    }
    return result;
}

} // namespace detail

} // namespace edb::query
