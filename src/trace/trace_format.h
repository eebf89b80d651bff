/**
 * @file
 * The v2 block-format constants shared by the writer, the reader and
 * the phase-2 skip logic.
 *
 * The EDBT container (docs/FORMAT.md, magic EDBTRC03) cuts the event
 * stream into fixed-size blocks, each carrying its own event/write
 * counts, a touched-page summary and independently decodable
 * RLE-compressed columns, with a trailing block index and a fixed
 * footer so a mapped reader can seek to any block without scanning.
 * The retired v1 flat container (EDBTRC02) is recognized only to be
 * rejected with a message that names it.
 *
 * The summary granularity (summaryPageBytes) is a format constant: a
 * block's summary lists the pages, at that granularity, touched by its
 * write events. Phase-2 replay skips whole blocks whose summary does
 * not intersect any monitored page (DESIGN.md §11), so the constant
 * must stay compatible with the simulator's page sizes — replay_core.h
 * static_asserts the relationship rather than assuming it.
 */

#ifndef EDB_TRACE_TRACE_FORMAT_H
#define EDB_TRACE_TRACE_FORMAT_H

#include <cstddef>
#include <cstdint>

#include "util/addr.h"

namespace edb::trace {

/**
 * Granularity of a v2 block's touched-page summary, in bytes. Chosen
 * as the coarsest simulated VM page size: any monitored page of any
 * supported size nests inside a summary page, so "summary disjoint
 * from the monitored summary pages" soundly implies "no write in the
 * block touches a monitored page of any size".
 */
constexpr Addr summaryPageBytes = 8192;

/** Maximum page runs a block summary may carry; the writer coalesces
 *  the smallest inter-run gaps until it fits. */
constexpr std::size_t maxSummaryRuns = 8;

/** One run of consecutive summary pages: [firstPage, firstPage+pages). */
struct PageRun
{
    Addr firstPage = 0;
    Addr pages = 0;

    bool
    contains(Addr page) const
    {
        return page >= firstPage && page - firstPage < pages;
    }

    bool operator==(const PageRun &o) const = default;
};

/** log2 of blocks per superblock: a superblock covers 64 consecutive
 *  blocks (the last one may cover fewer). */
constexpr unsigned superBlockShift = 6;
constexpr std::size_t superBlockSpan = std::size_t{1} << superBlockShift;

/** Page-run cap of a superblock. Merging 64 block summaries (8 runs
 *  each) must re-coalesce into this many runs; when they do not fit,
 *  the closest runs are fused — coarser, still a superset. */
constexpr std::size_t maxSuperRuns = 16;

/** Events per block the v2 writer emits by default. Small enough that
 *  a sparse monitor session skips most of a trace block-wise, large
 *  enough that per-block headers are noise (<0.5% of the payload). */
constexpr std::size_t defaultBlockEvents = 4096;

/** Hard cap on events in one block, enforced by readers before any
 *  allocation sized from a (possibly corrupt) block header. */
constexpr std::size_t maxBlockEvents = std::size_t{1} << 21;

} // namespace edb::trace

#endif // EDB_TRACE_TRACE_FORMAT_H
