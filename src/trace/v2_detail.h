/**
 * @file
 * Internal codec of the v2 block format (include from src/trace only).
 *
 * One block record is:
 *
 *   events  varint   (>= 1)
 *   writes  varint   (<= events)
 *   base    varint   (absolute begin address of the first event)
 *   nruns   varint   (summary runs; 0 only when writes == 0)
 *   runs    nruns x (gap varint, pages varint)    summary-page runs,
 *           ascending; the first gap is absolute, later gaps count
 *           from the previous run's end and must be >= 1
 *   colbytes 8 x varint    encoded size of each column
 *   payload  the eight RLE columns back to back
 *
 * The columns segregate the block's control events (install/remove)
 * from its writes, so each group decodes standalone:
 *
 *   0 ctlPos    positions of control events within the block: the
 *               first is absolute (0-based), later values are gaps
 *               from the previous position and must be >= 1
 *   1 ctlKind   0 = InstallMonitor, 1 = RemoveMonitor
 *   2 ctlBegin  zigzag begin deltas vs the control AddrPredictor
 *   3 ctlSize   control event sizes
 *   4 ctlAux    zigzag object-id deltas vs the previous control aux
 *   5 wrBegin   zigzag begin deltas vs the write AddrPredictor
 *   6 wrSize    write sizes
 *   7 wrAux     zigzag write-site deltas vs the previous write aux
 *
 * This split is what the replay block-skip fast path feeds on: a
 * block whose *write* summary misses every monitored page decodes
 * only the (small) control group — the installs/removes still replay
 * exactly, while the writes fold into a single count (DESIGN.md §11).
 * It also compresses better than interleaving: each group's begin
 * predictor sees only its own address stream, and a remove's begin is
 * predicted exactly by the install of the same object.
 *
 * Each column is a run-length/literal hybrid: a control varint c
 * introduces either a run (c & 1 == 0: c >> 1 copies of one following
 * varint value) or a literal group (c & 1 == 1: c >> 1 varint values
 * follow). Group counts must be >= 1 and sum exactly to the column's
 * value count. Identical values repeat heavily in every column of a
 * real trace (a loop writing one array has constant stride, size and
 * write site), which is where the container's compactness comes from.
 *
 * Both the block header parser and the payload decoder work on an
 * in-memory span: MappedTrace, the only v2 reader, holds the whole
 * encoding resident.
 *
 * Every parse failure throws TraceError with the absolute byte offset
 * and, where one applies, the block id.
 */

#ifndef EDB_TRACE_V2_DETAIL_H
#define EDB_TRACE_V2_DETAIL_H

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "trace/trace_format.h"
#include "trace/trace_io.h"
#include "util/small_vec.h"

namespace edb::trace::detail {

#if EDB_OBS_ENABLED
/**
 * v2 layer instruments (DESIGN.md §10). bytes_raw counts decoded
 * events at sizeof(Event), bytes_encoded their on-disk block records,
 * so encoded/raw is the live compression ratio; blocks_skipped is fed
 * by the replay layer through obsNoteSkippedBlocks().
 */
namespace obs_v2 {
inline obs::Counter blocksDecoded{"trace.v2.blocks_decoded"};
inline obs::Counter blocksSkipped{"trace.v2.blocks_skipped"};
inline obs::Counter bytesRaw{"trace.v2.bytes_raw"};
inline obs::Counter bytesEncoded{"trace.v2.bytes_encoded"};
inline obs::Counter foldedWrites{"sim.block_skip_writes"};
} // namespace obs_v2
#endif

/** v2 fixed footer: u64 LE block-index offset + footerMagic. It is
 *  always the last footerBytes of the file. */
inline constexpr char footerMagic[4] = {'E', 'D', 'B', 'X'};
inline constexpr std::size_t footerBytes = 12;

/** Render "<msg> at byte <off>[ (block <id>)]" and throw TraceError.
 *  block < 0 means "no block context". */
[[noreturn]] inline void
vfailTraceAt(std::uint64_t off, std::int64_t block, const char *fmt,
             va_list args)
{
    char msg[224];
    std::vsnprintf(msg, sizeof(msg), fmt, args);
    char full[288];
    if (block >= 0) {
        std::snprintf(full, sizeof(full),
                      "%s at byte %llu (block %lld)", msg,
                      (unsigned long long)off, (long long)block);
    } else {
        std::snprintf(full, sizeof(full), "%s at byte %llu", msg,
                      (unsigned long long)off);
    }
    throw TraceError(full);
}

[[noreturn]] inline void
failTraceAt(std::uint64_t off, std::int64_t block, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

[[noreturn]] inline void
failTraceAt(std::uint64_t off, std::int64_t block, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vfailTraceAt(off, block, fmt, args);
}

/** A bounds-checked cursor over in-memory encoded bytes, carrying the
 *  absolute file offset of its start for error reports. */
struct SpanIn
{
    const unsigned char *p;
    const unsigned char *end;
    const unsigned char *start;
    std::uint64_t startOff;
    std::int64_t block;

    SpanIn(const unsigned char *data, std::size_t n,
           std::uint64_t file_off, std::int64_t block_id)
        : p(data), end(data + n), start(data), startOff(file_off),
          block(block_id)
    {
    }

    std::uint64_t
    offset() const
    {
        return startOff + (std::uint64_t)(p - start);
    }

    [[noreturn]] void
    fail(const char *fmt, ...) __attribute__((format(printf, 2, 3)))
    {
        va_list args;
        va_start(args, fmt);
        vfailTraceAt(offset(), block, fmt, args);
    }

    bool empty() const { return p == end; }

    std::uint64_t
    varint()
    {
        std::uint64_t v = 0;
        int shift = 0;
        while (true) {
            if (p == end)
                fail("trace file truncated inside a varint");
            unsigned char c = *p++;
            v |= (std::uint64_t)(c & 0x7f) << shift;
            if (!(c & 0x80))
                return v;
            shift += 7;
            if (shift >= 64)
                fail("trace file varint overflows 64 bits");
        }
    }
};

/**
 * The file header: magic, program name, function/write-site/object
 * tables, the declared event count and the writer's events-per-block.
 */
struct TraceHeader
{
    std::string program;
    ObjectRegistry registry;
    std::vector<std::string> writeSites;
    std::uint64_t eventCount = 0;
    std::uint64_t blockEvents = 0;
};

/**
 * Parse and validate a file header from the start of `in`, leaving
 * `in` at the first byte after it (the first block). The one place a
 * file's magic is checked: a retired v1 flat trace (EDBTRC02) is
 * rejected here, for every reader alike. Implemented in trace_io.cc.
 */
TraceHeader parseTraceHeader(SpanIn &in);

/** Streaming decoder of one RLE column; see the format comment. */
class RleCursor
{
  public:
    RleCursor(const unsigned char *data, std::size_t n,
              std::uint64_t file_off, std::int64_t block)
        : in_(data, n, file_off, block)
    {
    }

    std::uint64_t
    next()
    {
        if (remaining_ == 0) {
            std::uint64_t c = in_.varint();
            remaining_ = c >> 1;
            if (remaining_ == 0)
                in_.fail("trace file RLE group is empty");
            literal_ = (c & 1) != 0;
            if (!literal_)
                value_ = in_.varint();
        }
        --remaining_;
        return literal_ ? in_.varint() : value_;
    }

    /** True once the column's bytes and groups are fully consumed. */
    bool exhausted() const { return remaining_ == 0 && in_.empty(); }

    SpanIn &in() { return in_; }

  private:
    SpanIn in_;
    std::uint64_t remaining_ = 0;
    bool literal_ = false;
    std::uint64_t value_ = 0;
};

/**
 * The shared address predictor of the delta column. Successive trace
 * events interleave writes from different sites into different memory
 * regions, so "delta vs the previous event" bounces across the address
 * space (5-byte varints). Each site's own stream, however, is strided;
 * predicting from the last begin seen for the same aux value turns it
 * into small, mostly constant deltas the RLE layer collapses. The
 * table is direct-mapped and reset per block: encoder and decoder run
 * the identical structure, so a tag collision only costs compression
 * (falls back to the previous event's begin), never correctness.
 */
struct AddrPredictor
{
    static constexpr std::size_t slots = 64;

    explicit AddrPredictor(Addr base) : prev(base)
    {
        for (auto &t : tag)
            t = ~std::uint64_t{0};
    }

    Addr
    predict(std::uint64_t aux) const
    {
        const std::size_t i = aux & (slots - 1);
        return tag[i] == aux ? last[i] : prev;
    }

    void
    update(std::uint64_t aux, Addr begin)
    {
        const std::size_t i = aux & (slots - 1);
        tag[i] = aux;
        last[i] = begin;
        prev = begin;
    }

    std::uint64_t tag[slots];
    Addr last[slots];
    Addr prev;
};

/** Column indices within a block record's payload. */
enum : int {
    colCtlPos = 0,
    colCtlKind = 1,
    colCtlBegin = 2,
    colCtlSize = 3,
    colCtlAux = 4,
    colWrBegin = 5,
    colWrSize = 6,
    colWrAux = 7,
    colCount = 8,
};

/** Parsed block record header (everything before the payload). */
struct BlockHeader
{
    std::uint64_t events = 0;
    std::uint64_t writes = 0;
    Addr base = 0;
    util::SmallVec<PageRun, maxSummaryRuns> runs;
    std::uint64_t colBytes[colCount] = {};

    /** Install/remove events in the block. */
    std::uint64_t controls() const { return events - writes; }

    /** Bytes of the control column group alone. */
    std::uint64_t
    controlBytes() const
    {
        std::uint64_t n = 0;
        for (int c = colCtlPos; c <= colCtlAux; ++c)
            n += colBytes[c];
        return n;
    }

    std::uint64_t
    payloadBytes() const
    {
        std::uint64_t n = 0;
        for (int c = 0; c < colCount; ++c)
            n += colBytes[c];
        return n;
    }
};

/**
 * Parse and validate one block header; remaining_events bounds the
 * declared event count against the file header's total.
 */
inline BlockHeader
parseBlockHeader(SpanIn &src, std::uint64_t remaining_events)
{
    BlockHeader h;
    h.events = src.varint();
    if (h.events == 0)
        src.fail("trace file block is empty");
    if (h.events > maxBlockEvents || h.events > remaining_events) {
        src.fail("trace file block event count %llu implausible",
                 (unsigned long long)h.events);
    }
    h.writes = src.varint();
    if (h.writes > h.events)
        src.fail("trace file block write count exceeds its events");
    h.base = src.varint();

    const std::uint64_t nruns = src.varint();
    if (nruns > maxSummaryRuns) {
        src.fail("trace file block summary has %llu runs (cap %llu)",
                 (unsigned long long)nruns,
                 (unsigned long long)maxSummaryRuns);
    }
    if (nruns == 0 && h.writes != 0)
        src.fail("trace file block has writes but no page summary");
    Addr prev_end = 0;
    for (std::uint64_t i = 0; i < nruns; ++i) {
        const std::uint64_t gap = src.varint();
        if (i > 0 && gap == 0)
            src.fail("trace file block summary runs not separated");
        const std::uint64_t pages = src.varint();
        if (pages == 0)
            src.fail("trace file block summary run is empty");
        Addr first = prev_end + gap;
        if (first < prev_end || first + pages < first)
            src.fail("trace file block summary run overflows");
        h.runs.push_back(PageRun{first, pages});
        prev_end = first + pages;
    }

    // Bound each column before anything is allocated from it: a
    // varint value can take at most 10 bytes, plus control overhead.
    const std::uint64_t col_cap = 16 + 11 * h.events;
    for (int c = 0; c < colCount; ++c) {
        h.colBytes[c] = src.varint();
        if (h.colBytes[c] > col_cap) {
            src.fail("trace file block column size %llu implausible",
                     (unsigned long long)h.colBytes[c]);
        }
    }
    return h;
}

inline std::int64_t
unzigzagV2(std::uint64_t v)
{
    return (std::int64_t)(v >> 1) ^ -(std::int64_t)(v & 1);
}

inline std::uint64_t
zigzagV2(std::int64_t v)
{
    return ((std::uint64_t)v << 1) ^ (std::uint64_t)(v >> 63);
}

/** The per-block column cursors, positioned over one payload. */
struct BlockCursors
{
    util::SmallVec<RleCursor, colCount> cols;

    BlockCursors(const BlockHeader &h, const unsigned char *payload,
                 std::uint64_t payload_off, std::int64_t block)
    {
        const unsigned char *col = payload;
        std::uint64_t off = payload_off;
        for (int c = 0; c < colCount; ++c) {
            cols.push_back(RleCursor(
                col, (std::size_t)h.colBytes[c], off, block));
            col += h.colBytes[c];
            off += h.colBytes[c];
        }
    }

    RleCursor &operator[](int c) { return cols[c]; }

    void
    checkExhausted(int first, int last)
    {
        for (int c = first; c <= last; ++c) {
            if (!cols[c].exhausted()) {
                cols[c].in().fail(
                    "trace file block column %d has trailing bytes",
                    c);
            }
        }
    }
};

/**
 * Pull one control event from the control column group. Validates the
 * kind, the object id, and the 32-bit size/aux ranges.
 */
inline Event
nextControlEvent(BlockCursors &cur, AddrPredictor &pred,
                 std::uint64_t &prev_aux, std::uint64_t object_count)
{
    Event e;
    const std::uint64_t kind = cur[colCtlKind].next();
    if (kind > (std::uint64_t)EventKind::RemoveMonitor)
        cur[colCtlKind].in().fail("trace file control kind invalid");
    e.kind = (EventKind)kind;
    const std::uint64_t size = cur[colCtlSize].next();
    if (size > 0xffffffffull) {
        cur[colCtlSize].in().fail(
            "trace file event size %llu implausible",
            (unsigned long long)size);
    }
    e.size = (std::uint32_t)size;
    const std::uint64_t aux =
        prev_aux + (std::uint64_t)unzigzagV2(cur[colCtlAux].next());
    prev_aux = aux;
    if (aux >= object_count)
        cur[colCtlAux].in().fail("trace file object id out of range");
    e.aux = (std::uint32_t)aux;
    e.begin = pred.predict(aux) +
              (Addr)unzigzagV2(cur[colCtlBegin].next());
    pred.update(aux, e.begin);
    return e;
}

/**
 * Decode a block payload into out[0 .. h.events). Validates kind, size
 * and aux ranges, the install/remove object ids, the control
 * positions, the exact exhaustion of every column, and that every
 * write's span lies inside the block's page summary (which the skip
 * fast path trusts).
 *
 * @param payload     The concatenated columns, fully in memory.
 * @param payload_off Absolute file offset of the payload.
 * @param block       Block id for error messages.
 */
inline void
decodeBlockBody(const BlockHeader &h, const unsigned char *payload,
                std::uint64_t payload_off, std::int64_t block,
                std::uint64_t object_count, Event *out)
{
    BlockCursors cur(h, payload, payload_off, block);

    // Each group runs its own predictor and aux chain, so either
    // decodes standalone; interleaving is driven by the position
    // column alone.
    AddrPredictor ctl_pred(h.base);
    AddrPredictor wr_pred(h.base);
    std::uint64_t prev_ctl_aux = 0;
    std::uint64_t prev_wr_aux = 0;

    std::uint64_t ctl_left = h.controls();
    std::uint64_t next_ctl = 0;
    if (ctl_left > 0) {
        next_ctl = cur[colCtlPos].next();
        if (next_ctl >= h.events) {
            cur[colCtlPos].in().fail(
                "trace file control position out of range");
        }
    }

    for (std::uint64_t i = 0; i < h.events; ++i) {
        if (ctl_left > 0 && i == next_ctl) {
            out[i] = nextControlEvent(cur, ctl_pred, prev_ctl_aux,
                                      object_count);
            if (--ctl_left > 0) {
                const std::uint64_t gap = cur[colCtlPos].next();
                next_ctl += gap;
                if (gap == 0 || next_ctl >= h.events) {
                    cur[colCtlPos].in().fail(
                        "trace file control position out of range");
                }
            }
            continue;
        }

        Event e;
        e.kind = EventKind::Write;
        const std::uint64_t size = cur[colWrSize].next();
        if (size > 0xffffffffull) {
            cur[colWrSize].in().fail(
                "trace file event size %llu implausible",
                (unsigned long long)size);
        }
        e.size = (std::uint32_t)size;
        // The aux column is delta-encoded itself: write-site pseudo
        // PCs sit above writeSitePcBase, so absolute values would
        // cost 4 varint bytes per event.
        const std::uint64_t aux =
            prev_wr_aux +
            (std::uint64_t)unzigzagV2(cur[colWrAux].next());
        prev_wr_aux = aux;
        if (aux > 0xffffffffull) {
            cur[colWrAux].in().fail(
                "trace file event aux %llu implausible",
                (unsigned long long)aux);
        }
        e.aux = (std::uint32_t)aux;
        e.begin = wr_pred.predict(aux) +
                  (Addr)unzigzagV2(cur[colWrBegin].next());
        wr_pred.update(aux, e.begin);

        if (e.size > 0) {
            // The skip fast path trusts the summary, so a decoded
            // write escaping it is corruption, not a quirk.
            auto [first, last] = pageSpan(e.range(), summaryPageBytes);
            Addr need = first;
            for (const PageRun &r : h.runs) {
                if (need < r.firstPage)
                    break;
                if (!r.contains(need))
                    continue;
                need = r.firstPage + r.pages;
                if (need > last)
                    break;
            }
            if (need <= last) {
                failTraceAt(payload_off, block,
                            "trace file write escapes the block "
                            "page summary");
            }
        }
        out[i] = e;
    }

    // ctl_left hit zero inside the loop (positions < events), so the
    // loop consumed exactly h.writes write events; the write-count
    // header field is enforced structurally.
    cur.checkExhausted(0, colCount - 1);
}

/**
 * Decode only a block's control events into out[0 .. h.controls()),
 * in stream order, without touching the write columns. This is the
 * replay block-skip fast path: the caller has already proven the
 * block's writes cannot land on a monitored page, so installs and
 * removes still replay exactly while the writes fold into a count.
 */
inline void
decodeBlockControl(const BlockHeader &h, const unsigned char *payload,
                   std::uint64_t payload_off, std::int64_t block,
                   std::uint64_t object_count, Event *out,
                   std::uint32_t *out_pos = nullptr)
{
    BlockCursors cur(h, payload, payload_off, block);

    AddrPredictor ctl_pred(h.base);
    std::uint64_t prev_ctl_aux = 0;
    const std::uint64_t n = h.controls();
    std::uint64_t pos = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t gap = cur[colCtlPos].next();
        if ((i > 0 && gap == 0) || (pos += gap) >= h.events) {
            cur[colCtlPos].in().fail(
                "trace file control position out of range");
        }
        if (out_pos != nullptr)
            out_pos[i] = (std::uint32_t)pos;
        out[i] = nextControlEvent(cur, ctl_pred, prev_ctl_aux,
                                  object_count);
    }
    cur.checkExhausted(colCtlPos, colCtlAux);
}

/**
 * Decode a block payload into a WriteBatch — the batched twin of
 * decodeBlockBody (DESIGN.md §14). All eight columns — control and
 * write groups alike — expand whole RLE groups at a time into flat
 * arrays; the aux chains resolve with vector prefix sums, the begin
 * columns unzigzag whole and run their AddrPredictor chains per
 * event, and the same invariants hold — kind/position/object-id
 * checks, 32-bit size/aux ranges, exact column exhaustion, and every
 * write span inside the block's page summary. Kernels dispatch on
 * util::simdIsa(); every ISA yields byte-identical batches, pinned
 * by the differential tests. Implemented in decode_batch.cc.
 */
void decodeBlockBatchBody(const BlockHeader &h,
                          const unsigned char *payload,
                          std::uint64_t payload_off, std::int64_t block,
                          std::uint64_t object_count, WriteBatch &out);

/**
 * Interleave a WriteBatch back into out[0 .. wb.events) in stream
 * order — what decodeBlock() hands AoS consumers. With equal inputs
 * this reproduces decodeBlockBody's output exactly.
 */
void scatterBatch(const WriteBatch &wb, Event *out);

/** Append v to buf as a LEB128 varint. */
inline void
bufVarint(std::string &buf, std::uint64_t v)
{
    while (v >= 0x80) {
        buf.push_back((char)((v & 0x7f) | 0x80));
        v >>= 7;
    }
    buf.push_back((char)v);
}

/** Encode one column with the run/literal hybrid scheme. */
inline void
rleEncodeColumn(const std::uint64_t *vals, std::size_t n,
                std::string &out)
{
    // A run group costs 2+ bytes regardless of length; below 4 equal
    // values it is not clearly cheaper than literals and fragments
    // the literal groups around it.
    constexpr std::size_t runThreshold = 4;
    constexpr std::size_t literalGroupCap = std::size_t{1} << 15;

    std::size_t lit_start = 0;
    auto flushLiterals = [&](std::size_t end_idx) {
        std::size_t k = lit_start;
        while (k < end_idx) {
            const std::size_t cnt =
                std::min(end_idx - k, literalGroupCap);
            bufVarint(out, ((std::uint64_t)cnt << 1) | 1);
            for (std::size_t j = 0; j < cnt; ++j)
                bufVarint(out, vals[k + j]);
            k += cnt;
        }
        lit_start = end_idx;
    };

    std::size_t i = 0;
    while (i < n) {
        std::size_t j = i + 1;
        while (j < n && vals[j] == vals[i])
            ++j;
        if (j - i >= runThreshold) {
            flushLiterals(i);
            bufVarint(out, (std::uint64_t)(j - i) << 1);
            bufVarint(out, vals[i]);
            lit_start = j;
        }
        i = j;
    }
    flushLiterals(n);
}

/**
 * Build a block's summary: the runs of summary pages its write events
 * touch, coalesced, and — when more than maxSummaryRuns survive —
 * merged across the smallest gaps until they fit. Merging only ever
 * widens the summary, so the skip test stays sound (DESIGN.md §11).
 */
inline void
summarizeWrites(const Event *events, std::size_t n,
                util::SmallVec<PageRun, maxSummaryRuns> &out)
{
    out.clear();
    // [first, last] inclusive. Writes cluster on a few pages at a
    // time, so most repeat a span pushed shortly before; a small
    // direct-mapped filter of recent spans drops those repeats. The
    // sort and merge below then see the same set of spans, so the runs
    // do not change, but they sort a few spans per page touched
    // instead of one per write.
    std::vector<std::pair<Addr, Addr>> spans;
    std::pair<Addr, Addr> recent[16];
    // first > last: matches no span.
    std::fill(std::begin(recent), std::end(recent),
              std::pair<Addr, Addr>{1, 0});
    for (std::size_t i = 0; i < n; ++i) {
        if (events[i].kind != EventKind::Write || events[i].size == 0)
            continue;
        const auto span = pageSpan(events[i].range(), summaryPageBytes);
        auto &seen = recent[span.first % std::size(recent)];
        if (seen != span) {
            seen = span;
            spans.push_back(span);
        }
    }
    if (spans.empty())
        return;
    std::sort(spans.begin(), spans.end());

    std::vector<std::pair<Addr, Addr>> merged;
    for (const auto &s : spans) {
        if (!merged.empty() && s.first <= merged.back().second + 1) {
            merged.back().second =
                std::max(merged.back().second, s.second);
        } else {
            merged.push_back(s);
        }
    }

    if (merged.size() > maxSummaryRuns) {
        // Keep the maxSummaryRuns - 1 widest gaps as separators.
        std::vector<std::pair<Addr, std::size_t>> gaps;
        gaps.reserve(merged.size() - 1);
        for (std::size_t i = 0; i + 1 < merged.size(); ++i) {
            gaps.emplace_back(
                merged[i + 1].first - merged[i].second - 1, i);
        }
        std::sort(gaps.begin(), gaps.end(),
                  [](const auto &a, const auto &b) {
                      return a.first > b.first ||
                             (a.first == b.first && a.second < b.second);
                  });
        std::vector<char> separator(merged.size(), 0);
        for (std::size_t k = 0; k < maxSummaryRuns - 1; ++k)
            separator[gaps[k].second] = 1;

        std::vector<std::pair<Addr, Addr>> fitted;
        std::pair<Addr, Addr> cur = merged[0];
        for (std::size_t i = 0; i + 1 < merged.size(); ++i) {
            if (separator[i]) {
                fitted.push_back(cur);
                cur = merged[i + 1];
            } else {
                cur.second = merged[i + 1].second;
            }
        }
        fitted.push_back(cur);
        merged.swap(fitted);
    }

    for (const auto &m : merged)
        out.push_back(PageRun{m.first, m.second - m.first + 1});
}

} // namespace edb::trace::detail

#endif // EDB_TRACE_V2_DETAIL_H
