/**
 * @file
 * Implementation of the binary trace format: the writer, the file-header
 * parser, and the whole-trace readers, which materialize a trace by
 * decoding every block of a MappedTrace (trace_v2.cc) in order. The
 * block codec itself lives in v2_detail.h.
 */

#include "trace/trace_io.h"

#include <algorithm>
#include <array>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <memory>
#include <new>
#include <ostream>

#include <unistd.h>

#include "obs/obs.h"
#include "trace/v2_detail.h"
#include "util/logging.h"

namespace edb::trace {

namespace {

#if EDB_OBS_ENABLED
/** Wall time of loadTrace: file read plus whole-trace decode. */
obs::Histogram obsLoadNs{"trace.load_ns"};
#endif

constexpr char magic[8] = {'E', 'D', 'B', 'T', 'R', 'C', '0', '3'};
/** The retired v1 flat container's magic: recognized only to name it
 *  in the rejection. */
constexpr char retiredV1Magic[8] = {'E', 'D', 'B', 'T', 'R', 'C', '0', '2'};

/** Sanity caps: a corrupt varint must not drive a giant allocation
 *  before the input runs dry. */
constexpr std::uint64_t maxTableEntries = 1u << 28;
constexpr std::uint64_t maxStringBytes = 1u << 20;
constexpr std::uint64_t maxEvents = 1ull << 33;

[[noreturn]] void
parseError(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

[[noreturn]] void
parseError(const char *fmt, ...)
{
    char buf[256];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    throw TraceError(buf);
}

void
putVarint(std::string &out, std::uint64_t v)
{
    unsigned char buf[10];
    out.append((const char *)buf,
               (std::size_t)(detail::putVarint(buf, v) - buf));
}

void
putString(std::string &out, const std::string &s)
{
    putVarint(out, s.size());
    out += s;
}

/** The string/object tables of the file header. */
void
writeHeaderTables(std::string &out, const Trace &trace)
{
    putString(out, trace.program);

    // Function table.
    putVarint(out, trace.registry.functionCount());
    for (const auto &name : trace.registry.functions())
        putString(out, name);

    // Write-site table.
    putVarint(out, trace.writeSites.size());
    for (const auto &site : trace.writeSites)
        putString(out, site);

    // Object table.
    putVarint(out, trace.registry.objectCount());
    for (const auto &obj : trace.registry.objects()) {
        putVarint(out, (std::uint64_t)obj.kind);
        putString(out, obj.name);
        putVarint(out, obj.owner == invalidFunction
                           ? 0
                           : (std::uint64_t)obj.owner + 1);
        putVarint(out, obj.size);
        putVarint(out, obj.allocContext.size());
        for (FunctionId f : obj.allocContext)
            putVarint(out, f);
    }
}

/**
 * A growable byte buffer on malloc/realloc. glibc keeps a large buffer
 * in its own mapping and grows it with mremap, so the encoded file is
 * not copied, nor held twice, as it grows.
 */
class ByteBuffer
{
  public:
    ByteBuffer() = default;
    ByteBuffer(const ByteBuffer &) = delete;
    ByteBuffer &operator=(const ByteBuffer &) = delete;
    ~ByteBuffer() { std::free(data_); }

    /** Room for `more` bytes past the end; returns the end. */
    unsigned char *
    reserveTail(std::size_t more)
    {
        if (more > cap_ - size_) {
            const std::size_t cap =
                std::max({size_ + more, 2 * cap_, std::size_t{1} << 16});
            void *p = std::realloc(data_, cap);
            if (p == nullptr)
                throw std::bad_alloc();
            data_ = (unsigned char *)p;
            cap_ = cap;
        }
        return data_ + size_;
    }

    /** Mark the bytes up to `end` (from reserveTail) as written. */
    void commit(unsigned char *end) { size_ = (std::size_t)(end - data_); }

    const unsigned char *data() const { return data_; }
    std::size_t size() const { return size_; }

  private:
    unsigned char *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t cap_ = 0;
};

/** Worst-case bytes of a block record's header: three varints, the
 *  run count, maxSummaryRuns runs and the column sizes. */
constexpr std::size_t blockHeaderBound =
    10 * (4 + 2 * maxSummaryRuns + detail::colCount);

} // namespace

/**
 * The block encoder behind TraceWriter. Every buffer is scratch reused
 * across blocks and sized for the largest block seen, so steady-state
 * encoding allocates nothing but the output's growth.
 */
struct TraceWriter::Encoder
{
    std::size_t blockEvents;
    std::uint64_t events = 0;
    bool finished = false;

    /** The encoded block records, back to back. */
    ByteBuffer blocks;
    /** (record bytes, events, writes) per block, for the index. */
    std::vector<std::array<std::uint64_t, 3>> index;
    /** Appended events not yet filling a block. */
    std::vector<Event> pending;

    /** Events the scratch below is sized for. */
    std::size_t scratchEvents = 0;
    /** colCount columns of scratchEvents values each. */
    std::unique_ptr<std::uint64_t[]> cols;
    /** The block's RLE-encoded columns, back to back. */
    std::unique_ptr<unsigned char[]> payload;
    /** Page spans of the block's writes, repeats mostly dropped. */
    std::unique_ptr<detail::PageSpan[]> spans;
    std::vector<std::pair<Addr, std::size_t>> gaps;
    util::SmallVec<PageRun, maxSummaryRuns> runs;

    explicit Encoder(std::size_t block_events) : blockEvents(block_events)
    {
    }

    void
    reserveScratch(std::size_t n)
    {
        if (n <= scratchEvents)
            return;
        cols.reset(new std::uint64_t[detail::colCount * n]);
        // A write fills 3 column values and a control 5, so the
        // columns hold at most 5n values in all.
        payload.reset(new unsigned char[detail::colCount *
                                            detail::rleColumnBound(0) +
                                        detail::rleColumnBound(5 * n)]);
        spans.reset(new detail::PageSpan[n]);
        scratchEvents = n;
    }

    void encodeBlock(const Event *ev, std::size_t n);
};

void
TraceWriter::Encoder::encodeBlock(const Event *ev, std::size_t n)
{
    using detail::zigzagV2;
    reserveScratch(n);
    const std::size_t stride = scratchEvents;
    std::uint64_t *col[detail::colCount];
    for (int c = 0; c < detail::colCount; ++c)
        col[c] = cols.get() + (std::size_t)c * stride;
    std::uint64_t *const ctl_pos = col[detail::colCtlPos];
    std::uint64_t *const ctl_kind = col[detail::colCtlKind];
    std::uint64_t *const ctl_begin = col[detail::colCtlBegin];
    std::uint64_t *const ctl_size = col[detail::colCtlSize];
    std::uint64_t *const ctl_aux = col[detail::colCtlAux];
    std::uint64_t *const wr_begin = col[detail::colWrBegin];
    std::uint64_t *const wr_size = col[detail::colWrSize];
    std::uint64_t *const wr_aux = col[detail::colWrAux];

    // One pass splits the block into the two column groups
    // (v2_detail.h) and collects the writes' page spans. Control
    // events carry their in-block positions so the decoder can
    // re-interleave, and each group runs its own begin predictor and
    // aux delta chain. Writes cluster on a few pages at a time, so
    // most repeat a span kept shortly before; a small direct-mapped
    // filter of recent spans drops those repeats, which leaves the
    // summary unchanged (it depends on the set of spans alone).
    const Addr base = ev[0].begin;
    detail::AddrPredictor ctl_pred(base);
    detail::AddrPredictor wr_pred(base);
    std::uint64_t prev_ctl_aux = 0;
    std::uint64_t prev_wr_aux = 0;
    std::uint64_t prev_pos = 0;
    std::size_t writes = 0;
    std::size_t controls = 0;
    detail::PageSpan *const span_begin = spans.get();
    detail::PageSpan *span_end = span_begin;
    detail::PageSpan recent[16];
    // first > last: matches no span.
    std::fill(std::begin(recent), std::end(recent), detail::PageSpan{1, 0});
    for (std::size_t i = 0; i < n; ++i) {
        const Event &e = ev[i];
        if (e.kind == EventKind::Write) {
            wr_begin[writes] =
                zigzagV2((std::int64_t)(e.begin - wr_pred.predict(e.aux)));
            wr_pred.update(e.aux, e.begin);
            wr_size[writes] = e.size;
            wr_aux[writes] = zigzagV2((std::int64_t)(e.aux - prev_wr_aux));
            prev_wr_aux = e.aux;
            ++writes;
            if (e.size != 0) {
                const detail::PageSpan span{
                    e.begin / summaryPageBytes,
                    (e.begin + e.size - 1) / summaryPageBytes};
                detail::PageSpan &seen =
                    recent[span.first % std::size(recent)];
                if (seen != span) {
                    seen = span;
                    *span_end++ = span;
                }
            }
        } else {
            ctl_pos[controls] = controls == 0 ? i : i - prev_pos;
            prev_pos = i;
            ctl_kind[controls] = (std::uint64_t)e.kind;
            ctl_begin[controls] =
                zigzagV2((std::int64_t)(e.begin - ctl_pred.predict(e.aux)));
            ctl_pred.update(e.aux, e.begin);
            ctl_size[controls] = e.size;
            ctl_aux[controls] = zigzagV2((std::int64_t)(e.aux - prev_ctl_aux));
            prev_ctl_aux = e.aux;
            ++controls;
        }
    }
    detail::summarizeSpans(span_begin, (std::size_t)(span_end - span_begin),
                           gaps, runs);

    std::size_t col_bytes[detail::colCount];
    unsigned char *p = payload.get();
    for (int c = 0; c < detail::colCount; ++c) {
        const std::size_t count =
            c < detail::colWrBegin ? controls : writes;
        unsigned char *const start = p;
        p = detail::rleEncodeColumn(col[c], count, p);
        col_bytes[c] = (std::size_t)(p - start);
    }
    const std::size_t payload_bytes = (std::size_t)(p - payload.get());

    unsigned char *const rec = blocks.reserveTail(blockHeaderBound +
                                                  payload_bytes);
    unsigned char *out = rec;
    out = detail::putVarint(out, n);
    out = detail::putVarint(out, writes);
    out = detail::putVarint(out, base);
    out = detail::putVarint(out, runs.size());
    Addr prev_end = 0;
    for (const PageRun &r : runs) {
        out = detail::putVarint(out, r.firstPage - prev_end);
        out = detail::putVarint(out, r.pages);
        prev_end = r.firstPage + r.pages;
    }
    for (std::size_t b : col_bytes)
        out = detail::putVarint(out, b);
    std::memcpy(out, payload.get(), payload_bytes);
    out += payload_bytes;
    blocks.commit(out);
    index.push_back({(std::uint64_t)(out - rec), n, writes});
}

TraceWriter::TraceWriter(const WriteOptions &options)
    : enc_(std::make_unique<Encoder>(std::clamp<std::size_t>(
          options.blockEvents, 1, maxBlockEvents)))
{
}

TraceWriter::~TraceWriter() = default;

std::size_t
TraceWriter::blockEvents() const
{
    return enc_->blockEvents;
}

std::uint64_t
TraceWriter::eventCount() const
{
    return enc_->events;
}

void
TraceWriter::append(const Event *events, std::size_t n)
{
    Encoder &e = *enc_;
    EDB_ASSERT(!e.finished, "TraceWriter::append after finish");
    e.events += n;
    if (!e.pending.empty()) {
        const std::size_t take =
            std::min(n, e.blockEvents - e.pending.size());
        e.pending.insert(e.pending.end(), events, events + take);
        events += take;
        n -= take;
        if (e.pending.size() < e.blockEvents)
            return;
        e.encodeBlock(e.pending.data(), e.pending.size());
        e.pending.clear();
    }
    // Whole blocks encode straight from the caller's events.
    for (; n >= e.blockEvents; events += e.blockEvents, n -= e.blockEvents)
        e.encodeBlock(events, e.blockEvents);
    e.pending.insert(e.pending.end(), events, events + n);
}

void
TraceWriter::finish(const Trace &header, std::ostream &os)
{
    Encoder &e = *enc_;
    EDB_ASSERT(!e.finished, "TraceWriter::finish called twice");
    e.finished = true;
    if (!e.pending.empty()) {
        e.encodeBlock(e.pending.data(), e.pending.size());
        e.pending = {};
    }

    std::string head(magic, sizeof(magic));
    writeHeaderTables(head, header);
    putVarint(head, e.events);
    putVarint(head, e.blockEvents);
    const std::uint64_t index_off = head.size() + e.blocks.size();

    // The block index, the trailer and the footer follow the blocks
    // in the same buffer.
    unsigned char *out = e.blocks.reserveTail(
        10 * (3 + 3 * e.index.size()) + detail::footerBytes);
    out = detail::putVarint(out, e.index.size());
    for (const auto &entry : e.index) {
        for (std::uint64_t v : entry)
            out = detail::putVarint(out, v);
    }
    out = detail::putVarint(out, header.totalWrites);
    out = detail::putVarint(out, header.estimatedInstructions);
    for (int i = 0; i < 8; ++i)
        *out++ = (unsigned char)((index_off >> (8 * i)) & 0xff);
    std::memcpy(out, detail::footerMagic, sizeof(detail::footerMagic));
    out += sizeof(detail::footerMagic);
    e.blocks.commit(out);

    os.write(head.data(), (std::streamsize)head.size());
    os.write((const char *)e.blocks.data(),
             (std::streamsize)e.blocks.size());
    if (!os)
        throw TraceError("I/O error while writing trace");
}

namespace {

std::string
spanString(detail::SpanIn &in)
{
    const std::uint64_t n = in.varint();
    if (n > maxStringBytes) {
        in.fail("trace file string length %llu implausible",
                (unsigned long long)n);
    }
    if (n > (std::uint64_t)(in.end - in.p))
        in.fail("trace file truncated inside a string");
    std::string s((const char *)in.p, (std::size_t)n);
    in.p += n;
    return s;
}

/**
 * Reserve exactly `count` events, so materializing never regrows the
 * vector. The count is the header's, already checked against the block
 * index and every block header. A corrupt count must fail on decode,
 * not on allocation: one past physical memory is refused here, before
 * anything is allocated, and below that reserve maps but touches no
 * pages, so a corrupt later block fails having faulted in only the
 * blocks decoded before it.
 */
void
reserveEvents(std::vector<Event> &events, std::uint64_t count)
{
    const long pages = sysconf(_SC_PHYS_PAGES);
    const long page_bytes = sysconf(_SC_PAGESIZE);
    const std::uint64_t phys_bytes =
        pages > 0 && page_bytes > 0
            ? (std::uint64_t)pages * (std::uint64_t)page_bytes
            : UINT64_MAX;
    const auto tooLarge = [&] {
        parseError("trace of %llu events is too large to materialize "
                   "(%llu bytes of physical memory)",
                   (unsigned long long)count,
                   (unsigned long long)phys_bytes);
    };
    if (count > phys_bytes / sizeof(Event))
        tooLarge();
    try {
        events.reserve((std::size_t)count);
    } catch (const std::bad_alloc &) {
        tooLarge();
    }
}

/** Every block of a mapped trace, in order, into one Trace. */
Trace
materialize(const MappedTrace &m)
{
    Trace trace;
    trace.program = m.program();
    trace.registry = m.registry();
    trace.writeSites = m.writeSites();
    trace.totalWrites = m.totalWrites();
    trace.estimatedInstructions = m.estimatedInstructions();
    reserveEvents(trace.events, m.eventCount());
    for (std::size_t b = 0; b < m.blockCount(); ++b) {
        const std::size_t at = trace.events.size();
        trace.events.resize(at + (std::size_t)m.block(b).events);
        m.decodeBlock(b, trace.events.data() + at);
    }
    return trace;
}

/** Every remaining byte of `is`, named `what` in errors. */
std::vector<unsigned char>
readAll(std::istream &is, const std::string &what)
{
    std::vector<unsigned char> bytes;
    std::size_t n = 0;
    std::size_t want = 64 * 1024;
    while (true) {
        bytes.resize(n + want);
        is.read((char *)bytes.data() + n, (std::streamsize)want);
        n += (std::size_t)is.gcount();
        if (!is)
            break;
        want = n; // grow geometrically
    }
    if (is.bad())
        parseError("cannot read %s", what.c_str());
    bytes.resize(n);
    return bytes;
}

} // namespace

namespace detail {

TraceHeader
parseTraceHeader(SpanIn &in)
{
    TraceHeader h;
    const std::size_t n = (std::size_t)(in.end - in.p);
    if (n < sizeof(magic))
        failTraceAt(n, -1, "trace file truncated");
    if (std::memcmp(in.p, retiredV1Magic, sizeof(magic)) == 0) {
        throw TraceError("trace file is a retired v1 flat trace "
                         "(EDBTRC02); re-record it");
    }
    if (std::memcmp(in.p, magic, sizeof(magic)) != 0)
        parseError("not an EDB trace file (bad magic)");
    in.p += sizeof(magic);

    h.program = spanString(in);

    const std::uint64_t nfuncs = in.varint();
    if (nfuncs > maxTableEntries) {
        in.fail("trace file function count %llu implausible",
                (unsigned long long)nfuncs);
    }
    for (std::uint64_t i = 0; i < nfuncs; ++i) {
        if (h.registry.internFunction(spanString(in)) != i)
            in.fail("duplicate function name in trace file");
    }

    const std::uint64_t nsites = in.varint();
    if (nsites > maxTableEntries) {
        in.fail("trace file write-site count %llu implausible",
                (unsigned long long)nsites);
    }
    h.writeSites.reserve(
        (std::size_t)std::min<std::uint64_t>(nsites, maxStringBytes));
    for (std::uint64_t i = 0; i < nsites; ++i)
        h.writeSites.push_back(spanString(in));

    const std::uint64_t nobjs = in.varint();
    if (nobjs > maxTableEntries) {
        in.fail("trace file object count %llu implausible",
                (unsigned long long)nobjs);
    }
    for (std::uint64_t i = 0; i < nobjs; ++i) {
        const std::uint64_t kind_raw = in.varint();
        if (kind_raw > (std::uint64_t)ObjectKind::Heap)
            in.fail("trace file object kind invalid");
        const auto kind = (ObjectKind)kind_raw;
        std::string name = spanString(in);
        const std::uint64_t owner_raw = in.varint();
        const FunctionId owner = owner_raw == 0
                                     ? invalidFunction
                                     : (FunctionId)(owner_raw - 1);
        const Addr size = in.varint();
        const std::uint64_t nctx = in.varint();
        if (nctx > maxTableEntries) {
            in.fail("trace file context length %llu implausible",
                    (unsigned long long)nctx);
        }
        std::vector<FunctionId> ctx;
        ctx.reserve((std::size_t)std::min<std::uint64_t>(
            nctx, (std::uint64_t)(in.end - in.p)));
        for (std::uint64_t j = 0; j < nctx; ++j)
            ctx.push_back((FunctionId)in.varint());

        if (owner != invalidFunction && owner >= nfuncs)
            in.fail("trace file object owner out of range");
        for (FunctionId fid : ctx) {
            if (fid >= nfuncs)
                in.fail("trace file alloc context out of range");
        }

        ObjectId id;
        if (kind == ObjectKind::Heap) {
            id = h.registry.addHeapObject(name, std::move(ctx), size);
        } else {
            // A duplicate record would either collide in the interner
            // (wrong id) or trip its same-size invariant; reject both
            // as corruption before interning.
            if (h.registry.findVariable(kind, owner, name) !=
                invalidObject) {
                in.fail("duplicate object record in trace file");
            }
            id = h.registry.internVariable(kind, owner, name, size);
        }
        if (id != i)
            in.fail("object table corrupt in trace file");
    }

    h.eventCount = in.varint();
    if (h.eventCount > maxEvents) {
        in.fail("trace file event count %llu implausible",
                (unsigned long long)h.eventCount);
    }
    h.blockEvents = in.varint();
    if (h.blockEvents == 0 || h.blockEvents > maxBlockEvents) {
        in.fail("trace file block size hint %llu implausible",
                (unsigned long long)h.blockEvents);
    }
    return h;
}

} // namespace detail

void
writeTrace(const Trace &trace, std::ostream &os,
           const WriteOptions &options)
{
    TraceWriter writer(options);
    writer.append(trace.events.data(), trace.events.size());
    writer.finish(trace, os);
}

Trace
readTrace(std::istream &is)
{
    return materialize(MappedTrace(readAll(is, "trace stream")));
}

std::ofstream
openTraceFile(const std::string &path)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        parseError("cannot open '%s' for writing", path.c_str());
    return os;
}

void
closeTraceFile(std::ofstream &os, const std::string &path)
{
    os.flush();
    os.close();
    if (!os)
        parseError("I/O error while writing '%s'", path.c_str());
}

void
saveTrace(const Trace &trace, const std::string &path,
          const WriteOptions &options)
{
    std::ofstream os = openTraceFile(path);
    writeTrace(trace, os, options);
    closeTraceFile(os, path);
}

Trace
loadTrace(const std::string &path)
{
    EDB_OBS_TIMED_SPAN("trace.load", obsLoadNs);
    return materialize(MappedTrace(path, MappedTrace::Unindexed{}));
}

} // namespace edb::trace
