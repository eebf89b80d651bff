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
#include <cstring>
#include <fstream>
#include <istream>
#include <new>
#include <ostream>

#include <unistd.h>

#include "obs/obs.h"
#include "trace/v2_detail.h"

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

/**
 * Output wrapper counting every byte written, so the writer knows
 * the index offset for the footer without relying on tellp() (which
 * pipes and some string streams do not support).
 */
struct CountedOut
{
    std::ostream &os;
    std::uint64_t n = 0;

    void
    byte(char c)
    {
        os.put(c);
        ++n;
    }

    void
    bytes(const char *p, std::size_t len)
    {
        os.write(p, (std::streamsize)len);
        n += len;
    }

    void
    varint(std::uint64_t v)
    {
        while (v >= 0x80) {
            byte((char)((v & 0x7f) | 0x80));
            v >>= 7;
        }
        byte((char)v);
    }

    void
    str(const std::string &s)
    {
        varint(s.size());
        bytes(s.data(), s.size());
    }
};

/** Zig-zag encode a signed delta into an unsigned varint payload. */
std::uint64_t
zigzag(std::int64_t v)
{
    return ((std::uint64_t)v << 1) ^ (std::uint64_t)(v >> 63);
}

/** The string/object tables of the file header. */
void
writeHeaderTables(CountedOut &out, const Trace &trace)
{
    out.str(trace.program);

    // Function table.
    out.varint(trace.registry.functionCount());
    for (const auto &name : trace.registry.functions())
        out.str(name);

    // Write-site table.
    out.varint(trace.writeSites.size());
    for (const auto &site : trace.writeSites)
        out.str(site);

    // Object table.
    out.varint(trace.registry.objectCount());
    for (const auto &obj : trace.registry.objects()) {
        out.varint((std::uint64_t)obj.kind);
        out.str(obj.name);
        out.varint(obj.owner == invalidFunction
                       ? 0
                       : (std::uint64_t)obj.owner + 1);
        out.varint(obj.size);
        out.varint(obj.allocContext.size());
        for (FunctionId f : obj.allocContext)
            out.varint(f);
    }
}

void
writeContainer(const Trace &trace, std::ostream &os,
               std::size_t block_events)
{
    CountedOut out{os};
    out.bytes(magic, sizeof(magic));
    writeHeaderTables(out, trace);
    out.varint(trace.events.size());
    out.varint(block_events);

    // (record bytes, events, writes) per block, for the index.
    std::vector<std::array<std::uint64_t, 3>> index;
    std::vector<std::uint64_t> colv[detail::colCount];
    std::string cols[detail::colCount];
    std::string rec;
    util::SmallVec<PageRun, maxSummaryRuns> runs;

    for (std::size_t pos = 0; pos < trace.events.size();
         pos += block_events) {
        const std::size_t n =
            std::min(block_events, trace.events.size() - pos);
        const Event *ev = trace.events.data() + pos;

        std::uint64_t writes = 0;
        for (std::size_t i = 0; i < n; ++i)
            writes += ev[i].kind == EventKind::Write;
        const Addr base = ev[0].begin;
        detail::summarizeWrites(ev, n, runs);

        // Split the block into the two column groups (v2_detail.h):
        // control events carry their in-block positions so the
        // decoder can re-interleave, and each group runs its own
        // begin predictor and aux delta chain.
        for (auto &c : colv)
            c.clear();
        detail::AddrPredictor ctl_pred(base);
        detail::AddrPredictor wr_pred(base);
        std::uint64_t prev_ctl_aux = 0;
        std::uint64_t prev_wr_aux = 0;
        std::uint64_t prev_pos = 0;
        bool first_ctl = true;
        for (std::size_t i = 0; i < n; ++i) {
            const Event &e = ev[i];
            if (e.kind == EventKind::Write) {
                colv[detail::colWrBegin].push_back(zigzag(
                    (std::int64_t)(e.begin -
                                   wr_pred.predict(e.aux))));
                wr_pred.update(e.aux, e.begin);
                colv[detail::colWrSize].push_back(e.size);
                colv[detail::colWrAux].push_back(zigzag(
                    (std::int64_t)(e.aux - prev_wr_aux)));
                prev_wr_aux = e.aux;
            } else {
                colv[detail::colCtlPos].push_back(
                    first_ctl ? i : i - prev_pos);
                first_ctl = false;
                prev_pos = i;
                colv[detail::colCtlKind].push_back(
                    (std::uint64_t)e.kind);
                colv[detail::colCtlBegin].push_back(zigzag(
                    (std::int64_t)(e.begin -
                                   ctl_pred.predict(e.aux))));
                ctl_pred.update(e.aux, e.begin);
                colv[detail::colCtlSize].push_back(e.size);
                colv[detail::colCtlAux].push_back(zigzag(
                    (std::int64_t)(e.aux - prev_ctl_aux)));
                prev_ctl_aux = e.aux;
            }
        }
        for (int c = 0; c < detail::colCount; ++c) {
            cols[c].clear();
            detail::rleEncodeColumn(colv[c].data(), colv[c].size(),
                                    cols[c]);
        }

        rec.clear();
        detail::bufVarint(rec, n);
        detail::bufVarint(rec, writes);
        detail::bufVarint(rec, base);
        detail::bufVarint(rec, runs.size());
        Addr prev_end = 0;
        for (const PageRun &r : runs) {
            detail::bufVarint(rec, r.firstPage - prev_end);
            detail::bufVarint(rec, r.pages);
            prev_end = r.firstPage + r.pages;
        }
        for (int c = 0; c < detail::colCount; ++c)
            detail::bufVarint(rec, cols[c].size());
        for (int c = 0; c < detail::colCount; ++c)
            rec += cols[c];

        out.bytes(rec.data(), rec.size());
        index.push_back({rec.size(), n, writes});
    }

    const std::uint64_t index_off = out.n;
    out.varint(index.size());
    for (const auto &e : index) {
        out.varint(e[0]);
        out.varint(e[1]);
        out.varint(e[2]);
    }
    out.varint(trace.totalWrites);
    out.varint(trace.estimatedInstructions);

    char foot[detail::footerBytes];
    for (int i = 0; i < 8; ++i)
        foot[i] = (char)((index_off >> (8 * i)) & 0xff);
    std::memcpy(foot + 8, detail::footerMagic,
                sizeof(detail::footerMagic));
    out.bytes(foot, sizeof(foot));
    if (!os)
        throw TraceError("I/O error while writing trace");
}

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
    const std::size_t block_events = std::clamp<std::size_t>(
        options.blockEvents, 1, maxBlockEvents);
    writeContainer(trace, os, block_events);
}

Trace
readTrace(std::istream &is)
{
    return materialize(MappedTrace(readAll(is, "trace stream")));
}

void
saveTrace(const Trace &trace, const std::string &path,
          const WriteOptions &options)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        parseError("cannot open '%s' for writing", path.c_str());
    writeTrace(trace, os, options);
}

Trace
loadTrace(const std::string &path)
{
    EDB_OBS_TIMED_SPAN("trace.load", obsLoadNs);
    return materialize(MappedTrace(path, MappedTrace::Unindexed{}));
}

} // namespace edb::trace
