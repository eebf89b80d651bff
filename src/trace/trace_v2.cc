/**
 * @file
 * The mmap-backed zero-copy reader of v2 blocked traces — the only v2
 * decoder; readTrace/loadTrace materialize through it too.
 *
 * MappedTrace validates the whole container skeleton up front — header
 * tables, footer, block index, every block header, and their mutual
 * consistency — so that afterwards decodeBlock() is a pure function of
 * immutable mapped bytes: const, lock-free and callable from any
 * number of threads at once. Payload corruption is still caught, by
 * decodeBlockBody's per-event validation, on the block that carries
 * it.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "obs/obs.h"
#include "trace/index_format.h"
#include "trace/trace_io.h"
#include "trace/v2_detail.h"

#if defined(__unix__) || defined(__APPLE__)
#define EDB_TRACE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define EDB_TRACE_HAVE_MMAP 0
#endif

namespace edb::trace {

#if EDB_OBS_ENABLED
namespace {
/** Wall time of contentDigest()'s one whole-file digest per mapping. */
obs::Histogram obsDigestNs{"trace.digest_ns"};
} // namespace
#endif

void
obsNoteSkippedBlocks(std::uint64_t blocks, std::uint64_t writes)
{
#if EDB_OBS_ENABLED
    detail::obs_v2::blocksSkipped.add(blocks);
    detail::obs_v2::foldedWrites.add(writes);
#else
    (void)blocks;
    (void)writes;
#endif
}

MappedTrace::MappedTrace(const std::string &path)
    : MappedTrace(path, Unindexed{})
{
    if (traceIndexEnabled())
        openIndex();
}

MappedTrace::MappedTrace(const std::string &path, Unindexed)
{
    path_ = path;
    load(path);
    try {
        parse();
    } catch (...) {
        // parse() throwing would leak the mapping: the destructor of
        // a never-completed object does not run.
#if EDB_TRACE_HAVE_MMAP
        if (mapped_)
            ::munmap((void *)data_, (std::size_t)size_);
#endif
        throw;
    }
}

MappedTrace::MappedTrace(std::vector<unsigned char> bytes)
    : fallback_(std::move(bytes))
{
    data_ = fallback_.data();
    size_ = fallback_.size();
    parse();
}

std::uint64_t
MappedTrace::contentDigest() const
{
    std::call_once(digest_once_, [this] {
        EDB_OBS_TIMED_SPAN("trace.digest", obsDigestNs);
        content_digest_ = xxh64(data_, (std::size_t)size_);
    });
    return content_digest_;
}

namespace {

/** Half-open page interval — the unit the merge/coalesce passes
 *  trade in. */
struct PageIval
{
    Addr first;
    Addr end;
};

/** Sort + coalesce (overlapping or adjacent intervals fuse). */
void
coalesce(std::vector<PageIval> &ivals)
{
    std::sort(ivals.begin(), ivals.end(),
              [](const PageIval &a, const PageIval &b) {
                  return a.first < b.first ||
                         (a.first == b.first && a.end < b.end);
              });
    std::size_t out = 0;
    for (const PageIval &iv : ivals) {
        if (out > 0 && iv.first <= ivals[out - 1].end) {
            ivals[out - 1].end = std::max(ivals[out - 1].end, iv.end);
        } else {
            ivals[out++] = iv;
        }
    }
    ivals.resize(out);
}

/** Fuse the closest-gap neighbors until at most `cap` intervals
 *  remain. Fusing only widens coverage — the result stays a superset
 *  — which is exactly what a superblock's merged runs may be. */
void
capIntervals(std::vector<PageIval> &ivals, std::size_t cap)
{
    while (ivals.size() > cap) {
        std::size_t best = 1;
        Addr bestGap = ~(Addr)0;
        for (std::size_t i = 1; i < ivals.size(); ++i) {
            const Addr gap = ivals[i].first - ivals[i - 1].end;
            if (gap < bestGap) {
                bestGap = gap;
                best = i;
            }
        }
        ivals[best - 1].end = ivals[best].end;
        ivals.erase(ivals.begin() + (std::ptrdiff_t)best);
    }
}

} // namespace

const std::vector<MappedTrace::SuperBlock> &
MappedTrace::superBlocks() const
{
    std::call_once(supers_once_, [this] {
        const std::size_t nblocks = blocks_.size();
        supers_.resize((nblocks + superBlockSpan - 1) / superBlockSpan);
        std::vector<PageIval> ivals;
        for (std::size_t s = 0; s < supers_.size(); ++s) {
            SuperBlock &node = supers_[s];
            node.firstBlock = (std::uint32_t)(s * superBlockSpan);
            node.blocks = (std::uint32_t)(std::min(
                nblocks, (s + 1) * superBlockSpan) - node.firstBlock);
            ivals.clear();
            for (std::size_t b = node.firstBlock;
                 b < node.firstBlock + node.blocks; ++b) {
                const Block &blk = blocks_[b];
                node.writes += blk.writes;
                for (std::size_t k = 0; k < blk.runs.size(); ++k) {
                    ivals.push_back(
                        PageIval{blk.runs[k].firstPage,
                                 blk.runs[k].firstPage +
                                     blk.runs[k].pages});
                }
            }
            coalesce(ivals);
            capIntervals(ivals, maxSuperRuns);
            for (const PageIval &iv : ivals)
                node.runs.push_back(PageRun{iv.first, iv.end - iv.first});
        }
    });
    return supers_;
}

bool
MappedTrace::openIndex()
{
    if (path_.empty())
        return false; // in-memory encoding: nothing to discover
    const std::string sidecar = traceIndexPathFor(path_);
    std::ifstream probe(sidecar, std::ios::binary);
    if (!probe)
        return false; // absent is the common case, not a stale hit
    probe.close();
    return openIndex(sidecar);
}

bool
MappedTrace::openIndex(const std::string &index_path)
{
    try {
        auto idx = std::make_unique<TraceIndex>(
            loadTraceIndex(index_path));
        validateTraceIndex(*idx, *this, index_path);
        index_ = std::move(idx);
        obsNoteIndexOpen(true);
        return true;
    } catch (const TraceError &) {
        // Stale or corrupt sidecar: plan without extents, never fail
        // the trace open itself.
        index_.reset();
        obsNoteIndexOpen(false);
        return false;
    }
}

MappedTrace::~MappedTrace()
{
#if EDB_TRACE_HAVE_MMAP
    if (mapped_)
        ::munmap((void *)data_, (std::size_t)size_);
#endif
}

void
MappedTrace::load(const std::string &path)
{
#if EDB_TRACE_HAVE_MMAP
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        throw TraceError("cannot open '" + path + "' for reading");
    }
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        throw TraceError("cannot stat '" + path + "'");
    }
    size_ = (std::uint64_t)st.st_size;
    if (size_ > 0) {
        void *m = ::mmap(nullptr, (std::size_t)size_, PROT_READ,
                         MAP_PRIVATE, fd, 0);
        if (m != MAP_FAILED) {
            data_ = (const unsigned char *)m;
            mapped_ = true;
        } else {
            fallback_.resize((std::size_t)size_);
            std::size_t got = 0;
            while (got < size_) {
                ssize_t n = ::pread(fd, fallback_.data() + got,
                                    (std::size_t)(size_ - got),
                                    (off_t)got);
                if (n <= 0) {
                    ::close(fd);
                    throw TraceError("cannot read '" + path + "'");
                }
                got += (std::size_t)n;
            }
            data_ = fallback_.data();
        }
    }
    ::close(fd);
#else
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is)
        throw TraceError("cannot open '" + path + "' for reading");
    size_ = (std::uint64_t)is.tellg();
    is.seekg(0);
    fallback_.resize((std::size_t)size_);
    if (size_ > 0 &&
        !is.read((char *)fallback_.data(), (std::streamsize)size_)) {
        throw TraceError("cannot read '" + path + "'");
    }
    data_ = fallback_.data();
#endif
}

void
MappedTrace::parse()
{
    detail::SpanIn in(data_, (std::size_t)size_, 0, -1);
    detail::TraceHeader header = detail::parseTraceHeader(in);
    program_ = std::move(header.program);
    registry_ = std::move(header.registry);
    write_sites_ = std::move(header.writeSites);
    event_count_ = header.eventCount;
    const std::uint64_t first_block_off = in.offset();

    // Footer: the last footerBytes of the file, always. A file cut
    // short or carrying bytes after its footer fails right here.
    if (size_ < first_block_off + detail::footerBytes) {
        detail::failTraceAt(size_, -1,
                            "trace file truncated before the footer");
    }
    const unsigned char *foot = data_ + size_ - detail::footerBytes;
    if (std::memcmp(foot + 8, detail::footerMagic,
                    sizeof(detail::footerMagic)) != 0) {
        detail::failTraceAt(size_ - 4, -1,
                            "trace file footer magic invalid (file "
                            "truncated, or bytes after the footer)");
    }
    std::uint64_t index_off = 0;
    for (int i = 0; i < 8; ++i)
        index_off |= (std::uint64_t)foot[i] << (8 * i);
    if (index_off < first_block_off ||
        index_off >= size_ - detail::footerBytes) {
        detail::failTraceAt(size_ - detail::footerBytes, -1,
                            "trace file footer index offset %llu "
                            "implausible",
                            (unsigned long long)index_off);
    }

    // Block index + trailer.
    detail::SpanIn idx(data_ + index_off,
                       (std::size_t)(size_ - detail::footerBytes -
                                     index_off),
                       index_off, -1);
    const std::uint64_t nblocks = idx.varint();
    if (nblocks > event_count_) {
        idx.fail("trace file block index count %llu implausible",
                 (unsigned long long)nblocks);
    }
    blocks_.reserve((std::size_t)nblocks);
    std::uint64_t off = first_block_off;
    std::uint64_t sum_events = 0;
    std::uint64_t sum_writes = 0;
    for (std::uint64_t i = 0; i < nblocks; ++i) {
        Block b;
        b.offset = off;
        b.bytes = idx.varint();
        b.events = idx.varint();
        b.writes = idx.varint();
        b.firstEvent = sum_events;
        if (b.bytes > index_off - off) {
            idx.fail("trace file block %llu overruns the index",
                     (unsigned long long)i);
        }
        off += b.bytes;
        sum_events += b.events;
        sum_writes += b.writes;
        blocks_.push_back(std::move(b));
    }
    if (off != index_off) {
        idx.fail("trace file block records do not abut the index");
    }
    if (sum_events != event_count_) {
        idx.fail("trace file block index events (%llu) disagree with "
                 "the header (%llu)",
                 (unsigned long long)sum_events,
                 (unsigned long long)event_count_);
    }
    total_writes_ = idx.varint();
    estimated_instructions_ = idx.varint();
    if (sum_writes != total_writes_) {
        idx.fail("trace file write-count trailer (%llu) disagrees "
                 "with the block index (%llu)",
                 (unsigned long long)total_writes_,
                 (unsigned long long)sum_writes);
    }
    if (!idx.empty()) {
        idx.fail("trace file has trailing bytes before the footer");
    }

    // Every block header, eagerly: summaries and event counts must be
    // trustworthy before any skip decision reads them.
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        Block &b = blocks_[i];
        detail::SpanIn sp(data_ + b.offset, (std::size_t)b.bytes,
                          b.offset, (std::int64_t)i);
        detail::BlockHeader h = detail::parseBlockHeader(sp, b.events);
        if (h.events != b.events || h.writes != b.writes) {
            sp.fail("trace file block header disagrees with the "
                    "block index");
        }
        const std::uint64_t header_bytes =
            (std::uint64_t)(sp.p - sp.start);
        if (header_bytes + h.payloadBytes() != b.bytes) {
            sp.fail("trace file block record size disagrees with "
                    "its header");
        }
        b.base = h.base;
        b.payloadOff = b.offset + header_bytes;
        for (int c = 0; c < detail::colCount; ++c)
            b.colBytes[c] = h.colBytes[c];
        b.runs = h.runs;
        largest_block_ =
            std::max(largest_block_, (std::size_t)h.events);
    }
}

namespace {

detail::BlockHeader
headerOf(const MappedTrace::Block &b)
{
    detail::BlockHeader h;
    h.events = b.events;
    h.writes = b.writes;
    h.base = b.base;
    h.runs = b.runs;
    for (int c = 0; c < detail::colCount; ++c)
        h.colBytes[c] = b.colBytes[c];
    return h;
}

} // namespace

void
MappedTrace::decodeBlock(std::size_t i, Event *out) const
{
    // Route through the batched decoder (bit-identical, faster) and
    // scatter back to the interleaved shape. thread_local keeps this
    // const member callable from any number of threads at once.
    static thread_local WriteBatch scratch;
    decodeBlockBatchInto(i, scratch);
    detail::scatterBatch(scratch, out);
}

void
MappedTrace::decodeBlockBatchInto(std::size_t i, WriteBatch &out) const
{
    const Block &b = blocks_[i];
    const detail::BlockHeader h = headerOf(b);
    detail::decodeBlockBatchBody(h, data_ + b.payloadOff, b.payloadOff,
                                 (std::int64_t)i,
                                 registry_.objectCount(), out);
#if EDB_OBS_ENABLED
    detail::obs_v2::blocksDecoded.inc();
    detail::obs_v2::bytesEncoded.add(b.bytes);
    detail::obs_v2::bytesRaw.add(b.events * sizeof(Event));
#endif
}

void
MappedTrace::decodeBlockBatch(std::size_t i, WriteBatch &out) const
{
    decodeBlockBatchInto(i, out);
}

void
MappedTrace::decodeBlockReference(std::size_t i, Event *out) const
{
    const Block &b = blocks_[i];
    const detail::BlockHeader h = headerOf(b);
    detail::decodeBlockBody(h, data_ + b.payloadOff, b.payloadOff,
                            (std::int64_t)i, registry_.objectCount(),
                            out);
}

void
MappedTrace::decodeBlockControl(std::size_t i, Event *out) const
{
    decodeBlockControl(i, out, nullptr);
}

void
MappedTrace::decodeBlockControl(std::size_t i, Event *out,
                                std::uint32_t *pos) const
{
    const Block &b = blocks_[i];
    const detail::BlockHeader h = headerOf(b);
    detail::decodeBlockControl(h, data_ + b.payloadOff, b.payloadOff,
                               (std::int64_t)i,
                               registry_.objectCount(), out, pos);
#if EDB_OBS_ENABLED
    // Accounted as encoded bytes actually read: the control group
    // plus the record header, not the untouched write columns.
    detail::obs_v2::bytesEncoded.add(b.bytes - h.payloadBytes() +
                                     h.controlBytes());
    detail::obs_v2::bytesRaw.add(h.controls() * sizeof(Event));
#endif
}

} // namespace edb::trace
