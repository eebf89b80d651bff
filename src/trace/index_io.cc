/**
 * @file
 * Build, serialize, load and cross-validate the `.edbi` sidecar index
 * (index_format.h; wire layout in docs/FORMAT.md).
 *
 * The loader is deliberately paranoid: sidecars are untrusted
 * artifacts that steer planners, so every field is bounds- and
 * order-checked as it is read, the whole payload is pinned by a
 * trailing XXH64 self-digest, and validateTraceIndex() re-derives
 * every structure's invariant from the mapped block headers before a
 * planner may consult it. A sidecar that fails anything raises
 * TraceError with the failing byte offset — recoverable, never a
 * crash, and auto-discovery (MappedTrace::openIndex) downgrades it to
 * a counted fallback: the planner then needs every control-bearing
 * block.
 */

#include <bit>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "obs/obs.h"
#include "trace/index_format.h"
#include "trace/trace_io.h"
#include "trace/v2_detail.h"

namespace edb::trace {

#if EDB_OBS_ENABLED
namespace {
/** Sidecar indexes attached to a mapping (load + validate passed). */
obs::Counter obsIdxHits{"trace.idx.hits"};
/** Sidecars present but rejected (stale digest, corrupt, wrong
 *  version) and silently downgraded to the linear scan. */
obs::Counter obsIdxStale{"trace.idx.stale"};
/** Blocks surviving an index candidate/relevance pre-pass. */
obs::Counter obsIdxCandidate{"trace.idx.blocks_candidate"};
/** Blocks whose per-block probe or control decode the index
 *  elided outright. */
obs::Counter obsIdxElided{"trace.idx.blocks_elided"};
} // namespace
#endif

void
obsNoteIndexPlan(std::uint64_t candidate, std::uint64_t elided)
{
#if EDB_OBS_ENABLED
    obsIdxCandidate.add(candidate);
    obsIdxElided.add(elided);
#else
    (void)candidate;
    (void)elided;
#endif
}

void
obsNoteIndexOpen(bool attached)
{
#if EDB_OBS_ENABLED
    if (attached)
        obsIdxHits.inc();
    else
        obsIdxStale.inc();
#else
    (void)attached;
#endif
}

std::string
traceIndexPathFor(const std::string &tracePath)
{
    return tracePath + ".edbi";
}

bool
traceIndexEnabled()
{
    const char *env = std::getenv("EDB_TRACE_INDEX");
    if (env == nullptr)
        return true;
    return std::strcmp(env, "off") != 0 && std::strcmp(env, "0") != 0;
}

namespace {

constexpr std::uint64_t xxhP1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t xxhP2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t xxhP3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t xxhP4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t xxhP5 = 0x27D4EB2F165667C5ull;

/** Little-endian loads through memcpy: no alignment requirement. */
inline std::uint64_t
load64le(const unsigned char *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap64(v);
    return v;
}

inline std::uint64_t
load32le(const unsigned char *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    if constexpr (std::endian::native == std::endian::big)
        v = __builtin_bswap32(v);
    return v;
}

inline std::uint64_t
xxhRound(std::uint64_t acc, std::uint64_t input)
{
    return std::rotl(acc + input * xxhP2, 31) * xxhP1;
}

inline std::uint64_t
xxhMerge(std::uint64_t h, std::uint64_t lane)
{
    return (h ^ xxhRound(0, lane)) * xxhP1 + xxhP4;
}

} // namespace

std::uint64_t
xxh64(const unsigned char *data, std::size_t n, std::uint64_t seed)
{
    const unsigned char *p = data;
    const unsigned char *const end = data + n;
    std::uint64_t h;
    if (n >= 32) {
        // Four independent lanes: the multiplies of one stripe do not
        // wait on each other.
        std::uint64_t v1 = seed + xxhP1 + xxhP2;
        std::uint64_t v2 = seed + xxhP2;
        std::uint64_t v3 = seed;
        std::uint64_t v4 = seed - xxhP1;
        const unsigned char *const lastStripe = end - 32;
        do {
            v1 = xxhRound(v1, load64le(p));
            v2 = xxhRound(v2, load64le(p + 8));
            v3 = xxhRound(v3, load64le(p + 16));
            v4 = xxhRound(v4, load64le(p + 24));
            p += 32;
        } while (p <= lastStripe);
        h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
            std::rotl(v4, 18);
        h = xxhMerge(h, v1);
        h = xxhMerge(h, v2);
        h = xxhMerge(h, v3);
        h = xxhMerge(h, v4);
    } else {
        h = seed + xxhP5;
    }
    h += (std::uint64_t)n;

    for (; end - p >= 8; p += 8)
        h = std::rotl(h ^ xxhRound(0, load64le(p)), 27) * xxhP1 + xxhP4;
    if (end - p >= 4) {
        h = std::rotl(h ^ load32le(p) * xxhP1, 23) * xxhP2 + xxhP3;
        p += 4;
    }
    for (; p < end; ++p)
        h = std::rotl(h ^ *p * xxhP5, 11) * xxhP1;

    h ^= h >> 33;
    h *= xxhP2;
    h ^= h >> 29;
    h *= xxhP3;
    h ^= h >> 32;
    return h;
}

namespace {

/** Byte-vector writer with varint/raw primitives; the serialization
 *  twin of v2_detail's SpanIn. */
struct ByteOut
{
    std::vector<unsigned char> bytes;

    void
    varint(std::uint64_t v)
    {
        while (v >= 0x80) {
            bytes.push_back((unsigned char)(v | 0x80));
            v >>= 7;
        }
        bytes.push_back((unsigned char)v);
    }

    void
    u64le(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes.push_back((unsigned char)(v >> (8 * i)));
    }
};

} // namespace

TraceIndex
buildTraceIndex(const MappedTrace &trace)
{
    TraceIndex idx;
    idx.traceBytes = trace.fileBytes();
    idx.traceDigest = trace.contentDigest();
    idx.blockCount = trace.blockCount();
    idx.eventCount = trace.eventCount();
    idx.objectCount = trace.registry().objectCount();

    // Decode each block's control columns once.
    std::vector<Event> ctlbuf(trace.largestBlockEvents());
    std::vector<IndexExtent> byObject(
        (std::size_t)idx.objectCount);
    for (std::size_t b = 0; b < trace.blockCount(); ++b) {
        const MappedTrace::Block &blk = trace.block(b);
        const std::size_t ctl = (std::size_t)blk.controls();
        if (ctl == 0)
            continue;
        trace.decodeBlockControl(b, ctlbuf.data());
        for (std::size_t k = 0; k < ctl; ++k) {
            const std::uint32_t obj = ctlbuf[k].aux;
            IndexExtent &e = byObject[obj];
            if (e.count == 0) {
                e.object = obj;
                e.firstBlock = (std::uint32_t)b;
            }
            e.lastBlock = (std::uint32_t)b;
            ++e.count;
            if (e.blocks.empty() || e.blocks.back() != (std::uint32_t)b)
                e.blocks.push_back((std::uint32_t)b);
        }
    }
    for (IndexExtent &e : byObject) {
        if (e.count > 0)
            idx.extents.push_back(std::move(e));
    }
    return idx;
}

void
saveTraceIndex(TraceIndex &index, const std::string &path)
{
    ByteOut out;
    out.bytes.reserve(4096);
    out.bytes.insert(out.bytes.end(), traceIndexMagic,
                     traceIndexMagic + 4);
    out.varint(index.version);
    out.u64le(index.traceDigest);
    out.varint(index.traceBytes);
    out.varint(index.blockCount);
    out.varint(index.eventCount);
    out.varint(index.objectCount);
    const std::size_t headerEnd = out.bytes.size();

    // Extents.
    out.varint(index.extents.size());
    std::uint32_t prevObj = 0;
    for (std::size_t i = 0; i < index.extents.size(); ++i) {
        const IndexExtent &e = index.extents[i];
        out.varint(i == 0 ? e.object : e.object - prevObj - 1);
        prevObj = e.object;
        out.varint(e.firstBlock);
        out.varint(e.lastBlock - e.firstBlock);
        out.varint(e.count);
        out.varint(e.blocks.size());
        std::uint32_t prevBlock = 0;
        for (std::size_t k = 0; k < e.blocks.size(); ++k) {
            out.varint(k == 0 ? e.blocks[k] - e.firstBlock
                              : e.blocks[k] - prevBlock - 1);
            prevBlock = e.blocks[k];
        }
    }
    const std::size_t extentsEnd = out.bytes.size();

    // Self-digest over everything after the magic.
    out.u64le(xxh64(out.bytes.data() + 4, extentsEnd - 4));

    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os ||
        !os.write((const char *)out.bytes.data(),
                  (std::streamsize)out.bytes.size())) {
        throw TraceError("cannot write sidecar index '" + path + "'");
    }

    // Mirror the section byte sizes `info` reports after a load.
    index.bytesHeader = headerEnd;
    index.bytesExtents = extentsEnd - headerEnd;
    index.fileBytes = out.bytes.size();
}

TraceIndex
loadTraceIndex(const std::string &path)
{
    // A directory opens as a stream too, and reports no size.
    std::error_code ec;
    if (!std::filesystem::is_regular_file(path, ec)) {
        throw TraceError("sidecar index '" + path +
                         "' is not a regular file");
    }
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    const std::streamoff size = is ? (std::streamoff)is.tellg() : -1;
    if (size < 0) {
        throw TraceError("cannot open sidecar index '" + path +
                         "' for reading");
    }
    is.seekg(0);
    std::vector<unsigned char> bytes((std::size_t)size);
    if (size > 0 &&
        !is.read((char *)bytes.data(), (std::streamsize)size)) {
        throw TraceError("cannot read sidecar index '" + path + "'");
    }

    if (bytes.size() < 12 ||
        std::memcmp(bytes.data(), traceIndexMagic, 4) != 0) {
        detail::failTraceAt(0, -1,
                            "sidecar index magic invalid (not an "
                            ".edbi file)");
    }
    const std::size_t payloadEnd = bytes.size() - 8;
    detail::SpanIn in(bytes.data() + 4, payloadEnd - 4, 4, -1);
    TraceIndex idx;
    // The version comes first: an older file's self-digest was
    // computed by that version's digest function.
    idx.version = in.varint();
    if (idx.version != traceIndexVersion) {
        in.fail("sidecar index version %llu unsupported (reader "
                "speaks %llu)",
                (unsigned long long)idx.version,
                (unsigned long long)traceIndexVersion);
    }
    // Self-digest: the last 8 bytes pin everything after the magic.
    std::uint64_t stored = 0;
    for (int i = 0; i < 8; ++i)
        stored |= (std::uint64_t)bytes[payloadEnd + (std::size_t)i]
                  << (8 * i);
    const std::uint64_t computed =
        xxh64(bytes.data() + 4, payloadEnd - 4);
    if (stored != computed) {
        detail::failTraceAt(payloadEnd, -1,
                            "sidecar index self-digest mismatch "
                            "(stored %016llx, computed %016llx)",
                            (unsigned long long)stored,
                            (unsigned long long)computed);
    }
    if (in.end - in.p < 8)
        in.fail("sidecar index truncated inside the trace digest");
    for (int i = 0; i < 8; ++i)
        idx.traceDigest |= (std::uint64_t)in.p[i] << (8 * i);
    in.p += 8;
    idx.traceBytes = in.varint();
    idx.blockCount = in.varint();
    idx.eventCount = in.varint();
    idx.objectCount = in.varint();
    if (idx.blockCount > idx.eventCount)
        in.fail("sidecar index block count %llu implausible",
                (unsigned long long)idx.blockCount);
    idx.bytesHeader = in.offset();

    // Extents.
    const std::uint64_t nextents = in.varint();
    if (nextents > idx.objectCount) {
        in.fail("sidecar index extent count %llu exceeds %llu "
                "objects",
                (unsigned long long)nextents,
                (unsigned long long)idx.objectCount);
    }
    // Every count below is the file's own claim: bound each reserve
    // by the bytes left (an extent takes at least 5, a block entry at
    // least 1) before it can size an allocation.
    if (nextents > (std::uint64_t)(in.end - in.p) / 5) {
        in.fail("sidecar index extent count %llu overruns the file",
                (unsigned long long)nextents);
    }
    idx.extents.reserve((std::size_t)nextents);
    std::uint32_t prevObj = 0;
    for (std::uint64_t i = 0; i < nextents; ++i) {
        IndexExtent e;
        const std::uint64_t objGap = in.varint();
        const std::uint64_t obj =
            i == 0 ? objGap : prevObj + 1 + objGap;
        if (obj >= idx.objectCount) {
            in.fail("sidecar index extent names object %llu of %llu",
                    (unsigned long long)obj,
                    (unsigned long long)idx.objectCount);
        }
        e.object = (std::uint32_t)obj;
        prevObj = e.object;
        e.firstBlock = (std::uint32_t)in.varint();
        e.lastBlock = e.firstBlock + (std::uint32_t)in.varint();
        e.count = in.varint();
        const std::uint64_t nb = in.varint();
        if (e.lastBlock >= idx.blockCount || nb == 0 ||
            nb > e.count || e.count > idx.eventCount) {
            in.fail("sidecar index extent of object %llu "
                    "implausible",
                    (unsigned long long)obj);
        }
        if (nb > (std::uint64_t)(in.end - in.p)) {
            in.fail("sidecar index extent block list of object %llu "
                    "overruns the file",
                    (unsigned long long)obj);
        }
        e.blocks.reserve((std::size_t)nb);
        std::uint32_t prevBlock = 0;
        for (std::uint64_t k = 0; k < nb; ++k) {
            const std::uint64_t b =
                k == 0 ? e.firstBlock + in.varint()
                       : prevBlock + 1 + in.varint();
            if (b > e.lastBlock) {
                in.fail("sidecar index extent block list of object "
                        "%llu overruns its extent",
                        (unsigned long long)obj);
            }
            e.blocks.push_back((std::uint32_t)b);
            prevBlock = (std::uint32_t)b;
        }
        if (e.blocks.front() != e.firstBlock ||
            e.blocks.back() != e.lastBlock) {
            in.fail("sidecar index extent bounds of object %llu "
                    "disagree with its block list",
                    (unsigned long long)obj);
        }
        idx.extents.push_back(std::move(e));
    }
    if (!in.empty())
        in.fail("sidecar index has trailing bytes");
    idx.bytesExtents = in.offset() - idx.bytesHeader;
    idx.fileBytes = bytes.size();
    return idx;
}

namespace {

[[noreturn]] void
failValidate(const std::string &path, const std::string &what)
{
    throw TraceError("sidecar index '" + path + "' rejected: " +
                     what);
}

} // namespace

void
validateTraceIndex(const TraceIndex &index, const MappedTrace &trace,
                   const std::string &path)
{
    if (index.traceBytes != trace.fileBytes() ||
        index.traceDigest != trace.contentDigest()) {
        failValidate(path,
                     "stale (trace digest mismatch; re-run "
                     "edb-trace index)");
    }
    if (index.blockCount != trace.blockCount() ||
        index.eventCount != trace.eventCount() ||
        index.objectCount != trace.registry().objectCount()) {
        failValidate(path, "block/event/object counts disagree with "
                           "the trace");
    }

    // Extents: every control event accounted for, referenced blocks
    // really carry controls, and the union covers exactly the
    // control-bearing blocks.
    std::uint64_t extentControls = 0;
    std::vector<bool> referenced(trace.blockCount(), false);
    std::uint32_t prevObj = 0;
    bool first = true;
    for (const IndexExtent &e : index.extents) {
        if (!first && e.object <= prevObj)
            failValidate(path, "extents out of object order");
        first = false;
        prevObj = e.object;
        extentControls += e.count;
        for (std::uint32_t b : e.blocks) {
            if (trace.block(b).controls() == 0) {
                failValidate(path,
                             "extent of object " +
                                 std::to_string(e.object) +
                                 " references the pure-write block " +
                                 std::to_string(b));
            }
            referenced[b] = true;
        }
    }
    if (extentControls != trace.eventCount() - trace.totalWrites()) {
        failValidate(path, "extent control totals disagree with the "
                           "block index");
    }
    for (std::size_t b = 0; b < trace.blockCount(); ++b) {
        if ((trace.block(b).controls() > 0) != referenced[b]) {
            failValidate(path, "extent coverage disagrees with "
                               "block " +
                                   std::to_string(b));
        }
    }
}

} // namespace edb::trace
