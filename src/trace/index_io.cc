/**
 * @file
 * Build, serialize, load and cross-validate the `.edbi` sidecar index
 * (index_format.h; wire layout in docs/FORMAT.md).
 *
 * The loader is deliberately paranoid: sidecars are untrusted
 * artifacts that steer planners, so every field is bounds- and
 * order-checked as it is read, the whole payload is pinned by a
 * trailing FNV-1a self-digest, and validateTraceIndex() re-derives
 * every structure's invariant from the mapped block headers before a
 * planner may consult it. A sidecar that fails anything raises
 * TraceError with the failing byte offset — recoverable, never a
 * crash, and auto-discovery (MappedTrace::openIndex) downgrades it to
 * a counted fallback onto the linear scan.
 */

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
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
 *  — which is exactly what a tree node's merged runs may be. */
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

void
nodeRunsFromIntervals(const std::vector<PageIval> &ivals,
                      IndexNode &node)
{
    node.runs.clear();
    for (const PageIval &iv : ivals)
        node.runs.push_back(PageRun{iv.first, iv.end - iv.first});
}

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

    void byte(unsigned char b) { bytes.push_back(b); }

    void
    u64le(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes.push_back((unsigned char)(v >> (8 * i)));
    }
};

void
writeNode(ByteOut &out, const IndexNode &node)
{
    out.varint(node.events);
    out.varint(node.writes);
    out.varint(node.controls);
    out.varint(node.runs.size());
    Addr prevEnd = 0;
    for (std::size_t i = 0; i < node.runs.size(); ++i) {
        const PageRun &r = node.runs[i];
        out.varint(r.firstPage - prevEnd);
        out.varint(r.pages);
        prevEnd = r.firstPage + r.pages;
    }
}

/** Parse one tree node; `spanBlocks`/`firstBlock` come from the
 *  node's position, not the wire. */
IndexNode
readNode(detail::SpanIn &in, std::uint32_t firstBlock,
         std::uint32_t blocks, std::uint64_t eventCount)
{
    IndexNode node;
    node.firstBlock = firstBlock;
    node.blocks = blocks;
    node.events = in.varint();
    node.writes = in.varint();
    node.controls = in.varint();
    if (node.writes > node.events || node.controls > node.events ||
        node.writes + node.controls != node.events ||
        node.events > eventCount) {
        in.fail("sidecar index node counts implausible");
    }
    const std::uint64_t nruns = in.varint();
    if (nruns > maxIndexRuns)
        in.fail("sidecar index node carries %llu runs (cap %zu)",
                (unsigned long long)nruns, maxIndexRuns);
    Addr prevEnd = 0;
    for (std::uint64_t i = 0; i < nruns; ++i) {
        const Addr gap = in.varint();
        const Addr pages = in.varint();
        const Addr first = prevEnd + gap;
        if (pages == 0)
            in.fail("sidecar index node run is empty");
        if (first + pages < first)
            in.fail("sidecar index node run overflows");
        node.runs.push_back(PageRun{first, pages});
        prevEnd = first + pages;
    }
    return node;
}

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

    // --- Tree: superblocks of 64 blocks, then the root over them.
    const std::size_t nblocks = trace.blockCount();
    const std::size_t nsupers =
        (nblocks + traceIndexSuperSpan - 1) / traceIndexSuperSpan;
    std::vector<PageIval> ivals, rootIvals;
    for (std::size_t s = 0; s < nsupers; ++s) {
        IndexNode node;
        node.firstBlock = (std::uint32_t)(s * traceIndexSuperSpan);
        node.blocks = (std::uint32_t)(std::min(
            nblocks, (s + 1) * traceIndexSuperSpan) -
            node.firstBlock);
        ivals.clear();
        for (std::size_t b = node.firstBlock;
             b < node.firstBlock + node.blocks; ++b) {
            const MappedTrace::Block &blk = trace.block(b);
            node.events += blk.events;
            node.writes += blk.writes;
            node.controls += blk.controls();
            for (std::size_t k = 0; k < blk.runs.size(); ++k) {
                ivals.push_back(
                    PageIval{blk.runs[k].firstPage,
                             blk.runs[k].firstPage +
                                 blk.runs[k].pages});
            }
        }
        coalesce(ivals);
        capIntervals(ivals, maxIndexRuns);
        nodeRunsFromIntervals(ivals, node);
        idx.root.events += node.events;
        idx.root.writes += node.writes;
        idx.root.controls += node.controls;
        for (const PageIval &iv : ivals)
            rootIvals.push_back(iv);
        idx.supers.push_back(std::move(node));
    }
    idx.root.firstBlock = 0;
    idx.root.blocks = (std::uint32_t)nblocks;
    coalesce(rootIvals);
    capIntervals(rootIvals, maxIndexRuns);
    nodeRunsFromIntervals(rootIvals, idx.root);

    // --- Extents: decode each block's control columns once.
    std::vector<Event> ctlbuf(trace.largestBlockEvents());
    std::vector<IndexExtent> byObject(
        (std::size_t)idx.objectCount);
    for (std::size_t b = 0; b < nblocks; ++b) {
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

    // Tree.
    out.varint(traceIndexSuperShift);
    out.varint(index.supers.size());
    for (const IndexNode &node : index.supers)
        writeNode(out, node);
    writeNode(out, index.root);
    const std::size_t treeEnd = out.bytes.size();

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
    out.u64le(fnv1a64(out.bytes.data() + 4, extentsEnd - 4));

    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os ||
        !os.write((const char *)out.bytes.data(),
                  (std::streamsize)out.bytes.size())) {
        throw TraceError("cannot write sidecar index '" + path + "'");
    }

    // Mirror the section byte sizes `info` reports after a load.
    index.bytesHeader = headerEnd;
    index.bytesTree = treeEnd - headerEnd;
    index.bytesExtents = extentsEnd - treeEnd;
    index.fileBytes = out.bytes.size();
}

TraceIndex
loadTraceIndex(const std::string &path)
{
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is) {
        throw TraceError("cannot open sidecar index '" + path +
                         "' for reading");
    }
    const std::streamoff size = is.tellg();
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
    // Self-digest: the last 8 bytes pin everything after the magic.
    const std::size_t payloadEnd = bytes.size() - 8;
    std::uint64_t stored = 0;
    for (int i = 0; i < 8; ++i)
        stored |= (std::uint64_t)bytes[payloadEnd + (std::size_t)i]
                  << (8 * i);
    const std::uint64_t computed =
        fnv1a64(bytes.data() + 4, payloadEnd - 4);
    if (stored != computed) {
        detail::failTraceAt(payloadEnd, -1,
                            "sidecar index self-digest mismatch "
                            "(stored %016llx, computed %016llx)",
                            (unsigned long long)stored,
                            (unsigned long long)computed);
    }

    detail::SpanIn in(bytes.data() + 4, payloadEnd - 4, 4, -1);
    TraceIndex idx;
    idx.version = in.varint();
    if (idx.version != traceIndexVersion) {
        in.fail("sidecar index version %llu unsupported (reader "
                "speaks %llu)",
                (unsigned long long)idx.version,
                (unsigned long long)traceIndexVersion);
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

    // Tree.
    const std::uint64_t superShift = in.varint();
    if (superShift != traceIndexSuperShift) {
        in.fail("sidecar index superblock shift %llu unsupported",
                (unsigned long long)superShift);
    }
    const std::uint64_t nsupers = in.varint();
    const std::uint64_t expectSupers =
        (idx.blockCount + traceIndexSuperSpan - 1) /
        traceIndexSuperSpan;
    if (nsupers != expectSupers) {
        in.fail("sidecar index superblock count %llu disagrees with "
                "%llu blocks",
                (unsigned long long)nsupers,
                (unsigned long long)idx.blockCount);
    }
    idx.supers.reserve((std::size_t)nsupers);
    for (std::uint64_t s = 0; s < nsupers; ++s) {
        const std::uint32_t firstBlock =
            (std::uint32_t)(s * traceIndexSuperSpan);
        const std::uint32_t blocks = (std::uint32_t)(std::min<
            std::uint64_t>(idx.blockCount,
                           (s + 1) * traceIndexSuperSpan) -
            firstBlock);
        idx.supers.push_back(
            readNode(in, firstBlock, blocks, idx.eventCount));
    }
    idx.root = readNode(in, 0, (std::uint32_t)idx.blockCount,
                        idx.eventCount);
    idx.bytesTree = in.offset() - idx.bytesHeader;

    // Extents.
    const std::uint64_t nextents = in.varint();
    if (nextents > idx.objectCount) {
        in.fail("sidecar index extent count %llu exceeds %llu "
                "objects",
                (unsigned long long)nextents,
                (unsigned long long)idx.objectCount);
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
    idx.bytesExtents = in.offset() - idx.bytesHeader - idx.bytesTree;
    idx.fileBytes = bytes.size();
    return idx;
}

namespace {

/** True when [first, first+pages) lies inside one node run. Node
 *  runs are coalesced and disjoint, so containment in the union is
 *  containment in a single run. */
bool
runContained(const PageRun &r, const IndexNode &node)
{
    for (std::size_t i = 0; i < node.runs.size(); ++i) {
        const PageRun &n = node.runs[i];
        if (r.firstPage >= n.firstPage &&
            r.firstPage + r.pages <= n.firstPage + n.pages) {
            return true;
        }
    }
    return false;
}

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

    // Tree: totals match and member runs are contained.
    std::uint64_t totalControls = 0;
    for (std::size_t s = 0; s < index.supers.size(); ++s) {
        const IndexNode &node = index.supers[s];
        std::uint64_t events = 0, writes = 0, controls = 0;
        for (std::size_t b = node.firstBlock;
             b < node.firstBlock + node.blocks; ++b) {
            const MappedTrace::Block &blk = trace.block(b);
            events += blk.events;
            writes += blk.writes;
            controls += blk.controls();
            for (std::size_t k = 0; k < blk.runs.size(); ++k) {
                if (!runContained(blk.runs[k], node)) {
                    failValidate(
                        path,
                        "superblock " + std::to_string(s) +
                            " runs do not cover block " +
                            std::to_string(b));
                }
            }
        }
        if (events != node.events || writes != node.writes ||
            controls != node.controls) {
            failValidate(path, "superblock " + std::to_string(s) +
                                   " totals disagree with its "
                                   "blocks");
        }
        totalControls += controls;
        for (std::size_t k = 0; k < node.runs.size(); ++k) {
            if (!runContained(node.runs[k], index.root)) {
                failValidate(path,
                             "root runs do not cover superblock " +
                                 std::to_string(s));
            }
        }
    }
    if (index.root.events != trace.eventCount() ||
        index.root.writes != trace.totalWrites() ||
        index.root.controls != totalControls) {
        failValidate(path, "root totals disagree with the trace");
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
    if (extentControls != totalControls) {
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
