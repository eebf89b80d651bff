/**
 * @file
 * The persistent sidecar trace index (`<trace>.edbi`) — precomputed
 * per-object control extents over a v2 blocked trace (docs/FORMAT.md,
 * "Sidecar index"; DESIGN.md §16 argues the soundness).
 *
 * The block planner's superblocks come from the trace itself
 * (MappedTrace::superBlocks(), built from the block headers open
 * already parses). What the block headers cannot tell is which blocks
 * hold the install/remove events of a given object: a query with a
 * session predicate would decode every control-bearing block's
 * control columns to advance its live state. The sidecar moves that
 * work to index-build time, once per artifact: per object, the first
 * and last block, the event count, and the posting list of blocks
 * carrying its installs and removes. A session's extent is the fold
 * over its objects — this is what lets the planner skip control
 * decodes on blocks that provably hold no selected-object control.
 *
 * The index is strictly an accelerator: the extents mirror the
 * per-block truth exactly, so the planner reaches identical decisions
 * with or without it and keeps a mandatory fallback (every
 * control-bearing block is needed). Staleness is detected by an
 * XXH64 digest of the indexed `.trc`; corruption by a self-digest
 * over the index bytes plus structural cross-checks against the
 * mapped block headers. A sidecar that fails any of it is rejected
 * (TraceError from the explicit loader, silent fallback +
 * `trace.idx.stale` from auto-discovery) — it can never mis-plan.
 */

#ifndef EDB_TRACE_INDEX_FORMAT_H
#define EDB_TRACE_INDEX_FORMAT_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace edb::trace {

class MappedTrace;

/** Sidecar file magic, first 4 bytes of every `.edbi`. */
constexpr char traceIndexMagic[4] = {'E', 'D', 'B', 'I'};

/** Current sidecar wire version. Version 3 pinned the same bytes
 *  with FNV-1a, version 2 also carried a summary tree and version 1
 *  page postings; their files are stale. */
constexpr std::uint64_t traceIndexVersion = 4;

/**
 * XXH64 (Collet's published algorithm, public test vectors) of
 * `data[0, n)`: the digest pinning a sidecar to its `.trc` bytes and
 * the index's own bytes to themselves, both with seed 0. Four
 * independent lanes over 32-byte stripes, so a whole-trace digest
 * runs near memory speed instead of paying one dependent multiply per
 * byte. Any alignment of `data` is fine.
 */
std::uint64_t xxh64(const unsigned char *data, std::size_t n,
                    std::uint64_t seed = 0);

/**
 * Control extent of one object: which blocks carry its installs and
 * removes. A session's extent is the union over its objects; a block
 * outside every selected object's posting list provably holds no
 * selected control, so the block planner may skip its control decode
 * for a query.
 */
struct IndexExtent
{
    std::uint32_t object = 0;
    std::uint32_t firstBlock = 0;
    std::uint32_t lastBlock = 0;
    std::uint64_t count = 0; ///< control events of the object
    /** Ascending distinct block ids carrying >=1 control of it. */
    std::vector<std::uint32_t> blocks;
};

/**
 * The in-memory sidecar index. Built by buildTraceIndex() from an
 * open MappedTrace, persisted by saveTraceIndex(), reloaded by
 * loadTraceIndex() and pinned to a specific trace by
 * validateTraceIndex(). MappedTrace::openIndex() is the
 * auto-discovery front end (gated by EDB_TRACE_INDEX).
 */
class TraceIndex
{
  public:
    /** @name Identity (header fields) */
    /// @{
    std::uint64_t version = traceIndexVersion;
    std::uint64_t traceDigest = 0; ///< xxh64 of the whole .trc
    std::uint64_t traceBytes = 0;  ///< size of the indexed .trc
    std::uint64_t blockCount = 0;
    std::uint64_t eventCount = 0;
    std::uint64_t objectCount = 0;
    /// @}

    /** Per-object control extents, ascending by object id; objects
     *  with no control event are absent. */
    std::vector<IndexExtent> extents;

    /** @name Encoded per-structure byte sizes (for `edb-trace info`);
     *  zero on a freshly built, never-serialized index. */
    /// @{
    std::uint64_t bytesHeader = 0;
    std::uint64_t bytesExtents = 0;
    std::uint64_t fileBytes = 0;
    /// @}
};

/** Default sidecar path of a trace artifact: `<path>.edbi`. */
std::string traceIndexPathFor(const std::string &tracePath);

/** False when the `EDB_TRACE_INDEX` environment pin is `off`/`0`:
 *  MappedTrace then never auto-discovers a sidecar and every plan
 *  treats each control-bearing block as needed. Anything else (or unset) is on. */
bool traceIndexEnabled();

/** Build the index from an open mapping: decodes every block's
 *  control columns once. */
TraceIndex buildTraceIndex(const MappedTrace &trace);

/** Serialize to `path`, recording the encoded per-structure byte
 *  sizes on `index` as a side effect (what `edb-trace index` prints).
 *  Throws TraceError on I/O failure. */
void saveTraceIndex(TraceIndex &index, const std::string &path);

/**
 * Parse a sidecar file. Validates the skeleton (a regular file,
 * magic, version, bounds, ordering) and the trailing self-digest;
 * throws TraceError with the failing byte offset on anything
 * malformed, before any allocation a forged count could size. Does
 * NOT check the index against any trace — pair with
 * validateTraceIndex().
 */
TraceIndex loadTraceIndex(const std::string &path);

/**
 * Cross-check a loaded index against the trace it claims to
 * describe: digest/size/counts and extent consistency. Throws
 * TraceError (with the sidecar path in the message) on any mismatch
 * — a stale or inconsistent sidecar must never reach a planner.
 */
void validateTraceIndex(const TraceIndex &index,
                        const MappedTrace &trace,
                        const std::string &path);

/** Record one planning outcome under trace.idx.blocks_candidate /
 *  trace.idx.blocks_elided (no-ops when obs is compiled out). */
void obsNoteIndexPlan(std::uint64_t candidate, std::uint64_t elided);

/** Record one auto-discovery outcome: attached → trace.idx.hits,
 *  rejected (stale/corrupt) → trace.idx.stale. */
void obsNoteIndexOpen(bool attached);

} // namespace edb::trace

#endif // EDB_TRACE_INDEX_FORMAT_H
