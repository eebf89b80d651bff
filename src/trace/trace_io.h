/**
 * @file
 * Binary serialization of Trace artifacts.
 *
 * Phase 1 (trace generation) is expensive — the paper notes that for
 * several test programs re-running per monitor session "would be
 * impractical" — so traces are first-class on-disk artifacts that can
 * be generated once and analyzed many times (paper Figure 1's "Program
 * Event Trace" box).
 *
 * Format: a magic/version header, the string tables (functions, write
 * sites), object descriptors, then the event stream cut into blocks of
 * predicted, run-length-coded columns, a block index and a fixed
 * footer. Integers are LEB128 varints. docs/FORMAT.md specifies the
 * layout.
 *
 * Every input decodes through one reader, MappedTrace: the query
 * engine, the daemon and block-skip replay map a file and decode
 * blocks on demand, while readTrace/loadTrace materialize a whole
 * Trace by decoding every block in order, so every reader agrees on
 * what a well-formed trace is. A retired v1 flat file (EDBTRC02) is
 * rejected by the one header parser, with the same message from
 * every reader.
 *
 * Malformed or truncated input raises TraceError — a recoverable
 * error, never a process abort — and corrupt length fields are capped
 * before they can drive unbounded allocation.
 */

#ifndef EDB_TRACE_TRACE_IO_H
#define EDB_TRACE_TRACE_IO_H

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/trace.h"
#include "trace/trace_format.h"
#include "util/small_vec.h"

namespace edb::trace {

class TraceIndex;

/**
 * Error reading or writing a trace artifact: unopenable file, bad
 * magic, truncation, a value out of range, or an inconsistency between
 * the trailer and the event stream. Recoverable — callers own the
 * policy (the CLI reports and exits; tests assert on it; a server
 * would drop the one bad artifact).
 */
class TraceError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * One decoded v2 block in struct-of-arrays form — the shape the
 * vectorized decode and batch-replay kernels exchange (DESIGN.md §14).
 *
 * Control events (install/remove) stay as full Events with their
 * stream positions; the write rows — the overwhelming bulk of every
 * real block — land in three flat columns in stream order, so the
 * replay engine can screen them 16 at a time without touching an
 * interleaved Event array. Write k of the block occupies the stream
 * slot after skipping the controls: interleaving is fully determined
 * by ctlPos (control c sits at block index ctlPos[c], so exactly
 * ctlPos[c] - c writes precede it).
 *
 * Vector capacities persist across decodeBlockBatch() calls, so a
 * reused WriteBatch performs no steady-state allocation.
 */
struct WriteBatch
{
    std::uint64_t events = 0; ///< total events in the block
    std::uint64_t writes = 0; ///< write rows among them

    /** Install/remove events, in stream order. */
    std::vector<Event> ctl;
    /** Block-relative stream position of each control event. */
    std::vector<std::uint32_t> ctlPos;

    /** @name Write rows, stream order, struct-of-arrays */
    /// @{
    std::vector<Addr> wrBegin;
    std::vector<std::uint32_t> wrSize;
    std::vector<std::uint32_t> wrAux;
    /// @}

    /** Decoder scratch (expanded u64 column); reused across blocks. */
    std::vector<std::uint64_t> scratch;
};

/** Options for writeTrace/saveTrace. */
struct WriteOptions
{
    /** Events per block; clamped to [1, maxBlockEvents]. */
    std::size_t blockEvents = defaultBlockEvents;
};

/**
 * The one trace encoder (DESIGN.md §17). Events are appended in
 * stream order, in slices of any size; each time a block fills it is
 * encoded into one growing byte buffer and its events are dropped, so
 * the writer holds the encoded blocks (2-3 B per event), never the
 * events. finish() encodes the last, partial block and writes the
 * header tables, the blocks, the block index and the footer. The
 * bytes depend only on the events and the block size, never on how
 * the events were sliced: writeTrace is one append and one finish.
 */
class TraceWriter
{
  public:
    explicit TraceWriter(const WriteOptions &options = {});
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append events[0 .. n) to the stream. */
    void append(const Event *events, std::size_t n);

    /** Events per block, after clamping. */
    std::size_t blockEvents() const;

    /** Events appended so far. */
    std::uint64_t eventCount() const;

    /**
     * Write the whole file to `os`. The header tables and trailer
     * come from `header`'s program, registry, write sites,
     * totalWrites and estimatedInstructions; its events are not
     * read — the appended ones are the stream. Call at most once.
     * Throws TraceError on I/O error.
     */
    void finish(const Trace &header, std::ostream &os);

  private:
    struct Encoder;
    std::unique_ptr<Encoder> enc_;
};

/** Serialize a trace to a stream. Throws TraceError on I/O error. */
void writeTrace(const Trace &trace, std::ostream &os,
                const WriteOptions &options = {});

/** Serialize a trace to a file. Throws TraceError on I/O error,
 *  including a failure of the final flush or close. */
void saveTrace(const Trace &trace, const std::string &path,
               const WriteOptions &options = {});

/** Create or truncate `path` for writing a trace. Throws TraceError
 *  ("cannot open '<path>' for writing") when it cannot. */
std::ofstream openTraceFile(const std::string &path);

/** Flush and close a stream from openTraceFile. Throws TraceError
 *  when either fails: a full disk often surfaces only here. */
void closeTraceFile(std::ofstream &os, const std::string &path);

/**
 * Deserialize a whole trace from a stream, which must hold exactly
 * one trace: everything up to end-of-stream is decoded. Throws
 * TraceError on malformed input.
 */
Trace readTrace(std::istream &is);

/**
 * Deserialize a trace from a file, decoding every block of one
 * mapping. Never consults a sidecar index. Throws TraceError.
 */
Trace loadTrace(const std::string &path);

/**
 * Zero-copy random-access view of a blocked trace.
 *
 * The file is mmap'd (falling back to one in-memory copy where mmap is
 * unavailable), or the bytes are handed over already in memory;
 * construction parses the header tables, the fixed
 * footer, the block index and every block header — so blockCount(),
 * per-block event/write counts and page summaries are available
 * without touching any payload byte — and cross-checks the index
 * against the headers. Payloads are only decoded on demand by
 * decodeBlock(), which is const and safe to call concurrently from
 * many threads on distinct or identical blocks: this is what lets the
 * parallel simulator's shards seek straight to block boundaries, and
 * the replay fast path skip whole blocks on a summary miss.
 *
 * Throws TraceError on any malformed input, including a retired v1
 * flat file.
 */
class MappedTrace
{
  public:
    /** Per-block metadata, parsed eagerly at construction. */
    struct Block
    {
        std::uint64_t offset;     ///< file offset of the block record
        std::uint64_t bytes;      ///< size of the whole record
        std::uint64_t events;     ///< events in the block
        std::uint64_t writes;     ///< write events among them
        /** Global stream index of the block's first event — the
         *  cumulative event count of every earlier block. Rows of
         *  block b occupy indices [firstEvent, firstEvent + events),
         *  which is what lets a consumer prune whole blocks against
         *  an event-index window without decoding them. */
        std::uint64_t firstEvent;
        Addr base;                ///< first event's begin address
        std::uint64_t payloadOff; ///< file offset of the columns
        std::uint64_t colBytes[8];
        util::SmallVec<PageRun, maxSummaryRuns> runs;

        /** True when every event is a write: the block-skip fast path
         *  then decodes nothing at all. */
        bool pureWrites() const { return writes == events; }

        /** Install/remove events in the block — what remains to be
         *  decoded when the block's writes are skipped. */
        std::uint64_t controls() const { return events - writes; }
    };

    /**
     * superBlockSpan consecutive blocks and the coalesced union of
     * their page-summary runs. The runs are a superset, never exact,
     * so a relevance miss on a superblock proves a miss on every
     * member (DESIGN.md §16).
     */
    struct SuperBlock
    {
        std::uint32_t firstBlock = 0;
        std::uint32_t blocks = 0;
        std::uint64_t writes = 0; ///< the members' write events
        util::SmallVec<PageRun, maxSuperRuns> runs;
    };

    /** Map the file at `path`, then attach its sidecar index when
     *  one is found (see openIndex()). */
    explicit MappedTrace(const std::string &path);
    /** Take ownership of an in-memory encoding. There is no path, so
     *  no sidecar is ever discovered and path() is empty. */
    explicit MappedTrace(std::vector<unsigned char> bytes);
    ~MappedTrace();

    MappedTrace(const MappedTrace &) = delete;
    MappedTrace &operator=(const MappedTrace &) = delete;

    const std::string &program() const { return program_; }
    const ObjectRegistry &registry() const { return registry_; }
    const std::vector<std::string> &writeSites() const
    {
        return write_sites_;
    }
    std::uint64_t eventCount() const { return event_count_; }
    std::uint64_t totalWrites() const { return total_writes_; }
    std::uint64_t estimatedInstructions() const
    {
        return estimated_instructions_;
    }

    std::size_t blockCount() const { return blocks_.size(); }
    const Block &block(std::size_t i) const { return blocks_[i]; }
    /** Event count of the largest block — sizes a decode buffer that
     *  fits any block. */
    std::size_t largestBlockEvents() const { return largest_block_; }
    /** Total size of the mapped file in bytes. */
    std::uint64_t fileBytes() const { return size_; }
    /** True when the file is backed by an actual mmap (false on the
     *  read-into-memory fallback). */
    bool isMapped() const { return mapped_; }
    /** The path the mapping was opened from (empty for an
     *  in-memory encoding). */
    const std::string &path() const { return path_; }

    /** xxh64 (seed 0) of the whole mapped file — what a sidecar
     *  index pins itself to. Computed on first use under a
     *  `trace.digest` span, then cached; thread-safe. */
    std::uint64_t contentDigest() const;

    /** The superblocks, built from the parsed block headers on first
     *  use, then cached; thread-safe. O(blocks), no payload byte. */
    const std::vector<SuperBlock> &superBlocks() const;

    /**
     * The attached sidecar index, or nullptr when none was found,
     * the sidecar was rejected (stale/corrupt/not a file), or
     * indexing is pinned off via EDB_TRACE_INDEX. Without it the
     * planner needs every control-bearing block — never an error.
     */
    const TraceIndex *index() const { return index_.get(); }

    /**
     * Try to attach the sidecar at `path` (load + full validation
     * against this mapping). On success the index becomes visible
     * through index() and trace.idx.hits ticks; on any TraceError the
     * sidecar is rejected, trace.idx.stale ticks, index() stays null,
     * and false returns — auto-discovery must never turn a bad
     * sidecar into a failure to open the trace itself.
     */
    bool openIndex(const std::string &index_path);

    /** openIndex() at the default `<trace path>.edbi` location.
     *  Quietly returns false (no stale tick) when no sidecar file
     *  exists. The constructor runs this when traceIndexEnabled(). */
    bool openIndex();

    /**
     * Decode block i into out, which must hold block(i).events events.
     * Thread-safe; validates the payload and throws TraceError (with
     * byte offset and block id) on corruption.
     */
    void decodeBlock(std::size_t i, Event *out) const;

    /**
     * Decode only block i's install/remove events, in stream order,
     * into out (block(i).controls() events), leaving the write
     * columns untouched. The replay write-skip fast path pairs this
     * with the block's header write count. Thread-safe.
     */
    void decodeBlockControl(std::size_t i, Event *out) const;

    /**
     * As decodeBlockControl(), additionally reporting each control
     * event's position within the block into pos (block(i).controls()
     * entries): control event k of the block sits at global stream
     * index block(i).firstEvent + pos[k]. The block planner decodes
     * this way so the trace query can evaluate the control rows of a
     * write-pruned block at their exact stream positions.
     * Thread-safe.
     */
    void decodeBlockControl(std::size_t i, Event *out,
                            std::uint32_t *pos) const;

    /**
     * Decode block i into the struct-of-arrays WriteBatch — the
     * vectorized decode path (DESIGN.md §14). Produces exactly the
     * rows decodeBlock() would, split into control events (with
     * positions) and flat write columns; `out`'s capacity is reused
     * across calls. Publishes the same trace.v2.* observability
     * deltas as decodeBlock(), once per block. Thread-safe with a
     * per-thread (or per-worker) `out`.
     */
    void decodeBlockBatch(std::size_t i, WriteBatch &out) const;

    /**
     * Decode block i through the original per-event scalar walker —
     * the reference decoder the batched path is pinned against. No
     * observability side effects. The differential tests and
     * bench_decode use this as the committed-baseline oracle; replay
     * and query consumers should use decodeBlock()/decodeBlockBatch().
     */
    void decodeBlockReference(std::size_t i, Event *out) const;

  private:
    /** Map `path` without looking for a sidecar: loadTrace's way in. */
    struct Unindexed
    {
    };
    MappedTrace(const std::string &path, Unindexed);
    friend Trace loadTrace(const std::string &path);

    void decodeBlockBatchInto(std::size_t i, WriteBatch &out) const;
    void load(const std::string &path);
    void parse();

    const unsigned char *data_ = nullptr;
    std::uint64_t size_ = 0;
    bool mapped_ = false;
    /** Owned bytes: an in-memory encoding, or the copy read where
     *  mmap is unavailable. */
    std::vector<unsigned char> fallback_;

    std::string path_;
    std::unique_ptr<TraceIndex> index_;
    mutable std::once_flag digest_once_;
    mutable std::uint64_t content_digest_ = 0;
    mutable std::once_flag supers_once_;
    mutable std::vector<SuperBlock> supers_;

    std::string program_;
    ObjectRegistry registry_;
    std::vector<std::string> write_sites_;
    std::uint64_t event_count_ = 0;
    std::uint64_t total_writes_ = 0;
    std::uint64_t estimated_instructions_ = 0;
    std::vector<Block> blocks_;
    std::size_t largest_block_ = 0;
};

/**
 * Record blocks the replay layer skipped via the block-summary fast
 * path under trace.v2.blocks_skipped / sim.block_skip_writes. Lives
 * here so the obs counters of the v2 layer are interned exactly once.
 */
void obsNoteSkippedBlocks(std::uint64_t blocks, std::uint64_t writes);

} // namespace edb::trace

#endif // EDB_TRACE_TRACE_IO_H
