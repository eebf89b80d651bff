/**
 * @file
 * Tests for the v2 blocked trace container: MappedTrace equivalence
 * with the original trace, the control-only decode path, block
 * summary soundness, the truncation/byte-flip robustness contract
 * extended to the block index and footer, and the offset/block-id
 * error reports.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "obs/obs.h"
#include "sim/simulator.h"
#include "testing/random_trace.h"
#include "trace/trace_io.h"

namespace edb::trace {
namespace {

using testgen::randomTrace;

std::string
encode(const Trace &t, const WriteOptions &opts = {})
{
    std::stringstream ss;
    writeTrace(t, ss, opts);
    return ss.str();
}

/** Unique temp path per test process (ctest runs suites under -j). */
std::string
tempPath(const char *tag)
{
    return ::testing::TempDir() + "/edb_v2_" + tag + "." +
           std::to_string(::getpid()) + ".trc";
}

/** RAII temp file holding the given bytes. */
class TempFile
{
  public:
    TempFile(const char *tag, const std::string &bytes)
        : path_(tempPath(tag))
    {
        write(bytes);
    }

    ~TempFile() { std::remove(path_.c_str()); }

    void
    write(const std::string &bytes)
    {
        std::ofstream os(path_, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(), (std::streamsize)bytes.size());
        os.close();
        ASSERT_TRUE(os.good());
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Seeds x block sizes: mapped decode must equal the original trace. */
class MappedTraceRoundTrip
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MappedTraceRoundTrip, MappedDecodeMatchesOriginal)
{
    Trace original = randomTrace(GetParam());

    for (std::size_t block_events :
         {std::size_t(1), std::size_t(7), std::size_t(64),
          defaultBlockEvents}) {
        WriteOptions opts;
        opts.blockEvents = block_events;
        TempFile f("mapped", encode(original, opts));

        MappedTrace mapped(f.path());
        EXPECT_EQ(mapped.program(), original.program);
        EXPECT_EQ(mapped.eventCount(), original.events.size());
        EXPECT_EQ(mapped.totalWrites(), original.totalWrites);
        EXPECT_EQ(mapped.estimatedInstructions(),
                  original.estimatedInstructions);
        EXPECT_EQ(mapped.writeSites(), original.writeSites);
        EXPECT_EQ(mapped.registry().objectCount(),
                  original.registry.objectCount());

        // Per-block decode reassembles the exact event stream, and the
        // index totals agree with it.
        std::vector<Event> events;
        std::vector<Event> buf(mapped.largestBlockEvents());
        std::uint64_t writes = 0;
        for (std::size_t b = 0; b < mapped.blockCount(); ++b) {
            const auto &blk = mapped.block(b);
            ASSERT_LE(blk.events, mapped.largestBlockEvents());
            mapped.decodeBlock(b, buf.data());
            events.insert(events.end(), buf.begin(),
                          buf.begin() + (std::ptrdiff_t)blk.events);
            writes += blk.writes;
        }
        ASSERT_EQ(events.size(), original.events.size());
        for (std::size_t i = 0; i < events.size(); ++i)
            ASSERT_EQ(events[i], original.events[i]) << "event " << i;
        EXPECT_EQ(writes, original.totalWrites);

        // The writer cut blocks at its events-per-block: every block
        // but the last is full.
        for (std::size_t b = 0; b + 1 < mapped.blockCount(); ++b)
            EXPECT_EQ(mapped.block(b).events, block_events) << b;
    }
}

TEST_P(MappedTraceRoundTrip, ControlDecodeMatchesFullDecode)
{
    Trace original = randomTrace(GetParam() * 131 + 5);
    WriteOptions opts;
    opts.blockEvents = 32; // many blocks, most of them mixed
    TempFile f("ctl", encode(original, opts));

    MappedTrace mapped(f.path());
    std::vector<Event> full(mapped.largestBlockEvents());
    std::vector<Event> ctl(mapped.largestBlockEvents());
    for (std::size_t b = 0; b < mapped.blockCount(); ++b) {
        const auto &blk = mapped.block(b);
        mapped.decodeBlock(b, full.data());
        mapped.decodeBlockControl(b, ctl.data());

        // The control decode must be exactly the full decode with the
        // writes filtered out, in stream order.
        std::size_t c = 0;
        for (std::size_t i = 0; i < blk.events; ++i) {
            if (full[i].kind == EventKind::Write)
                continue;
            ASSERT_LT(c, blk.controls()) << "block " << b;
            ASSERT_EQ(ctl[c], full[i]) << "block " << b << " ctl " << c;
            ++c;
        }
        ASSERT_EQ(c, blk.controls()) << "block " << b;
    }
}

TEST_P(MappedTraceRoundTrip, SummaryCoversEveryWrite)
{
    Trace original = randomTrace(GetParam() * 977 + 11);
    WriteOptions opts;
    opts.blockEvents = 64;
    TempFile f("summary", encode(original, opts));

    MappedTrace mapped(f.path());
    std::vector<Event> buf(mapped.largestBlockEvents());
    for (std::size_t b = 0; b < mapped.blockCount(); ++b) {
        const auto &blk = mapped.block(b);
        mapped.decodeBlock(b, buf.data());
        for (std::size_t i = 0; i < blk.events; ++i) {
            if (buf[i].kind != EventKind::Write)
                continue;
            // Every summary page the write touches must be inside one
            // of the block's runs — this is what makes skipping on a
            // summary miss sound.
            const Addr first = buf[i].begin / summaryPageBytes;
            const Addr last =
                (buf[i].begin + buf[i].size - 1) / summaryPageBytes;
            for (Addr p = first; p <= last; ++p) {
                bool covered = false;
                for (const auto &r : blk.runs)
                    covered = covered || r.contains(p);
                ASSERT_TRUE(covered) << "block " << b << " event " << i
                                     << " page " << p;
            }
        }
        ASSERT_LE(blk.runs.size(), maxSummaryRuns);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MappedTraceRoundTrip,
                         ::testing::Values(1, 2, 3));

TEST(MappedTraceErrors, EveryTruncationIsACleanParseError)
{
    Trace original = randomTrace(5001, 120);
    WriteOptions opts;
    opts.blockEvents = 32;
    std::string bytes = encode(original, opts);

    // Every proper prefix — through the header tables, the block
    // records, the index and the footer — must raise TraceError from
    // both read paths, never crash or mis-decode.
    TempFile f("trunc", bytes);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        f.write(bytes.substr(0, len));
        EXPECT_THROW(MappedTrace{f.path()}, TraceError)
            << "prefix length " << len << " of " << bytes.size();
    }
}

/**
 * Byte-flip fuzzing over the v2 container, biased toward the tail of
 * the artifact so the block index and the fixed footer see most of
 * the corruption.
 * Decoding must load or throw TraceError; never hang, abort, or reach
 * undefined behaviour.
 */
class MappedTraceFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(MappedTraceFuzz, TailBiasedCorruptionLoadsOrThrows)
{
    Trace original = randomTrace(900 + (std::uint64_t)GetParam(), 150);
    WriteOptions opts;
    opts.blockEvents = 32;
    std::string bytes = encode(original, opts);

    Rng rng((std::uint64_t)GetParam() * 2654435761u + 39);
    TempFile f("fuzz", bytes);
    for (int round = 0; round < 30; ++round) {
        std::string mutated = bytes;
        int flips = 1 + (int)rng.below(3);
        for (int i = 0; i < flips; ++i) {
            // 2/3 of flips land in the last quarter (index + footer),
            // the rest anywhere.
            std::size_t at =
                rng.below(3) < 2
                    ? mutated.size() - 1 -
                          rng.below(mutated.size() / 4 + 1)
                    : rng.below(mutated.size());
            mutated[at] = (char)(mutated[at] ^ (1 << rng.below(8)));
        }
        f.write(mutated);
        try {
            MappedTrace mapped(f.path());
            std::vector<Event> buf(mapped.largestBlockEvents());
            for (std::size_t b = 0; b < mapped.blockCount(); ++b) {
                mapped.decodeBlock(b, buf.data());
                mapped.decodeBlockControl(b, buf.data());
            }
        } catch (const TraceError &) {
            // A clean, recoverable rejection.
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Flips, MappedTraceFuzz,
                         ::testing::Range(0, 8));

TEST(MappedTraceErrors, ReportsByteOffsetAndBlockId)
{
    Trace original = randomTrace(77, 200);
    WriteOptions opts;
    opts.blockEvents = 16;
    std::string bytes = encode(original, opts);

    // Force-corrupt payload bytes one at a time until a decode fails;
    // the resulting diagnostic must carry the absolute byte offset and
    // the block id. Some flips decode clean (RLE literals are dense),
    // so scan until one bites.
    TempFile lf("layout", bytes);
    MappedTrace layout(lf.path());
    ASSERT_GT(layout.blockCount(), 1u);
    const auto &blk = layout.block(0);
    const std::uint64_t payload_first = blk.offset + 1;
    const std::uint64_t payload_last = blk.offset + blk.bytes - 1;

    bool diagnosed = false;
    TempFile f("offmsg", bytes);
    for (std::uint64_t at = payload_first;
         at <= payload_last && !diagnosed; ++at) {
        std::string mutated = bytes;
        mutated[at] = (char)(mutated[at] ^ 0xff);
        f.write(mutated);
        try {
            MappedTrace mapped(f.path());
            std::vector<Event> buf(mapped.largestBlockEvents());
            mapped.decodeBlock(0, buf.data());
        } catch (const TraceError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("at byte"), std::string::npos) << msg;
            EXPECT_NE(msg.find("block"), std::string::npos) << msg;
            diagnosed = true;
        }
    }
    EXPECT_TRUE(diagnosed)
        << "no payload corruption produced a TraceError";
}

#if EDB_OBS_ENABLED
TEST(TraceV2Obs, DecodeCountersAdvance)
{
    Trace original = randomTrace(321, 400);
    WriteOptions opts;
    opts.blockEvents = 64;
    TempFile f("obs", encode(original, opts));

    obs::Snapshot before = obs::takeSnapshot();
    MappedTrace mapped(f.path());
    std::vector<Event> buf(mapped.largestBlockEvents());
    for (std::size_t b = 0; b < mapped.blockCount(); ++b)
        mapped.decodeBlock(b, buf.data());
    obsNoteSkippedBlocks(3, 123);
    obs::Snapshot after = obs::takeSnapshot();

    EXPECT_EQ(after.counter("trace.v2.blocks_decoded") -
                  before.counter("trace.v2.blocks_decoded"),
              (std::int64_t)mapped.blockCount());
    EXPECT_EQ(after.counter("trace.v2.bytes_raw") -
                  before.counter("trace.v2.bytes_raw"),
              (std::int64_t)(original.events.size() * sizeof(Event)));
    EXPECT_GT(after.counter("trace.v2.bytes_encoded"),
              before.counter("trace.v2.bytes_encoded"));
    EXPECT_EQ(after.counter("trace.v2.blocks_skipped") -
                  before.counter("trace.v2.blocks_skipped"),
              3);
    EXPECT_EQ(after.counter("sim.block_skip_writes") -
                  before.counter("sim.block_skip_writes"),
              123);
}
#endif

} // namespace
} // namespace edb::trace
