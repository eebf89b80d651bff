/**
 * @file
 * Tests for the binary trace file format: round trips, compactness,
 * malformed-input handling, and the agreement of every reader —
 * readTrace, loadTrace and MappedTrace — on what a well-formed trace
 * is.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "testing/random_trace.h"
#include "trace/index_format.h"
#include "trace/trace_io.h"
#include "trace/tracer.h"
#include "util/rng.h"
#include "workload/workload.h"

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

/** A temp file unique to this test process (ctest runs under -j). */
class TempTrace
{
  public:
    TempTrace()
        : path_(::testing::TempDir() + "/edb_trace_io." +
                std::to_string(::getpid()) + ".trc")
    {
    }
    ~TempTrace() { std::remove(path_.c_str()); }

    const std::string &
    holding(const std::string &bytes)
    {
        std::ofstream os(path_, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(), (std::streamsize)bytes.size());
        return path_;
    }

  private:
    std::string path_;
};

Trace
readBytes(const std::string &bytes)
{
    std::stringstream ss(bytes);
    return readTrace(ss);
}

/** Byte-flip mutants of `bytes`: `rounds` copies with 1-3 bit flips
 *  each, at or after byte `from`, drawn from `seed`. */
std::vector<std::string>
flipMutants(const std::string &bytes, std::uint64_t seed, int rounds,
            std::size_t from)
{
    Rng rng(seed * 2654435761u + 17);
    std::vector<std::string> out;
    for (int round = 0; round < rounds; ++round) {
        std::string mutated = bytes;
        const int flips = 1 + (int)rng.below(3);
        for (int i = 0; i < flips; ++i) {
            const std::size_t at =
                from + rng.below(mutated.size() - from);
            mutated[at] = (char)(mutated[at] ^ (1 << rng.below(8)));
        }
        out.push_back(std::move(mutated));
    }
    return out;
}

/** Build a small but representative trace. */
Trace
makeSampleTrace()
{
    Tracer tracer("sample");
    auto g = tracer.declareGlobal("globals", 256);
    tracer.enterFunction("main");
    auto x = tracer.declareLocal("x", 8);
    tracer.write(x.addr, 8, tracer.internWriteSite("main.c:3"));
    tracer.enterFunction("work");
    auto h = tracer.heapAlloc("node", 48);
    tracer.write(h.addr + 8, 4, tracer.internWriteSite("work.c:9"));
    tracer.write(g.addr + 128, 4, tracer.internWriteSite("work.c:10"));
    auto h2 = tracer.heapRealloc(h, 96);
    tracer.heapFree(h2);
    tracer.exitFunction();
    tracer.exitFunction();
    return tracer.finish();
}

void
expectTracesEqual(const Trace &a, const Trace &b)
{
    EXPECT_EQ(a.program, b.program);
    EXPECT_EQ(a.totalWrites, b.totalWrites);
    EXPECT_EQ(a.estimatedInstructions, b.estimatedInstructions);
    EXPECT_EQ(a.writeSites, b.writeSites);
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i)
        EXPECT_EQ(a.events[i], b.events[i]) << "event " << i;

    ASSERT_EQ(a.registry.objectCount(), b.registry.objectCount());
    for (std::size_t i = 0; i < a.registry.objectCount(); ++i) {
        const auto &oa = a.registry.object((ObjectId)i);
        const auto &ob = b.registry.object((ObjectId)i);
        EXPECT_EQ(oa.kind, ob.kind);
        EXPECT_EQ(oa.name, ob.name);
        EXPECT_EQ(oa.owner, ob.owner);
        EXPECT_EQ(oa.size, ob.size);
        EXPECT_EQ(oa.allocContext, ob.allocContext);
    }
    ASSERT_EQ(a.registry.functionCount(), b.registry.functionCount());
    for (std::size_t i = 0; i < a.registry.functionCount(); ++i) {
        EXPECT_EQ(a.registry.functionName((FunctionId)i),
                  b.registry.functionName((FunctionId)i));
    }
}

TEST(TraceIo, RoundTripStream)
{
    Trace original = makeSampleTrace();
    std::stringstream ss;
    writeTrace(original, ss);
    EXPECT_EQ(ss.str().substr(0, 8), "EDBTRC03");
    Trace loaded = readTrace(ss);
    expectTracesEqual(original, loaded);
}

TEST(TraceIo, RoundTripEmptyTrace)
{
    Tracer tracer("empty");
    Trace original = tracer.finish();
    std::stringstream ss;
    writeTrace(original, ss);
    Trace loaded = readTrace(ss);
    expectTracesEqual(original, loaded);
}

TEST(TraceIo, RoundTripFile)
{
    Trace original = makeSampleTrace();
    std::string path = ::testing::TempDir() + "/edb_trace_test.trc";
    saveTrace(original, path);
    Trace loaded = loadTrace(path);
    expectTracesEqual(original, loaded);
    std::remove(path.c_str());
}

TEST(TraceIo, RoundTripLargeRandomTrace)
{
    // Exercise the varint/delta encoder across the value spectrum.
    Tracer tracer("large");
    Rng rng(99);
    tracer.enterFunction("main");
    auto g = tracer.declareGlobal("arena", 1 << 20);
    for (int i = 0; i < 50000; ++i) {
        Addr off = rng.below((1 << 20) - 8);
        tracer.write(g.addr + off, 1 + rng.below(8),
                     (std::uint32_t)rng.below(1000));
    }
    tracer.exitFunction();
    Trace original = tracer.finish();

    std::stringstream ss;
    writeTrace(original, ss);
    Trace loaded = readTrace(ss);
    expectTracesEqual(original, loaded);
}

TEST(TraceIo, EncodingIsCompact)
{
    // Delta+varint encoding should beat the in-memory footprint by a
    // wide margin for a typical spatially local write stream.
    Tracer tracer("compact");
    tracer.enterFunction("main");
    auto g = tracer.declareGlobal("buf", 4096);
    for (int i = 0; i < 10000; ++i)
        tracer.write(g.addr + (Addr)(i % 1024) * 4, 4, 0);
    tracer.exitFunction();
    Trace trace = tracer.finish();

    std::stringstream ss;
    writeTrace(trace, ss);
    std::size_t encoded = ss.str().size();
    std::size_t in_memory = trace.events.size() * sizeof(Event);
    EXPECT_LT(encoded, in_memory / 2);
}

TEST(TraceIoErrors, BadMagicThrows)
{
    std::stringstream ss;
    ss << "NOTATRACEFILE.....";
    try {
        (void)readTrace(ss);
        FAIL() << "expected TraceError";
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("bad magic"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TraceIoErrors, TruncatedFileThrows)
{
    Trace original = makeSampleTrace();
    std::stringstream full;
    writeTrace(original, full);
    std::string bytes = full.str();
    std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
    try {
        (void)readTrace(truncated);
        FAIL() << "expected TraceError";
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("truncated"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TraceIoErrors, MissingFileThrows)
{
    try {
        (void)loadTrace("/nonexistent/path/trace.trc");
        FAIL() << "expected TraceError";
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("cannot open"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TraceIo, EmptyTraceHasNoEventsAndNoWrites)
{
    Tracer tracer("empty");
    const Trace original = tracer.finish();
    TempTrace file;
    const std::string bytes = encode(original);
    for (const Trace &t :
         {readBytes(bytes), loadTrace(file.holding(bytes))}) {
        EXPECT_TRUE(t.events.empty());
        EXPECT_EQ(t.totalWrites, 0u);
        EXPECT_EQ(t.program, "empty");
    }
    MappedTrace mapped(
        std::vector<unsigned char>(bytes.begin(), bytes.end()));
    EXPECT_EQ(mapped.blockCount(), 0u);
    EXPECT_EQ(mapped.eventCount(), 0u);
}

TEST(TraceIo, MappedHeaderExposesTablesBeforeDecode)
{
    // Opening a trace parses its tables and block skeleton only; the
    // header is complete before any block is decoded.
    const Trace original = randomTrace(77);
    const std::string bytes = encode(original);
    MappedTrace mapped(
        std::vector<unsigned char>(bytes.begin(), bytes.end()));
    EXPECT_EQ(mapped.program(), original.program);
    EXPECT_EQ(mapped.eventCount(), original.events.size());
    EXPECT_EQ(mapped.totalWrites(), original.totalWrites);
    EXPECT_EQ(mapped.writeSites(), original.writeSites);
    EXPECT_EQ(mapped.registry().objectCount(),
              original.registry.objectCount());
    EXPECT_EQ(mapped.registry().functionCount(),
              original.registry.functionCount());
    EXPECT_TRUE(mapped.path().empty());
    EXPECT_EQ(mapped.index(), nullptr);
}

TEST(TraceIoErrors, WriteCountMismatchIsAParseError)
{
    // Tamper with the totalWrites trailer: every reader cross-checks
    // it against the block index.
    Trace original = randomTrace(123, 100);
    original.totalWrites += 1;
    TempTrace file;
    const std::string bytes = encode(original);
    EXPECT_THROW((void)readBytes(bytes), TraceError);
    EXPECT_THROW((void)loadTrace(file.holding(bytes)), TraceError);
}

/** What one reader made of an input: a trace, or a TraceError. */
template <typename Read>
std::optional<Trace>
attempt(Read &&read)
{
    try {
        return read();
    } catch (const TraceError &) {
        return std::nullopt;
    }
}

/** The TraceError message `read` throws, or "" when it succeeds. */
template <typename Read>
std::string
rejectionOf(Read &&read)
{
    try {
        (void)read();
    } catch (const TraceError &e) {
        return e.what();
    }
    return "";
}

/** Append `v` as a LEB128 varint, as the container writes it. */
void
putVarint(std::string &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back((char)((v & 0x7f) | 0x80));
        v >>= 7;
    }
    out.push_back((char)v);
}

/** The LEB128 varint at `pos`, advancing past it. */
std::uint64_t
getVarint(const std::string &in, std::size_t &pos)
{
    std::uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
        const auto byte = (unsigned char)in.at(pos++);
        v |= (std::uint64_t)(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0)
            return v;
    }
}

/**
 * A well-framed trace whose header and block index claim `blocks`
 * blocks of maxBlockEvents identical writes each. Every block is the
 * same real record: that many identical writes run-length encode to a
 * few bytes, so the file stays small whatever event count it claims.
 * Block `corrupt_block`, if any, has its payload's last byte damaged:
 * its header still parses when the file is opened, and decoding it
 * fails.
 */
std::string
forgedEventCount(std::uint64_t blocks,
                 std::uint64_t corrupt_block = ~std::uint64_t{0})
{
    Trace t;
    t.program = "forged";
    t.writeSites = {"forged.c:1"};
    t.events.assign(maxBlockEvents,
                    Event{0x100000, 4, 0, EventKind::Write});
    t.totalWrites = maxBlockEvents;
    WriteOptions opts;
    opts.blockEvents = maxBlockEvents;
    const std::string real = encode(t, opts);

    // The footer holds the index offset (8 bytes, little-endian); the
    // index lists one (record bytes, events, writes) entry.
    std::uint64_t index_off = 0;
    for (int i = 0; i < 8; ++i) {
        index_off |= (std::uint64_t)(unsigned char)real[real.size() - 12 + i]
                     << (8 * i);
    }
    std::size_t pos = (std::size_t)index_off;
    EXPECT_EQ(getVarint(real, pos), 1u);
    const std::uint64_t record_bytes = getVarint(real, pos);
    const std::size_t record_off = (std::size_t)(index_off - record_bytes);
    const std::string record = real.substr(record_off, record_bytes);
    // The header tables end where the event count and the block size
    // (both maxBlockEvents in `real`) begin.
    std::string counts;
    putVarint(counts, maxBlockEvents);
    putVarint(counts, maxBlockEvents);
    std::string out = real.substr(0, record_off - counts.size());

    const std::uint64_t events = blocks * maxBlockEvents;
    putVarint(out, events);
    putVarint(out, maxBlockEvents);
    for (std::uint64_t b = 0; b < blocks; ++b) {
        out += record;
        if (b == corrupt_block)
            out.back() = (char)0xff;
    }
    const std::uint64_t forged_index_off = out.size();
    putVarint(out, blocks);
    for (std::uint64_t b = 0; b < blocks; ++b) {
        putVarint(out, record_bytes);
        putVarint(out, maxBlockEvents);
        putVarint(out, maxBlockEvents);
    }
    putVarint(out, events); // every event is a write
    putVarint(out, 0);      // estimated instructions
    for (int i = 0; i < 8; ++i)
        out.push_back((char)((forged_index_off >> (8 * i)) & 0xff));
    out += real.substr(real.size() - 4);
    return out;
}

/** Peak resident set of this process so far, in bytes. */
std::uint64_t
peakRssBytes()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return (std::uint64_t)ru.ru_maxrss * 1024;
}

TEST(TraceIoErrors, ForgedEventCountPastMemoryFailsBeforeAllocating)
{
    // 2^33 events, 192 GiB of Event: the header's own cap admits the
    // count, the block index and every block header agree with it,
    // and MappedTrace, which decodes block by block, opens it. Only
    // materializing it is impossible, and that must be a TraceError
    // before any allocation, not an abort or an out-of-memory kill.
    const std::string bytes = forgedEventCount(std::uint64_t{1} << 12);
    TempTrace file;
    const std::string &path = file.holding(bytes);
    EXPECT_EQ(MappedTrace(path).eventCount(), std::uint64_t{1} << 33);
    for (const std::string &what :
         {rejectionOf([&] { return readBytes(bytes); }),
          rejectionOf([&] { return loadTrace(path); })}) {
        EXPECT_NE(what.find("too large to materialize"), std::string::npos)
            << what;
    }
}

TEST(TraceIoErrors, ForgedEventCountFailsAtTheCorruptBlock)
{
    // 2^24 events (384 MiB of Event) whose block 1 is damaged. The
    // event vector is reserved whole, but reserving touches no pages:
    // the load must fail at block 1 having faulted in only the blocks
    // it decoded.
    constexpr std::uint64_t blocks = 8;
    const std::string bytes = forgedEventCount(blocks, 1);
    TempTrace file;
    const std::string &path = file.holding(bytes);
    {
        MappedTrace m(path);
        ASSERT_EQ(m.eventCount(), blocks * maxBlockEvents);
        std::vector<Event> buf(maxBlockEvents);
        m.decodeBlock(0, buf.data());
        EXPECT_THROW(m.decodeBlock(1, buf.data()), TraceError);
    }
    const std::uint64_t block_bytes = maxBlockEvents * sizeof(Event);
    const std::function<Trace()> readers[] = {
        [&] { return readBytes(bytes); }, [&] { return loadTrace(path); }};
    for (const auto &read : readers) {
        const std::uint64_t before = peakRssBytes();
        const std::string what = rejectionOf(read);
        EXPECT_NE(what.find("block 1"), std::string::npos) << what;
        EXPECT_LE(peakRssBytes(), before + 4 * block_bytes);
    }
}

class TraceIoRoundTrip : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TraceIoRoundTrip, EveryTruncationIsACleanParseError)
{
    Trace original = randomTrace(GetParam() + 5000, 60);
    TempTrace file;

    // Every proper prefix must throw TraceError — never hang, crash,
    // or return a silently wrong trace.
    const std::string bytes = encode(original);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        const std::string prefix = bytes.substr(0, len);
        EXPECT_THROW((void)readBytes(prefix), TraceError)
            << "prefix length " << len << " of " << bytes.size();
        EXPECT_THROW((void)loadTrace(file.holding(prefix)), TraceError)
            << "prefix length " << len << " of " << bytes.size();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceIoRoundTrip,
                         ::testing::Values(1, 2, 3));

TEST(TraceIoErrors, ErrorIsRecoverable)
{
    // The recoverable contract: after a failed parse the process is
    // intact and can go on to load a good trace.
    std::stringstream bad("EDBTRC03\xff\xff\xff\xff garbage");
    EXPECT_THROW((void)readTrace(bad), TraceError);

    Trace original = makeSampleTrace();
    std::stringstream good;
    writeTrace(original, good);
    Trace loaded = readTrace(good);
    expectTracesEqual(original, loaded);
}

/** Each paper workload survives the container bit for bit. (The name
 *  predates the retirement of the v1 flat container.) */
class TraceIoWorkload : public ::testing::TestWithParam<std::string_view>
{
};

TEST_P(TraceIoWorkload, LoadTraceIsBitIdenticalInBothContainers)
{
    auto w = workload::makeWorkload(GetParam());
    const Trace original = workload::runTraced(*w);
    TempTrace file;
    const Trace loaded = loadTrace(file.holding(encode(original)));
    // Materializing reserves the exact event count: never a regrow.
    EXPECT_EQ(loaded.events.capacity(), original.events.size());
    expectTracesEqual(loaded, original);
}

/** Length and xxh64 of each workload's encoding. The format is
 *  frozen: a faster encoder must still write exactly these bytes. */
struct PinnedEncoding
{
    std::string_view program;
    std::size_t bytes;
    std::uint64_t digest;
};

constexpr PinnedEncoding pinnedEncodings[] = {
    {"gcc", 9463133, 0x22bf012cbb45f6cdull},
    {"ctex", 2409485, 0x528bcc9b018c972cull},
    {"spice", 3430416, 0xda32ad7c3c3006e7ull},
    {"qcd", 6409973, 0x7657456ca190e863ull},
    {"bps", 1299694, 0x079468981697e9e7ull},
};

TEST_P(TraceIoWorkload, EncodingIsPinnedAndEventsAreExact)
{
    auto w = workload::makeWorkload(GetParam());
    const Trace t = workload::runTraced(*w);
    // The Tracer copies its chunks into one exact-size vector.
    EXPECT_EQ(t.events.capacity(), t.events.size());
    const std::string bytes = encode(t);
    for (const PinnedEncoding &pin : pinnedEncodings) {
        if (pin.program != GetParam())
            continue;
        EXPECT_EQ(bytes.size(), pin.bytes);
        EXPECT_EQ(xxh64((const unsigned char *)bytes.data(), bytes.size()),
                  pin.digest);
        return;
    }
    FAIL() << "no pinned encoding for " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, TraceIoWorkload,
    ::testing::ValuesIn(workload::workloadNames()),
    [](const ::testing::TestParamInfo<std::string_view> &info) {
        return std::string(info.param);
    });

/** The byte-flip inputs of TraceIoFuzz seed `seed`: the sample
 *  trace, magic left intact. */
std::vector<std::string>
fuzzInputs(int seed)
{
    constexpr std::size_t magic_len = 8;
    return flipMutants(encode(makeSampleTrace()), (std::uint64_t)seed,
                       40, magic_len);
}

/** The byte-flip inputs of TraceIoRandomFuzz seed `seed`: a larger
 *  random trace, flipped anywhere, magic included. */
std::vector<std::string>
randomFuzzInputs(int seed)
{
    return flipMutants(
        encode(randomTrace(500 + (std::uint64_t)seed, 200)),
        (std::uint64_t)seed, 20, 0);
}

/** Every input must load through readTrace and loadTrace or throw
 *  TraceError from both. */
void
expectLoadOrThrow(const std::vector<std::string> &inputs)
{
    TempTrace file;
    for (const std::string &mutated : inputs) {
        try {
            (void)readBytes(mutated);
        } catch (const TraceError &) {
            // A clean, recoverable rejection.
        }
        try {
            (void)loadTrace(file.holding(mutated));
        } catch (const TraceError &) {
        }
    }
}

/**
 * Byte-flip fuzzing: a corrupted trace must either load (the flip
 * landed somewhere semantically inert) or throw TraceError — never
 * hang, abort, crash with UB, or allocate unboundedly. Runs
 * in-process so sanitizer builds check the failure path too.
 */
class TraceIoFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(TraceIoFuzz, CorruptedBytesLoadOrThrow)
{
    expectLoadOrThrow(fuzzInputs(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Flips, TraceIoFuzz, ::testing::Range(0, 24));

/** The same contract on larger random traces. */
class TraceIoRandomFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(TraceIoRandomFuzz, CorruptedBytesLoadOrThrow)
{
    expectLoadOrThrow(randomFuzzInputs(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Flips, TraceIoRandomFuzz, ::testing::Range(0, 8));

/** MappedTrace over a file, every block decoded in order. */
Trace
decodeMapped(const std::string &path)
{
    MappedTrace m(path);
    Trace t;
    t.program = m.program();
    t.writeSites = m.writeSites();
    t.totalWrites = m.totalWrites();
    t.estimatedInstructions = m.estimatedInstructions();
    for (std::size_t b = 0; b < m.blockCount(); ++b) {
        const std::size_t at = t.events.size();
        t.events.resize(at + (std::size_t)m.block(b).events);
        m.decodeBlock(b, t.events.data() + at);
    }
    return t;
}

bool
sameTrace(const Trace &a, const Trace &b)
{
    return a.program == b.program && a.events == b.events &&
           a.writeSites == b.writeSites &&
           a.totalWrites == b.totalWrites &&
           a.estimatedInstructions == b.estimatedInstructions;
}

/**
 * One table over every kind of input: readTrace, loadTrace and a full
 * MappedTrace decode must all return the same trace or all throw
 * TraceError. A reader that accepted bytes another rejects (trailing
 * junk after the footer, say) would let replay, query and the daemon
 * disagree about the same file.
 */
TEST(TraceIoAgreement, EveryReaderAcceptsAndRejectsTheSameInputs)
{
    struct Row
    {
        std::string label;
        std::string bytes;
        bool valid;
        /** When set, every reader must throw, naming this. */
        const char *rejection = nullptr;
        /** MappedTrace opens it (it decodes block by block), but it
         *  is too large to materialize: readTrace and loadTrace must
         *  throw the rejection. */
        bool mapsOnly = false;
    };
    std::vector<Row> rows;
    auto readFile = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    for (const char *name :
         {"mini_ghost.v2.trc", "mini_mixed.v2.trc", "mini_scatter.v2.trc",
          "mini_straddle.v2.trc", "mini_writes.v2.trc"}) {
        rows.push_back(
            {name, readFile(std::string(EDB_CORPUS_DIR) + "/" + name),
             true});
    }
    // The retired v1 flat container, frozen bytes (never regenerated).
    rows.push_back(
        {"retired v1 fixture",
         readFile(std::string(EDB_CORPUS_DIR) + "/mini_mixed.v1.trc"),
         false, "is a retired v1 flat trace (EDBTRC02); re-record it"});
    const std::string small = encode(randomTrace(7, 60));
    for (std::size_t len = 0; len < small.size(); ++len) {
        rows.push_back({"truncated to " + std::to_string(len),
                        small.substr(0, len), false});
    }
    for (int seed = 0; seed < 24; ++seed) {
        int round = 0;
        for (std::string &m : fuzzInputs(seed)) {
            rows.push_back({"fuzz seed " + std::to_string(seed) +
                                " round " + std::to_string(round++),
                            std::move(m), false});
        }
    }
    for (int seed = 0; seed < 8; ++seed) {
        int round = 0;
        for (std::string &m : randomFuzzInputs(seed)) {
            rows.push_back({"random fuzz seed " + std::to_string(seed) +
                                " round " + std::to_string(round++),
                            std::move(m), false});
        }
    }
    for (std::size_t junk : {1, 8, 4096}) {
        rows.push_back({std::to_string(junk) + " trailing bytes",
                        small + std::string(junk, '\x5a'), false});
    }
    rows.push_back({"forged 2^33-event count",
                    forgedEventCount(std::uint64_t{1} << 12), false,
                    "too large to materialize", true});

    TempTrace file;
    std::size_t accepted = 0;
    for (const Row &row : rows) {
        SCOPED_TRACE(row.label);
        const std::string &path = file.holding(row.bytes);
        if (row.mapsOnly) {
            EXPECT_NO_THROW((void)MappedTrace(path));
            for (const std::string &what :
                 {rejectionOf([&] { return readBytes(row.bytes); }),
                  rejectionOf([&] { return loadTrace(path); })}) {
                EXPECT_NE(what.find(row.rejection), std::string::npos)
                    << what;
            }
            continue;
        }
        const auto read = attempt([&] { return readBytes(row.bytes); });
        const auto load = attempt([&] { return loadTrace(path); });
        const auto mapped = attempt([&] { return decodeMapped(path); });
        ASSERT_EQ(read.has_value(), load.has_value());
        ASSERT_EQ(read.has_value(), mapped.has_value());
        ASSERT_TRUE(read.has_value() || !row.valid);
        if (row.rejection != nullptr) {
            for (const std::string &what :
                 {rejectionOf([&] { return readBytes(row.bytes); }),
                  rejectionOf([&] { return loadTrace(path); }),
                  rejectionOf(
                      [&] { return MappedTrace(path).eventCount(); })}) {
                EXPECT_NE(what.find(row.rejection), std::string::npos)
                    << what;
            }
        }
        if (read.has_value()) {
            ++accepted;
            ASSERT_TRUE(sameTrace(*read, *load));
            ASSERT_TRUE(sameTrace(*read, *mapped));
        }
    }
    EXPECT_GE(accepted, 5u);
}

/** `t` through one TraceWriter, its events appended in slices whose
 *  sizes `next` draws. */
template <typename Next>
std::string
encodeSliced(const Trace &t, const WriteOptions &opts, Next next)
{
    TraceWriter writer(opts);
    for (std::size_t pos = 0; pos < t.events.size();) {
        const std::size_t n = std::min(next(), t.events.size() - pos);
        writer.append(t.events.data() + pos, n);
        pos += n;
    }
    EXPECT_EQ(writer.eventCount(), t.events.size());
    std::stringstream ss;
    writer.finish(t, ss);
    return ss.str();
}

TEST(TraceWriter, SlicedAppendsWriteTheBytesOfOneWholeAppend)
{
    std::vector<std::pair<std::string, Trace>> traces;
    for (std::uint64_t seed : {1, 2, 3})
        traces.emplace_back("random " + std::to_string(seed),
                            randomTrace(seed, 400 * (int)seed));
    traces.emplace_back("random large", randomTrace(77, 9000));
    traces.emplace_back("empty", Trace{});
    for (const char *name : {"mini_mixed", "mini_writes", "mini_straddle",
                             "mini_ghost", "mini_scatter"}) {
        traces.emplace_back(name, loadTrace(std::string(EDB_CORPUS_DIR) +
                                            "/" + name + ".v2.trc"));
    }
    ASSERT_GT(traces[3].second.events.size(), 4097u);

    for (const auto &[name, t] : traces) {
        for (std::size_t block : {1, 3, 4096}) {
            SCOPED_TRACE(name + " at " + std::to_string(block));
            WriteOptions opts;
            opts.blockEvents = block;
            const std::string whole = encode(t, opts);
            for (std::size_t k : {1, 7, 4095, 4097}) {
                EXPECT_EQ(encodeSliced(t, opts, [k] { return k; }), whole)
                    << "slices of " << k;
            }
            Rng rng(block);
            EXPECT_EQ(encodeSliced(t, opts,
                                   [&rng] {
                                       // Empty appends included.
                                       return (std::size_t)rng.below(
                                           rng.below(4) == 0 ? 9000 : 9);
                                   }),
                      whole)
                << "random slices";
        }
    }
}

TEST(TraceIoErrors, SaveReportsAFailedFinalFlush)
{
    // An empty trace fits the stream's buffer, so its bytes reach the
    // device only on the final flush, which /dev/full fails (ENOSPC).
    if (::access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "/dev/full is not available";
    try {
        saveTrace(Trace{}, "/dev/full");
        FAIL() << "saveTrace to /dev/full returned normally";
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find("/dev/full"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace edb::trace
