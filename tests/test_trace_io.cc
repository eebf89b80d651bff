/**
 * @file
 * Tests for the binary trace file format: round trips, compactness,
 * malformed-input handling, and the agreement of every reader —
 * readTrace, loadTrace and MappedTrace — on what a well-formed trace
 * is.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "testing/random_trace.h"
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
    expectTracesEqual(loadTrace(file.holding(encode(original))), original);
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

    TempTrace file;
    std::size_t accepted = 0;
    for (const Row &row : rows) {
        SCOPED_TRACE(row.label);
        const std::string &path = file.holding(row.bytes);
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

} // namespace
} // namespace edb::trace
