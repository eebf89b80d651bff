/**
 * @file
 * Differential tests for the vectorized kernels (DESIGN.md §14): the
 * scalar fallback is the oracle, and every other ISA the machine can
 * run must be byte-identical to it — on well-formed traces, on the
 * pinned corpus, on corrupted streams (same success/error and the
 * same message), on batched MonitorIndex probes, and on full replay
 * counters, observability tallies included.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "obs/obs.h"
#include "session/session.h"
#include "sim/simulator.h"
#include "testing/isa_guard.h"
#include "testing/random_trace.h"
#include "trace/trace_io.h"
#include "util/simd.h"
#include "wms/monitor_index.h"

namespace {

using namespace edb;
using testgen::IsaGuard;
using testgen::randomTrace;
using trace::Event;
using trace::MappedTrace;
using trace::Trace;
using trace::TraceError;
using trace::WriteBatch;
using trace::WriteOptions;
using util::SimdIsa;

std::string
encode(const Trace &t, const WriteOptions &opts = {})
{
    std::stringstream ss;
    trace::writeTrace(t, ss, opts);
    return ss.str();
}

std::string
tempPath(const char *tag)
{
    return ::testing::TempDir() + "/edb_simd_" + tag + "." +
           std::to_string(::getpid()) + ".trc";
}

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

/** Every block of `m` decoded through decodeBlock() under `isa`. */
std::vector<Event>
decodeAll(const MappedTrace &m, SimdIsa isa)
{
    util::simdOverride(isa);
    std::vector<Event> out;
    std::vector<Event> buf(m.largestBlockEvents());
    for (std::size_t b = 0; b < m.blockCount(); ++b) {
        m.decodeBlock(b, buf.data());
        out.insert(out.end(), buf.begin(),
                   buf.begin() + (std::ptrdiff_t)m.block(b).events);
    }
    return out;
}

/** Every block of `m` decoded through the per-event reference walker. */
std::vector<Event>
decodeAllReference(const MappedTrace &m)
{
    std::vector<Event> out;
    std::vector<Event> buf(m.largestBlockEvents());
    for (std::size_t b = 0; b < m.blockCount(); ++b) {
        m.decodeBlockReference(b, buf.data());
        out.insert(out.end(), buf.begin(),
                   buf.begin() + (std::ptrdiff_t)m.block(b).events);
    }
    return out;
}

void
expectBatchesEqual(const WriteBatch &a, const WriteBatch &b)
{
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.ctl, b.ctl);
    EXPECT_EQ(a.ctlPos, b.ctlPos);
    EXPECT_EQ(a.wrBegin, b.wrBegin);
    EXPECT_EQ(a.wrSize, b.wrSize);
    EXPECT_EQ(a.wrAux, b.wrAux);
}

/** ISAs to differentiate: always scalar, plus the best the machine
 *  supports when that is something else. */
std::vector<SimdIsa>
isasUnderTest()
{
    std::vector<SimdIsa> isas{SimdIsa::Scalar};
    if (util::simdDetect() != SimdIsa::Scalar)
        isas.push_back(util::simdDetect());
    return isas;
}

TEST(SimdKernels, RandomTracesDecodeIdenticallyAcrossIsas)
{
    IsaGuard guard;
    const std::size_t block_events[] = {1, 7, 64, 0};
    for (unsigned seed : {11u, 22u, 33u}) {
        Trace t = randomTrace(seed, 600);
        for (std::size_t be : block_events) {
            WriteOptions opts;
            if (be)
                opts.blockEvents = be;
            TempFile f("rand", encode(t, opts));
            MappedTrace m(f.path());

            const std::vector<Event> oracle = decodeAllReference(m);
            ASSERT_EQ(oracle.size(), t.events.size());
            for (SimdIsa isa : isasUnderTest()) {
                SCOPED_TRACE(util::simdIsaName(isa));
                EXPECT_EQ(decodeAll(m, isa), oracle);
            }

            // The SoA batch output must match across ISAs too — the
            // replay engine consumes it without re-interleaving.
            util::simdOverride(SimdIsa::Scalar);
            WriteBatch scalar_wb, vec_wb;
            for (std::size_t b = 0; b < m.blockCount(); ++b) {
                util::simdOverride(SimdIsa::Scalar);
                m.decodeBlockBatch(b, scalar_wb);
                util::simdOverride(util::simdDetect());
                m.decodeBlockBatch(b, vec_wb);
                expectBatchesEqual(scalar_wb, vec_wb);
            }
        }
    }
}

TEST(SimdKernels, CorpusTracesDecodeIdenticallyAcrossIsas)
{
    IsaGuard guard;
    const char *files[] = {"mini_mixed.v2.trc", "mini_writes.v2.trc",
                           "mini_straddle.v2.trc", "mini_ghost.v2.trc"};
    for (const char *file : files) {
        SCOPED_TRACE(file);
        MappedTrace m(std::string(EDB_CORPUS_DIR) + "/" + file);
        const std::vector<Event> oracle = decodeAllReference(m);
        for (SimdIsa isa : isasUnderTest()) {
            SCOPED_TRACE(util::simdIsaName(isa));
            EXPECT_EQ(decodeAll(m, isa), oracle);
        }
    }
}

/** Outcome of decoding a whole (possibly corrupted) trace file. */
struct DecodeOutcome
{
    bool ok = false;
    std::vector<Event> events; ///< when ok
    std::string error;         ///< TraceError::what() when !ok

    bool operator==(const DecodeOutcome &) const = default;
};

DecodeOutcome
tryDecode(const std::string &path, SimdIsa isa)
{
    util::simdOverride(isa);
    DecodeOutcome out;
    try {
        MappedTrace m(path);
        out.events = decodeAll(m, isa);
        out.ok = true;
    } catch (const TraceError &e) {
        out.error = e.what();
    }
    return out;
}

TEST(SimdKernels, CorruptionOutcomesIdenticalAcrossIsas)
{
    if (util::simdDetect() == SimdIsa::Scalar)
        GTEST_SKIP() << "no vector ISA on this machine";
    IsaGuard guard;

    Trace t = randomTrace(77, 900);
    WriteOptions opts;
    opts.blockEvents = 64;
    const std::string pristine = encode(t, opts);

    std::mt19937 rng(20260808);
    std::size_t accepted = 0, rejected = 0;
    for (int round = 0; round < 120; ++round) {
        std::string bytes = pristine;
        const int flips = 1 + (int)(rng() % 3);
        for (int i = 0; i < flips; ++i)
            bytes[rng() % bytes.size()] ^= (char)(1u << (rng() % 8));

        TempFile f("fuzz", bytes);
        const DecodeOutcome scalar = tryDecode(f.path(), SimdIsa::Scalar);
        const DecodeOutcome vec = tryDecode(f.path(), util::simdDetect());
        EXPECT_EQ(scalar.ok, vec.ok) << "round " << round;
        EXPECT_EQ(scalar.error, vec.error) << "round " << round;
        if (scalar.ok && vec.ok) {
            EXPECT_EQ(scalar.events, vec.events) << "round " << round;
        }
        (scalar.ok ? accepted : rejected)++;
    }
    // The corpus of mutations must actually exercise both sides of
    // the contract, or the test is vacuous.
    EXPECT_GT(rejected, 0u);
}

TEST(SimdKernels, BatchProbesMatchScalarProbes)
{
    IsaGuard guard;
    for (SimdIsa isa : isasUnderTest()) {
        SCOPED_TRACE(util::simdIsaName(isa));
        util::simdOverride(isa);

        wms::MonitorIndex idx(4096);
        // Overlapping installs, a page-boundary straddle, and two
        // pages that alias the same shadow-directory slot.
        idx.install(AddrRange(0x1000, 0x1040));
        idx.install(AddrRange(0x1020, 0x1080)); // overlap
        idx.install(AddrRange(0x2ff8, 0x3010)); // straddles 0x3000
        idx.install(AddrRange(0x40001000, 0x40001100));
        idx.install(AddrRange(0x80001000, 0x80001010)); // slot alias

        std::mt19937_64 rng(4242);
        for (int round = 0; round < 16; ++round) {
            std::vector<Addr> addrs;
            for (std::size_t i = 0; i < 64; ++i) {
                switch (rng() % 4) {
                case 0:
                    addrs.push_back(0x1000 + rng() % 0x100);
                    break;
                case 1:
                    addrs.push_back(0x2f00 + rng() % 0x200);
                    break;
                case 2:
                    addrs.push_back(0x40000f00 + rng() % 0x300);
                    break;
                default:
                    addrs.push_back(rng()); // mostly misses
                }
            }
            for (std::size_t n : {std::size_t(1), std::size_t(7),
                                  std::size_t(16), std::size_t(64)}) {
                std::uint64_t want = 0;
                for (std::size_t i = 0; i < n; ++i)
                    want |= (std::uint64_t)idx.lookupByte(addrs[i]) << i;
                EXPECT_EQ(idx.lookupBytesBatch(addrs.data(), n), want);
            }

            std::vector<Addr> begins, ends;
            for (std::size_t i = 0; i < 32; ++i) {
                const Addr b = addrs[i];
                begins.push_back(b);
                ends.push_back(b + 1 + rng() % 64);
            }
            std::uint64_t want = 0;
            for (std::size_t i = 0; i < begins.size(); ++i)
                want |= (std::uint64_t)idx.lookup(
                            AddrRange(begins[i], ends[i]))
                        << i;
            EXPECT_EQ(idx.lookupRangesBatch(begins.data(), ends.data(),
                                            begins.size()),
                      want);
        }

        // Removal must be reflected by the batched path as well.
        idx.remove(AddrRange(0x1020, 0x1080));
        idx.remove(AddrRange(0x1000, 0x1040));
        const Addr gone[2] = {0x1000, 0x1030};
        EXPECT_EQ(idx.lookupBytesBatch(gone, 2), 0u);
    }
}

#if EDB_OBS_ENABLED
TEST(SimdKernels, BatchProbesKeepScalarObsTallies)
{
    IsaGuard guard;
    util::simdOverride(util::simdDetect());

    std::vector<Addr> addrs;
    std::mt19937_64 rng(99);
    for (std::size_t i = 0; i < 64; ++i)
        addrs.push_back(i % 3 ? rng() : 0x5000 + rng() % 0x80);

    auto tallies = [&](bool batch) {
        obs::Snapshot before = obs::takeSnapshot();
        {
            wms::MonitorIndex idx(4096);
            idx.install(AddrRange(0x5000, 0x5080));
            for (int round = 0; round < 8; ++round) {
                if (batch) {
                    idx.lookupBytesBatch(addrs.data(), addrs.size());
                } else {
                    for (Addr a : addrs)
                        idx.lookupByte(a);
                }
            }
        } // fold per-index tallies into the process counters
        obs::Snapshot after = obs::takeSnapshot();
        return std::array<std::int64_t, 3>{
            after.counter("wms.index.lookups") -
                before.counter("wms.index.lookups"),
            after.counter("wms.shadow.fast") -
                before.counter("wms.shadow.fast"),
            after.counter("wms.shadow.fallback") -
                before.counter("wms.shadow.fallback"),
        };
    };

    const auto scalar = tallies(false);
    const auto batched = tallies(true);
    EXPECT_EQ(scalar, batched);
    EXPECT_EQ(scalar[0], (std::int64_t)(8 * addrs.size()));
    EXPECT_EQ(scalar[0], scalar[1] + scalar[2]);
}

TEST(SimdKernels, BatchedDecodeKeepsScalarObsCounters)
{
    IsaGuard guard;
    Trace t = randomTrace(55, 700);
    WriteOptions opts;
    opts.blockEvents = 64;
    TempFile f("obs", encode(t, opts));
    MappedTrace m(f.path());

    auto deltas = [&](SimdIsa isa) {
        obs::Snapshot before = obs::takeSnapshot();
        decodeAll(m, isa);
        obs::Snapshot after = obs::takeSnapshot();
        return std::array<std::int64_t, 3>{
            after.counter("trace.v2.blocks_decoded") -
                before.counter("trace.v2.blocks_decoded"),
            after.counter("trace.v2.bytes_encoded") -
                before.counter("trace.v2.bytes_encoded"),
            after.counter("trace.v2.bytes_raw") -
                before.counter("trace.v2.bytes_raw"),
        };
    };

    const auto scalar = deltas(SimdIsa::Scalar);
    EXPECT_EQ(scalar[0], (std::int64_t)m.blockCount());
    for (SimdIsa isa : isasUnderTest()) {
        SCOPED_TRACE(util::simdIsaName(isa));
        EXPECT_EQ(deltas(isa), scalar);
    }
}
#endif

TEST(SimdKernels, ReplayCountersIdenticalAcrossIsas)
{
    IsaGuard guard;
    Trace t = randomTrace(88, 1200);
    WriteOptions opts;
    opts.blockEvents = 64;
    TempFile f("sim", encode(t, opts));
    MappedTrace m(f.path());

    session::SessionSet sessions = session::SessionSet::enumerate(t);

    util::simdOverride(SimdIsa::Scalar);
    const sim::SimResult oracle = sim::simulate(m, sessions);
    EXPECT_TRUE(oracle == sim::simulate(t, sessions));

    for (SimdIsa isa : isasUnderTest()) {
        SCOPED_TRACE(util::simdIsaName(isa));
        util::simdOverride(isa);
        EXPECT_TRUE(sim::simulate(m, sessions) == oracle);
    }
}

} // namespace
