/**
 * @file
 * Stability tests for the committed v2 mini-corpus (bench/corpus/,
 * regenerated only deliberately via tools/gen_trace_corpus). Today's
 * reader must keep decoding yesterday's bytes: these tests pin the
 * event counts, a content checksum, and the block shape of each
 * committed artifact, so an accidental wire-format change fails here
 * instead of silently orphaning saved traces.
 *
 * mini_mixed.v1.trc is the mixed trace in the retired v1 flat
 * container. It is frozen bytes, never regenerated: every front end
 * must refuse it with one typed error.
 *
 * EDB_CORPUS_DIR is injected by tests/CMakeLists.txt and points at the
 * checked-in corpus in the source tree.
 */

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "cli/cli.h"
#include "served/client.h"
#include "served/server.h"
#include "session/session.h"
#include "sim/relevance.h"
#include "sim/simulator.h"
#include "trace/index_format.h"
#include "trace/trace_io.h"

namespace {

using namespace edb;

std::string
corpusPath(const char *file)
{
    return std::string(EDB_CORPUS_DIR) + "/" + file;
}

/** FNV-1a over the fields replay consumes, in event order. */
std::uint64_t
eventChecksum(const trace::Trace &t)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    for (const trace::Event &e : t.events) {
        mix(e.begin);
        mix(e.size);
        mix(e.aux);
        mix((std::uint64_t)e.kind);
    }
    return h;
}

TEST(TraceCorpus, MixedV2DecodesWithPinnedContent)
{
    trace::Trace t = trace::loadTrace(corpusPath("mini_mixed.v2.trc"));
    EXPECT_EQ(t.program, "mini_mixed");
    EXPECT_EQ(t.events.size(), 1362u);
    EXPECT_EQ(t.totalWrites, 1200u);
    EXPECT_EQ(t.registry.objectCount(), 45u);
    EXPECT_EQ(eventChecksum(t), 0x2e0f66cefa14dd9aull);
}

TEST(TraceCorpus, MaterializingReservesExactlyTheEventCount)
{
    // readTrace and loadTrace reserve the header's event count up
    // front, so the event vector is never regrown while blocks decode.
    for (const char *name :
         {"mini_ghost.v2.trc", "mini_mixed.v2.trc", "mini_scatter.v2.trc",
          "mini_straddle.v2.trc", "mini_writes.v2.trc"}) {
        SCOPED_TRACE(name);
        const std::string path = corpusPath(name);
        const std::uint64_t events = trace::MappedTrace(path).eventCount();
        EXPECT_EQ(trace::loadTrace(path).events.capacity(), events);
        std::ifstream in(path, std::ios::binary);
        EXPECT_EQ(trace::readTrace(in).events.capacity(), events);
    }
}

TEST(TraceCorpus, RetiredV1FixtureIsRefusedByEveryFrontEnd)
{
    const std::string v1 = corpusPath("mini_mixed.v1.trc");
    const std::string retired =
        "is a retired v1 flat trace (EDBTRC02); re-record it";

    // The CLI reports the one message and exits 1.
    for (const char *cmd : {"info", "query", "analyze"}) {
        std::ostringstream out, err;
        EXPECT_EQ(cli::run({cmd, v1}, out, err), 1) << cmd;
        EXPECT_NE(err.str().find(retired), std::string::npos)
            << cmd << ": " << err.str();
    }

    // The daemon answers OPEN_TRACE with a typed ERR and goes on
    // serving: another tenant's RUN on the v2 twin of the same trace
    // matches the in-process oracle.
    served::ServerOptions options;
    options.socketPath = ::testing::TempDir() + "/edb_corpus_v1." +
                         std::to_string(::getpid()) + ".sock";
    served::Server server(options);
    server.start();
    served::Client bad;
    bad.connect(server.socketPath());
    bad.hello("bad");
    served::Client good;
    good.connect(server.socketPath());
    good.hello("good");
    const std::string v2 = corpusPath("mini_mixed.v2.trc");
    const served::OpenResult open = good.openTrace(v2);
    try {
        bad.openTrace(v1);
        ADD_FAILURE() << "OPEN_TRACE accepted a v1 trace";
    } catch (const served::ClientError &e) {
        EXPECT_EQ(e.code(), served::ErrCode::TraceLoadFailed);
        EXPECT_NE(std::string(e.what()).find(retired), std::string::npos)
            << e.what();
    }
    const served::RunReply run = good.run(open.traceId, {0, 1});
    trace::MappedTrace mapped(v2);
    const sim::SimResult oracle = sim::simulate(
        mapped, session::SessionSet::enumerate(mapped.registry()));
    ASSERT_TRUE(run.sessionMode);
    EXPECT_EQ(run.totalWrites, oracle.totalWrites);
    ASSERT_EQ(run.counters.size(), 2u);
    EXPECT_EQ(run.counters[0], oracle.counters[0]);
    EXPECT_EQ(run.counters[1], oracle.counters[1]);
    bad.bye();
    good.bye();
    server.stop();
}

TEST(TraceCorpus, WritesV2KeepsBlockShapeAndSkipsUnderSparseSession)
{
    const std::string path = corpusPath("mini_writes.v2.trc");
    trace::Trace t = trace::loadTrace(path);
    EXPECT_EQ(t.program, "mini_writes");
    EXPECT_EQ(t.events.size(), 3212u);
    EXPECT_EQ(t.totalWrites, 3208u);
    EXPECT_EQ(t.registry.objectCount(), 2u);
    EXPECT_EQ(eventChecksum(t), 0x01969e4ff2a4f07dull);

    trace::MappedTrace mapped(path);
    EXPECT_EQ(mapped.blockCount(), 26u);
    std::size_t pure = 0;
    for (std::size_t b = 0; b < mapped.blockCount(); ++b)
        pure += mapped.block(b).pureWrites() ? 1 : 0;
    EXPECT_EQ(pure, 24u);

    // The hot loop writes only the arena, so a session monitoring the
    // small `state` global must actually exercise the skip fast path
    // on this artifact — and stay bit-identical to the full decode.
    session::SessionSet set = session::SessionSet::enumerate(t);
    session::SessionId study = 0;
    bool found = false;
    for (const session::SessionInfo &s : set.sessions()) {
        if (s.type == session::SessionType::OneGlobalStatic &&
            t.registry.object(s.object).name == "state") {
            study = s.id;
            found = true;
        }
    }
    ASSERT_TRUE(found);
    session::SessionSet sub = set.subset({study});
    sim::BlockSkipStats skip;
    sim::SimResult mapped_result = sim::simulate(mapped, sub, &skip);
    EXPECT_GT(skip.blocksSkipped, 0u);
    EXPECT_TRUE(mapped_result == sim::simulate(t, sub));
}

TEST(TraceCorpus, StraddleV2PinnedAndActuallyStraddles)
{
    const std::string path = corpusPath("mini_straddle.v2.trc");
    trace::Trace t = trace::loadTrace(path);
    EXPECT_EQ(t.program, "mini_straddle");
    EXPECT_EQ(t.events.size(), 1970u);
    EXPECT_EQ(t.totalWrites, 1920u);
    EXPECT_EQ(t.registry.objectCount(), 25u);
    EXPECT_EQ(eventChecksum(t), 0xada792560a57ccf0ull);

    trace::MappedTrace mapped(path);
    EXPECT_EQ(mapped.blockCount(), 16u);

    // The adversarial property this artifact exists for: a healthy
    // share of its writes cross an 8 KiB summary-page boundary.
    std::size_t straddling = 0;
    for (const trace::Event &e : t.events) {
        if (e.kind == trace::EventKind::Write && e.size > 0 &&
            (e.begin >> 13) != ((e.begin + e.size - 1) >> 13)) {
            ++straddling;
        }
    }
    EXPECT_GT(straddling, 100u);
}

TEST(TraceCorpus, GhostV2PinnedWithMatchingSummariesButNoRows)
{
    const std::string path = corpusPath("mini_ghost.v2.trc");
    trace::Trace t = trace::loadTrace(path);
    EXPECT_EQ(t.program, "mini_ghost");
    EXPECT_EQ(t.events.size(), 3005u);
    EXPECT_EQ(t.totalWrites, 3001u);
    EXPECT_EQ(t.registry.objectCount(), 2u);
    EXPECT_EQ(eventChecksum(t), 0xef72a70b8ad2fe0full);

    trace::MappedTrace mapped(path);
    EXPECT_EQ(mapped.blockCount(), 24u);

    // Find the monitored target global via its install event (the
    // registry holds sizes, not placements).
    AddrRange target{0, 0};
    bool found = false;
    for (const trace::Event &e : t.events) {
        if (e.kind == trace::EventKind::InstallMonitor &&
            t.registry.object((trace::ObjectId)e.aux).name ==
                "target") {
            target = e.range();
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found);

    // The ghost property: at least one block's summary runs cover the
    // target's summary page while none of the block's writes touch a
    // byte of the target. A sound planner must decode such blocks and
    // may only then discover the zero.
    const Addr page = target.begin >> 13;
    std::vector<trace::Event> events(mapped.largestBlockEvents());
    std::size_t ghost_blocks = 0;
    std::uint64_t target_rows = 0;
    for (std::size_t b = 0; b < mapped.blockCount(); ++b) {
        const auto &blk = mapped.block(b);
        bool covers = false;
        for (const auto &r : blk.runs)
            covers = covers || r.contains(page);
        if (!covers)
            continue;
        mapped.decodeBlock(b, events.data());
        std::uint64_t hits = 0;
        for (std::uint64_t j = 0; j < blk.events; ++j) {
            const trace::Event &e = events[j];
            if (e.kind == trace::EventKind::Write && e.size > 0 &&
                e.range().intersects(target)) {
                ++hits;
            }
        }
        target_rows += hits;
        if (hits == 0)
            ++ghost_blocks;
    }
    EXPECT_GT(ghost_blocks, 10u);
    EXPECT_EQ(target_rows, 1u); // the single real write at the end
}

TEST(TraceCorpus, ScatterV2PinnedAndExercisesBitmapPath)
{
    const std::string path = corpusPath("mini_scatter.v2.trc");
    trace::Trace t = trace::loadTrace(path);
    EXPECT_EQ(t.program, "mini_scatter");
    EXPECT_EQ(t.events.size(), 1958u);
    EXPECT_EQ(t.totalWrites, 1932u);
    EXPECT_EQ(t.registry.objectCount(), 13u);
    EXPECT_EQ(eventChecksum(t), 0xaff5e0afd0b39879ull);

    trace::MappedTrace mapped(path);
    EXPECT_EQ(mapped.blockCount(), 16u);

    // The scattered sprays must force the occupancy bitmap to carry
    // both container encodings and a dense posting list — the shape
    // the sidecar index's candidateBlocks() path is built for.
    trace::TraceIndex idx = trace::buildTraceIndex(mapped);
    bool run_encoded = false;
    bool array_encoded = false;
    for (const trace::IndexContainer &c : idx.containers)
        (c.runEncoded ? run_encoded : array_encoded) = true;
    EXPECT_TRUE(run_encoded);
    EXPECT_TRUE(array_encoded);
    EXPECT_GE(idx.postings.size(), 8 * mapped.blockCount());

    // candidateBlocks() must reproduce the per-block
    // rangeTouchesRuns verdicts exactly, bit for bit, across the
    // trace's own occupied address span (plus both margins).
    Addr lo = ~(Addr)0, hi = 0;
    for (std::size_t b = 0; b < mapped.blockCount(); ++b) {
        for (const auto &r : mapped.block(b).runs) {
            lo = std::min(lo, r.firstPage << 13);
            hi = std::max(hi, (r.firstPage + r.pages) << 13);
        }
    }
    ASSERT_LT(lo, hi);
    lo = lo > 16384 ? lo - 16384 : 0;
    for (Addr probe = lo; probe < hi + 16384;
         probe += 3 * 8192 + 40) {
        const AddrRange r{probe, probe + 24};
        std::vector<std::uint64_t> bits(
            (mapped.blockCount() + 63) / 64, 0);
        idx.candidateBlocks(&r, 1, bits);
        for (std::size_t b = 0; b < mapped.blockCount(); ++b) {
            const auto &blk = mapped.block(b);
            const bool expect = sim::rangeTouchesRuns(
                r, blk.runs.begin(), blk.runs.size());
            const bool got =
                ((bits[b >> 6] >> (b & 63)) & 1) != 0;
            EXPECT_EQ(got, expect)
                << "range [" << r.begin << "," << r.end
                << ") block " << b;
        }
    }
}

} // namespace
