/**
 * @file
 * Tests for the persistent sidecar trace index (`<trace>.edbi`,
 * trace/index_format.h): build/save/load/validate round trips,
 * MappedTrace auto-discovery and the EDB_TRACE_INDEX pin, the
 * truncation/byte-flip robustness contract mirrored from
 * test_trace_v2.cc, stale-sidecar rejection, and the differential
 * guarantee — query results, replay results and planner decisions are
 * bit-identical with the index attached, absent, stale, or corrupt.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "obs/obs.h"
#include "query/query.h"
#include "session/session.h"
#include "sim/parallel_sim.h"
#include "sim/simulator.h"
#include "testing/random_trace.h"
#include "trace/index_format.h"
#include "trace/trace_io.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace edb::trace {
namespace {

using testgen::randomTrace;

std::string
tempPath(const char *tag)
{
    return ::testing::TempDir() + "/edb_idx_" + tag + "." +
           std::to_string(::getpid()) + ".trc";
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), (std::streamsize)bytes.size());
    os.close();
    ASSERT_TRUE(os.good()) << path;
}

/** RAII: a v2 trace on disk, optionally with its sidecar. */
class SavedTrace
{
  public:
    SavedTrace(const Trace &t, const char *tag, bool with_index)
        : path_(tempPath(tag))
    {
        saveTrace(t, path_);
        if (with_index) {
            const MappedTrace mapped(path_);
            TraceIndex idx = buildTraceIndex(mapped);
            saveTraceIndex(idx, traceIndexPathFor(path_));
        }
    }

    ~SavedTrace()
    {
        std::remove(path_.c_str());
        std::remove(traceIndexPathFor(path_).c_str());
    }

    const std::string &path() const { return path_; }
    std::string sidecar() const { return traceIndexPathFor(path_); }

  private:
    std::string path_;
};

/** Scoped EDB_TRACE_INDEX override restoring the previous value, so
 *  these tests pass under CI's gcc-index-off pin too: tests that
 *  assert attachment force "on", tests of the pin force "off". */
class ScopedIndexEnv
{
  public:
    explicit ScopedIndexEnv(const char *value)
    {
        const char *prev = ::getenv("EDB_TRACE_INDEX");
        had_ = prev != nullptr;
        if (had_)
            prev_ = prev;
        ::setenv("EDB_TRACE_INDEX", value, 1);
    }

    ~ScopedIndexEnv()
    {
        if (had_)
            ::setenv("EDB_TRACE_INDEX", prev_.c_str(), 1);
        else
            ::unsetenv("EDB_TRACE_INDEX");
    }

  private:
    bool had_ = false;
    std::string prev_;
};

std::uint64_t
digestOf(const std::string &bytes)
{
    return xxh64((const unsigned char *)bytes.data(), bytes.size());
}

TEST(TraceDigest, MatchesThePublishedVectors)
{
    EXPECT_EQ(digestOf(""), 0xEF46DB3751D8E999ull);
    EXPECT_EQ(digestOf("a"), 0xD24EC4F1A98C6E5Bull);
    EXPECT_EQ(digestOf("abc"), 0x44BC2CF5AD770999ull);
    // 39 bytes: one 32-byte stripe, then the 4-byte and 1-byte tails.
    EXPECT_EQ(digestOf("Nobody inspects the spammish repetition"),
              0xFBCEA83C8A378BF1ull);
}

/** 97 bytes: three stripes plus an 8-, a 4- and a 1-byte tail. */
std::string
digestProbe()
{
    std::string bytes(97, '\0');
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = (char)(i * 37 + 11);
    return bytes;
}

TEST(TraceDigest, EveryPrefixLengthHashesDifferently)
{
    const std::string bytes = digestProbe();
    std::set<std::uint64_t> seen;
    for (std::size_t n = 0; n <= bytes.size(); ++n)
        seen.insert(digestOf(bytes.substr(0, n)));
    EXPECT_EQ(seen.size(), bytes.size() + 1);
}

TEST(TraceDigest, EverySingleBitFlipChangesTheDigest)
{
    const std::string bytes = digestProbe();
    const std::uint64_t base = digestOf(bytes);
    std::set<std::uint64_t> seen{base};
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string flipped = bytes;
            flipped[i] = (char)(flipped[i] ^ (1 << bit));
            EXPECT_TRUE(seen.insert(digestOf(flipped)).second)
                << "byte " << i << " bit " << bit;
        }
    }
}

TEST(TraceDigest, StartAlignmentDoesNotChangeTheDigest)
{
    const std::string bytes = digestProbe();
    const std::uint64_t base = digestOf(bytes);
    alignas(8) unsigned char buf[8 + 97];
    for (std::size_t off = 0; off < 8; ++off) {
        std::memcpy(buf + off, bytes.data(), bytes.size());
        EXPECT_EQ(xxh64(buf + off, bytes.size()), base) << "offset " << off;
    }
}

TEST(TraceDigest, CorpusDigestsArePinned)
{
    // The low 32 bits of each equal the XXH64 content checksum that
    // `zstd --check` stores for the same file.
    const std::pair<const char *, std::uint64_t> pinned[] = {
        {"mini_ghost.v2.trc", 0xa00c132320be7e74ull},
        {"mini_mixed.v2.trc", 0x819cba65d51559e2ull},
        {"mini_scatter.v2.trc", 0x56f50f13b296df6eull},
        {"mini_straddle.v2.trc", 0xba649fd0dea20f01ull},
        {"mini_writes.v2.trc", 0x479ad2dd1f768c2cull},
    };
    for (const auto &[name, digest] : pinned) {
        const std::string path = std::string(EDB_CORPUS_DIR) + "/" + name;
        EXPECT_EQ(digestOf(readFile(path)), digest) << name;
        EXPECT_EQ(MappedTrace(path).contentDigest(), digest) << name;
    }
}

#if EDB_OBS_ENABLED
TEST(TraceDigest, OnlyAnIndexedOpenDigestsAndOnlyOnce)
{
    ScopedIndexEnv on("on");
    const Trace t = randomTrace(0xD16E57, 2000);
    SavedTrace plain(t, "digest_plain", false);
    SavedTrace indexed(t, "digest_indexed", true);
    const auto spans = [] {
        const obs::Snapshot snap = obs::takeSnapshot();
        const obs::HistogramValue *h = snap.histogram("trace.digest_ns");
        return h != nullptr ? h->count : 0;
    };

    const std::uint64_t before = spans();
    const MappedTrace unindexed(plain.path());
    EXPECT_EQ(spans(), before);

    const MappedTrace mapped(indexed.path());
    ASSERT_NE(mapped.index(), nullptr);
    EXPECT_EQ(spans(), before + 1);
    (void)mapped.contentDigest();
    EXPECT_EQ(spans(), before + 1);
}
#endif

TEST(TraceIndex, RoundTripPreservesEveryStructure)
{
    const Trace t = randomTrace(0x1D6701, 4000);
    SavedTrace f(t, "roundtrip", false);
    const MappedTrace mapped(f.path());

    TraceIndex built = buildTraceIndex(mapped);
    saveTraceIndex(built, f.sidecar());
    const TraceIndex loaded = loadTraceIndex(f.sidecar());
    validateTraceIndex(loaded, mapped, f.sidecar());

    EXPECT_EQ(loaded.version, traceIndexVersion);
    EXPECT_EQ(loaded.traceDigest, mapped.contentDigest());
    EXPECT_EQ(loaded.traceBytes, mapped.fileBytes());
    EXPECT_EQ(loaded.blockCount, mapped.blockCount());
    EXPECT_EQ(loaded.eventCount, mapped.eventCount());

    ASSERT_EQ(loaded.extents.size(), built.extents.size());
    for (std::size_t i = 0; i < built.extents.size(); ++i) {
        EXPECT_EQ(loaded.extents[i].object, built.extents[i].object);
        EXPECT_EQ(loaded.extents[i].count, built.extents[i].count);
        EXPECT_EQ(loaded.extents[i].blocks, built.extents[i].blocks);
    }

    // The recorded section sizes must tile the file exactly: header,
    // extents, then the 8-byte self-digest.
    EXPECT_EQ(loaded.bytesHeader + loaded.bytesExtents + 8,
              loaded.fileBytes);
    EXPECT_EQ(loaded.fileBytes, readFile(f.sidecar()).size());
}

TEST(TraceIndex, AutoDiscoveryAttachesAndEnvPinDisables)
{
    const Trace t = randomTrace(0x1D6702, 2500);
    SavedTrace f(t, "discover", true);

    {
        ScopedIndexEnv on("on");
        const MappedTrace mapped(f.path());
        ASSERT_NE(mapped.index(), nullptr);
        EXPECT_EQ(mapped.index()->blockCount, mapped.blockCount());
    }
    {
        ScopedIndexEnv off("off");
        const MappedTrace mapped(f.path());
        EXPECT_EQ(mapped.index(), nullptr);
    }
    {
        // "0" is the documented synonym for off.
        ScopedIndexEnv zero("0");
        const MappedTrace mapped(f.path());
        EXPECT_EQ(mapped.index(), nullptr);
    }
}

TEST(TraceIndexErrors, EveryTruncationFailsCleanlyAndFallsBack)
{
    const Trace t = randomTrace(0x1D6703, 2000);
    SavedTrace f(t, "trunc", true);
    const std::string good = readFile(f.sidecar());
    ASSERT_GT(good.size(), 32u);

    for (std::size_t len = 0; len < good.size(); ++len) {
        writeFile(f.sidecar(), good.substr(0, len));
        EXPECT_THROW(loadTraceIndex(f.sidecar()), TraceError)
            << "truncation to " << len << " bytes parsed";
    }

    // Auto-discovery on the truncated sidecar must fall back, not
    // throw: the mapping opens and plans linearly.
    writeFile(f.sidecar(), good.substr(0, good.size() / 2));
    const MappedTrace mapped(f.path());
    EXPECT_EQ(mapped.index(), nullptr);

    // Trailing garbage is corruption too, not padding.
    writeFile(f.sidecar(), good + "x");
    EXPECT_THROW(loadTraceIndex(f.sidecar()), TraceError);
}

TEST(TraceIndexErrors, ByteFlipFuzzNeverCrashesOrMisplans)
{
    const Trace t = randomTrace(0x1D6704, 2500);
    SavedTrace f(t, "fuzz", true);
    const MappedTrace reference(f.path());
    const std::string good = readFile(f.sidecar());

    Rng rng(0xF1ee1D);
    int rejected = 0;
    int with_offset = 0;
    for (int iter = 0; iter < 400; ++iter) {
        std::string bytes = good;
        const int flips = 1 + (int)rng.below(3);
        for (int i = 0; i < flips; ++i) {
            const std::size_t at = rng.below(bytes.size());
            bytes[at] ^= (char)(1 + rng.below(255));
        }
        if (bytes == good)
            continue;
        writeFile(f.sidecar(), bytes);
        try {
            const TraceIndex idx = loadTraceIndex(f.sidecar());
            validateTraceIndex(idx, reference, f.sidecar());
            // Indistinguishable from pristine is the only acceptable
            // way through (e.g. two flips cancelling).
            EXPECT_EQ(readFile(f.sidecar()), good);
        } catch (const TraceError &e) {
            ++rejected;
            if (std::string(e.what()).find("at byte") !=
                std::string::npos)
                ++with_offset;
        }
        // Never assert/abort/hang — reaching here each iteration is
        // the contract.
    }
    EXPECT_GT(rejected, 300);
    EXPECT_GT(with_offset, 0)
        << "no rejection reported a byte offset";

    // And a corrupt sidecar must not block the trace itself.
    const MappedTrace mapped(f.path());
    EXPECT_EQ(mapped.index(), nullptr);
}

TEST(TraceIndexErrors, StaleSidecarIsRejectedAndFallsBack)
{
    ScopedIndexEnv on("on");
    const Trace a = randomTrace(0x1D6705, 2000);
    const Trace b = randomTrace(0x1D6706, 2000);
    SavedTrace f(a, "stale", true);
    // Overwrite the trace, orphaning the sidecar.
    saveTrace(b, f.path());

#if EDB_OBS_ENABLED
    const std::int64_t stale_before =
        obs::takeSnapshot().counter("trace.idx.stale");
#endif
    const MappedTrace mapped(f.path());
    EXPECT_EQ(mapped.index(), nullptr);
#if EDB_OBS_ENABLED
    EXPECT_GT(obs::takeSnapshot().counter("trace.idx.stale"),
              stale_before);
#endif

    // The sidecar itself is well-formed — staleness is the
    // cross-check against the trace, not a parse failure.
    const TraceIndex idx = loadTraceIndex(f.sidecar());
    EXPECT_THROW(validateTraceIndex(idx, mapped, f.sidecar()),
                 TraceError);

    // Rebuilt in place, it attaches again.
    TraceIndex fresh = buildTraceIndex(mapped);
    saveTraceIndex(fresh, f.sidecar());
    const MappedTrace remapped(f.path());
    EXPECT_NE(remapped.index(), nullptr);
#if EDB_OBS_ENABLED
    EXPECT_GT(obs::takeSnapshot().counter("trace.idx.hits"), 0);
#endif
}

/** LEB128 varint bytes, as the sidecar writer emits them. */
std::string
varintBytes(std::uint64_t v)
{
    std::string out;
    while (v >= 0x80) {
        out.push_back((char)(v | 0x80));
        v >>= 7;
    }
    out.push_back((char)v);
    return out;
}

/** Length of the varint at `at`. */
std::size_t
varintLen(const std::string &bytes, std::size_t at)
{
    std::size_t n = 1;
    while ((unsigned char)bytes[at + n - 1] & 0x80)
        ++n;
    return n;
}

/** A query over a mapping with a rejected sidecar: it must have fallen
 *  back, ticked trace.idx.stale, and still answer scanAll's count. */
void
expectRejectedAndAnswering(const Trace &t, const std::string &path)
{
#if EDB_OBS_ENABLED
    const std::int64_t stale_before =
        obs::takeSnapshot().counter("trace.idx.stale");
#endif
    const MappedTrace mapped(path);
    EXPECT_EQ(mapped.index(), nullptr);
#if EDB_OBS_ENABLED
    EXPECT_GT(obs::takeSnapshot().counter("trace.idx.stale"),
              stale_before);
#endif
    const session::SessionSet set = session::SessionSet::enumerate(t);
    query::QuerySpec spec;
    spec.kindMask = query::kindBit(EventKind::Write);
    EXPECT_EQ(query::runQuery(mapped, set, spec).matches,
              query::scanAll(t, set, spec).matches);
}

TEST(TraceIndexErrors, ForgedCountsAreRejectedBeforeAllocating)
{
    ScopedIndexEnv on("on");
    const Trace t = randomTrace(0x1D6707, 2500);
    SavedTrace f(t, "forged", true);
    std::string bytes = readFile(f.sidecar());

    // Skip magic, version, trace digest, trace bytes, block and event
    // counts; then claim 2^40 objects and 2^40 extents.
    std::size_t at = 4;
    at += varintLen(bytes, at) + 8;
    for (int i = 0; i < 3; ++i)
        at += varintLen(bytes, at);
    const std::size_t objects = varintLen(bytes, at);
    const std::size_t extents = varintLen(bytes, at + objects);
    const std::string huge = varintBytes(std::uint64_t{1} << 40);
    bytes = bytes.substr(0, at) + huge + huge +
            bytes.substr(at + objects + extents);
    // Re-sign: the self-digest is a checksum, not a MAC.
    const std::size_t payloadEnd = bytes.size() - 8;
    const std::uint64_t digest = xxh64(
        (const unsigned char *)bytes.data() + 4, payloadEnd - 4);
    for (int i = 0; i < 8; ++i)
        bytes[payloadEnd + (std::size_t)i] = (char)(digest >> (8 * i));
    writeFile(f.sidecar(), bytes);

    EXPECT_THROW(loadTraceIndex(f.sidecar()), TraceError);
    expectRejectedAndAnswering(t, f.path());
}

TEST(TraceIndexErrors, OlderVersionIsRejectedByVersionNotDigest)
{
    // A version-3 file carries a self-digest of the older digest
    // function, so only the version can say what is wrong with it.
    ScopedIndexEnv on("on");
    const Trace t = randomTrace(0x1D6709, 2000);
    SavedTrace f(t, "v3side", true);
    std::string bytes = readFile(f.sidecar());
    ASSERT_EQ(bytes[4], (char)traceIndexVersion);
    bytes[4] = (char)(traceIndexVersion - 1);
    writeFile(f.sidecar(), bytes);

    try {
        loadTraceIndex(f.sidecar());
        ADD_FAILURE() << "an older sidecar version loaded";
    } catch (const TraceError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "sidecar index version 3 unsupported"),
                  std::string::npos)
            << e.what();
    }
    expectRejectedAndAnswering(t, f.path());
}

TEST(TraceIndexErrors, DirectoryAtTheSidecarPathFallsBack)
{
    ScopedIndexEnv on("on");
    const Trace t = randomTrace(0x1D6708, 2000);
    SavedTrace f(t, "dirside", false);
    ASSERT_EQ(::mkdir(f.sidecar().c_str(), 0700), 0);
    EXPECT_THROW(loadTraceIndex(f.sidecar()), TraceError);
    expectRejectedAndAnswering(t, f.path());
    ::rmdir(f.sidecar().c_str());
}

TEST(TraceIndex, LoadTraceNeverConsultsTheSidecar)
{
    ScopedIndexEnv on("on");
    const Trace a = randomTrace(0x10AD, 2000);
    SavedTrace f(a, "loadonly", true);
    // Orphan the sidecar too: a consumer that looked would tick stale.
    saveTrace(randomTrace(0x10AE, 2000), f.path());

#if EDB_OBS_ENABLED
    const obs::Snapshot before = obs::takeSnapshot();
#endif
    const Trace loaded = loadTrace(f.path());
    std::ifstream in(f.path(), std::ios::binary);
    const Trace read = readTrace(in);
    EXPECT_EQ(loaded.events, read.events);
#if EDB_OBS_ENABLED
    const obs::Snapshot after = obs::takeSnapshot();
    for (const char *name : {"trace.idx.hits", "trace.idx.stale"})
        EXPECT_EQ(after.counter(name), before.counter(name)) << name;
#endif
}

/** The four sidecar states every consumer must agree across. */
enum class SidecarState { Absent, Fresh, Stale, Corrupt };

const char *
stateName(SidecarState s)
{
    switch (s) {
      case SidecarState::Absent: return "absent";
      case SidecarState::Fresh: return "fresh";
      case SidecarState::Stale: return "stale";
      default: return "corrupt";
    }
}

/**
 * Differential core: queries (results + pinned planner stats),
 * one-pass replay (results + skip stats) and parallel replay must be
 * bit-identical between a linear-planning reference handle and a
 * handle opened under each sidecar state, at every jobs level.
 */
void
checkAllStates(const Trace &t, const char *tag)
{
    ScopedIndexEnv on("on");
    SavedTrace f(t, tag, false);
    const session::SessionSet set = session::SessionSet::enumerate(t);

    // Reference: no sidecar exists at all.
    const MappedTrace plain(f.path());
    ASSERT_EQ(plain.index(), nullptr);

    // Specs covering the index structures: a session predicate
    // (extents and tree), an address predicate, a bare aggregation,
    // and a control-rows query.
    std::vector<query::QuerySpec> specs;
    {
        query::QuerySpec s;
        s.kindMask = query::kindBit(EventKind::Write);
        if (set.size() > 0)
            s.sessions = {(session::SessionId)(set.size() / 2)};
        specs.push_back(s);
    }
    {
        query::QuerySpec s;
        s.agg = query::Agg::CountByPage;
        specs.push_back(s);
    }
    {
        query::QuerySpec s;
        // An address window over the middle of the touched span.
        Addr lo = ~(Addr)0, hi = 0;
        for (std::size_t b = 0; b < plain.blockCount(); ++b) {
            for (const auto &r : plain.block(b).runs) {
                lo = std::min(lo, r.firstPage << 13);
                hi = std::max(hi, (r.firstPage + r.pages) << 13);
            }
        }
        if (lo < hi)
            s.addrRanges = {{lo + (hi - lo) / 3,
                             lo + (hi - lo) / 3 + 4096}};
        specs.push_back(s);
    }
    {
        query::QuerySpec s;
        s.kindMask = query::kindBit(EventKind::InstallMonitor) |
                     query::kindBit(EventKind::RemoveMonitor);
        if (set.size() > 0)
            s.sessions = {0};
        s.agg = query::Agg::Rows;
        s.rowLimit = 64;
        specs.push_back(s);
    }

    struct Baseline
    {
        query::QueryResult result;
        std::uint64_t blocksFull, writesPruned, blocksTotal;
    };
    std::vector<std::vector<Baseline>> base(specs.size());
    for (std::size_t si = 0; si < specs.size(); ++si) {
        for (unsigned jobs : {1u, 2u, 4u, 8u}) {
            query::QueryStats st;
            Baseline bl;
            bl.result = query::runQuery(plain, set, specs[si],
                                        {.jobs = jobs}, &st);
            bl.blocksFull = st.blocksFull;
            bl.writesPruned = st.writesPruned;
            bl.blocksTotal = st.blocksTotal;
            EXPECT_EQ(st.blocksIndexElided, 0u);
            base[si].push_back(bl);
        }
    }
    sim::BlockSkipStats skip_ref;
    const sim::SimResult sim_ref = sim::simulate(plain, set, &skip_ref);
    std::vector<sim::SimResult> psim_ref;
    for (unsigned jobs : {1u, 2u, 4u, 8u}) {
        sim::ParallelOptions po;
        po.jobs = jobs;
        psim_ref.push_back(
            sim::parallelSimulate(plain, set, po, nullptr));
    }

    for (SidecarState state :
         {SidecarState::Fresh, SidecarState::Stale,
          SidecarState::Corrupt, SidecarState::Absent}) {
        std::remove(f.sidecar().c_str());
        switch (state) {
          case SidecarState::Fresh: {
            TraceIndex idx = buildTraceIndex(plain);
            saveTraceIndex(idx, f.sidecar());
            break;
          }
          case SidecarState::Stale: {
            TraceIndex idx = buildTraceIndex(plain);
            // A different trace's digest: self-consistent file,
            // wrong trace.
            idx.traceDigest ^= 0xdeadbeefull;
            saveTraceIndex(idx, f.sidecar());
            break;
          }
          case SidecarState::Corrupt: {
            TraceIndex idx = buildTraceIndex(plain);
            saveTraceIndex(idx, f.sidecar());
            std::string bytes = readFile(f.sidecar());
            bytes[bytes.size() / 2] ^= 0x20;
            writeFile(f.sidecar(), bytes);
            break;
          }
          case SidecarState::Absent:
            break;
        }

        const MappedTrace m(f.path());
        EXPECT_EQ(m.index() != nullptr,
                  state == SidecarState::Fresh)
            << stateName(state);

        for (std::size_t si = 0; si < specs.size(); ++si) {
            std::size_t ji = 0;
            for (unsigned jobs : {1u, 2u, 4u, 8u}) {
                query::QueryStats st;
                const query::QueryResult r = query::runQuery(
                    m, set, specs[si], {.jobs = jobs}, &st);
                const Baseline &bl = base[si][ji++];
                ASSERT_TRUE(r == bl.result)
                    << stateName(state) << " spec " << si << " jobs "
                    << jobs << " diverged";
                EXPECT_EQ(st.blocksFull, bl.blocksFull)
                    << stateName(state) << " spec " << si;
                EXPECT_EQ(st.writesPruned, bl.writesPruned)
                    << stateName(state) << " spec " << si;
                EXPECT_EQ(st.blocksTotal, bl.blocksTotal);
                EXPECT_EQ(st.blocksFull + st.blocksControlOnly +
                              st.blocksSkipped,
                          st.blocksTotal);
                if (state != SidecarState::Fresh) {
                    EXPECT_EQ(st.blocksIndexElided, 0u);
                }
            }
        }

        sim::BlockSkipStats skip;
        const sim::SimResult s = sim::simulate(m, set, &skip);
        ASSERT_TRUE(s == sim_ref) << stateName(state) << " simulate";
        EXPECT_EQ(skip.blocksSkipped, skip_ref.blocksSkipped)
            << stateName(state);
        EXPECT_EQ(skip.blocksControlOnly, skip_ref.blocksControlOnly)
            << stateName(state);
        EXPECT_EQ(skip.writesSkipped, skip_ref.writesSkipped)
            << stateName(state);
        std::size_t pi = 0;
        for (unsigned jobs : {1u, 2u, 4u, 8u}) {
            sim::ParallelOptions po;
            po.jobs = jobs;
            sim::ParallelStats pst;
            ASSERT_TRUE(sim::parallelSimulate(m, set, po, &pst) ==
                        psim_ref[pi++])
                << stateName(state) << " parallel jobs " << jobs;
            EXPECT_EQ(pst.plan, skip)
                << stateName(state) << " parallel jobs " << jobs;
        }
    }
}

TEST(TraceIndexDifferential, RandomTracesAgreeAcrossSidecarStates)
{
    checkAllStates(randomTrace(0x1D6710, 3000), "diff_a");
    checkAllStates(randomTrace(0x1D6711, 1500), "diff_b");
}

class TraceIndexWorkload
    : public ::testing::TestWithParam<std::string_view>
{
};

TEST_P(TraceIndexWorkload, AgreesAcrossSidecarStates)
{
    auto w = workload::makeWorkload(GetParam());
    checkAllStates(workload::runTraced(*w),
                   std::string(GetParam()).c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, TraceIndexWorkload,
    ::testing::ValuesIn(workload::workloadNames()));

class TraceIndexCorpus : public ::testing::TestWithParam<const char *>
{
};

TEST_P(TraceIndexCorpus, AgreesAcrossSidecarStates)
{
    const std::string path =
        std::string(EDB_CORPUS_DIR) + "/" + GetParam();
    checkAllStates(loadTrace(path), "corpus");
}

INSTANTIATE_TEST_SUITE_P(
    PinnedCorpus, TraceIndexCorpus,
    ::testing::Values("mini_mixed.v2.trc", "mini_writes.v2.trc",
                      "mini_straddle.v2.trc", "mini_ghost.v2.trc",
                      "mini_scatter.v2.trc"));

} // namespace
} // namespace edb::trace
