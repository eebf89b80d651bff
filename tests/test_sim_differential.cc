/**
 * @file
 * Differential harness for the parallel sharded simulator.
 *
 * Three implementations of phase 2 exist, in increasing order of
 * sophistication:
 *
 *   simulateOneSession()  the paper's per-session replay (the oracle)
 *   simulate()            the sequential one-pass multi-session sweep
 *   parallelSimulate()    sharded workers + counter merge, in-memory
 *                         and mapped front ends
 *
 * This suite pins them to each other, counter by counter: on
 * randomized traces across jobs in {1,2,4,8} and deliberately tiny
 * shard sizes (so events-per-shard and boundary snapshots are
 * exercised hard), and on all five real workload traces, where the
 * parallel result must be bit-identical to the sequential one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <tuple>

#include <unistd.h>

#include "obs/obs.h"
#include "sim/parallel_sim.h"
#include "sim/simulator.h"
#include "testing/isa_guard.h"
#include "testing/random_trace.h"
#include "trace/trace_io.h"
#include "trace/tracer.h"
#include "util/rng.h"
#include "util/simd.h"
#include "workload/workload.h"

namespace edb::sim {
namespace {

using session::SessionSet;
using testgen::IsaGuard;
using testgen::randomTrace;

/** Assert two results agree on every counter of every session. */
void
expectIdentical(const SimResult &got, const SimResult &want,
                const SessionSet &set, const trace::Trace &t)
{
    ASSERT_EQ(got.totalWrites, want.totalWrites);
    ASSERT_EQ(got.counters.size(), want.counters.size());
    for (session::SessionId s = 0; s < set.size(); ++s) {
        const auto &g = got.counters[s];
        const auto &w = want.counters[s];
        ASSERT_EQ(g.installs, w.installs) << set.describe(s, t);
        ASSERT_EQ(g.removes, w.removes) << set.describe(s, t);
        ASSERT_EQ(g.hits, w.hits) << set.describe(s, t);
        for (std::size_t i = 0; i < vmPageSizeCount; ++i) {
            ASSERT_EQ(g.vm[i].protects, w.vm[i].protects)
                << set.describe(s, t) << " page size " << vmPageSizes[i];
            ASSERT_EQ(g.vm[i].unprotects, w.vm[i].unprotects)
                << set.describe(s, t) << " page size " << vmPageSizes[i];
            ASSERT_EQ(g.vm[i].activePageMisses,
                      w.vm[i].activePageMisses)
                << set.describe(s, t) << " page size " << vmPageSizes[i];
        }
    }
}

/** An in-memory v2 encoding of a trace, mapped. */
trace::MappedTrace
mappedOf(const trace::Trace &t, std::size_t block_events)
{
    trace::WriteOptions wopts;
    wopts.blockEvents = block_events;
    std::stringstream ss;
    trace::writeTrace(t, ss, wopts);
    const std::string bytes = ss.str();
    return trace::MappedTrace(
        std::vector<unsigned char>(bytes.begin(), bytes.end()));
}

/** (seed, jobs) matrix over randomized traces. */
class DifferentialRandom
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>>
{
};

TEST_P(DifferentialRandom, ParallelMatchesSequential)
{
    auto [seed, jobs] = GetParam();
    trace::Trace t = randomTrace(seed);
    SessionSet set = SessionSet::enumerate(t);
    SimResult seq = simulate(t, set);

    // Tiny shards force many boundary snapshots; the default exercises
    // the single-shard fast path too.
    for (std::size_t shard : {std::size_t(7), std::size_t(64),
                              std::size_t(64) * 1024}) {
        ParallelOptions opts;
        opts.jobs = jobs;
        opts.shardEvents = shard;
        ParallelStats stats;
        SimResult par = parallelSimulate(t, set, opts, &stats);
        expectIdentical(par, seq, set, t);
        EXPECT_EQ(stats.shards,
                  (t.events.size() + shard - 1) / shard);
        EXPECT_EQ(stats.jobs, jobs);
    }
}

TEST_P(DifferentialRandom, StreamingMatchesSequential)
{
    auto [seed, jobs] = GetParam();
    trace::Trace t = randomTrace(seed * 31 + 7);
    SessionSet set = SessionSet::enumerate(t);
    SimResult seq = simulate(t, set);

    // Shards stream from a mapped encoding through the bounded queue.
    // Small blocks and shards of an in-memory encoding: many shard
    // boundaries, each snapshotted from the dispatcher's control
    // decode.
    constexpr std::size_t blockEvents = 16;
    constexpr std::size_t shardEvents = 128;
    const trace::MappedTrace mapped = mappedOf(t, blockEvents);

    // Sessions enumerated from the mapped header alone must match the
    // ones enumerated from the materialized trace.
    SessionSet mapped_set = SessionSet::enumerate(mapped.registry());
    ASSERT_EQ(mapped_set.size(), set.size());

    ParallelOptions opts;
    opts.jobs = jobs;
    opts.shardEvents = shardEvents;
    ParallelStats stats;
    SimResult par = parallelSimulate(mapped, mapped_set, opts, &stats);
    expectIdentical(par, seq, set, t);
    // Shards in flight are bounded by the queue: queued + executing +
    // the one being submitted, each at most a block over budget.
    EXPECT_LE(stats.peakBufferedEvents,
              (2 * jobs + 1) * (shardEvents + blockEvents));
}

TEST_P(DifferentialRandom, ParallelMatchesPerSessionOracle)
{
    auto [seed, jobs] = GetParam();
    trace::Trace t = randomTrace(seed * 977 + 3, 400);
    SessionSet set = SessionSet::enumerate(t);

    ParallelOptions opts;
    opts.jobs = jobs;
    opts.shardEvents = 51;
    SimResult par = parallelSimulate(t, set, opts);

    // The oracle replay is quadratic; spot-check a spread of sessions
    // rather than all of them (test_sim_property covers the full
    // oracle-vs-simulate sweep).
    for (session::SessionId s = 0; s < set.size();
         s = s * 2 + 1) {
        SessionCounters oracle = simulateOneSession(t, set, s);
        const auto &g = par.counters[s];
        ASSERT_EQ(g.installs, oracle.installs) << set.describe(s, t);
        ASSERT_EQ(g.removes, oracle.removes) << set.describe(s, t);
        ASSERT_EQ(g.hits, oracle.hits) << set.describe(s, t);
        for (std::size_t i = 0; i < vmPageSizeCount; ++i) {
            ASSERT_EQ(g.vm[i].protects, oracle.vm[i].protects)
                << set.describe(s, t);
            ASSERT_EQ(g.vm[i].unprotects, oracle.vm[i].unprotects)
                << set.describe(s, t);
            ASSERT_EQ(g.vm[i].activePageMisses,
                      oracle.vm[i].activePageMisses)
                << set.describe(s, t);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndJobs, DifferentialRandom,
    ::testing::Combine(::testing::Values(11, 22, 33, 44),
                       ::testing::Values(1u, 2u, 4u, 8u)));

/** The acceptance matrix: every workload trace, jobs in {1,2,4,8}. */
class DifferentialWorkload
    : public ::testing::TestWithParam<std::string_view>
{
};

TEST_P(DifferentialWorkload, ParallelBitIdenticalOnWorkloadTrace)
{
    auto w = workload::makeWorkload(GetParam());
    trace::Trace t = workload::runTraced(*w);
    SessionSet set = SessionSet::enumerate(t);
    SimResult seq = simulate(t, set);

    for (unsigned jobs : {1u, 2u, 4u, 8u}) {
        ParallelOptions opts;
        opts.jobs = jobs;
        opts.shardEvents = 16 * 1024;
        SimResult par = parallelSimulate(t, set, opts);
        expectIdentical(par, seq, set, t);
    }
}

TEST_P(DifferentialWorkload, SequentialMatchesOracleOnWorkloadTrace)
{
    auto w = workload::makeWorkload(GetParam());
    trace::Trace t = workload::runTraced(*w);
    SessionSet set = SessionSet::enumerate(t);
    SimResult seq = simulate(t, set);
    ASSERT_EQ(seq.totalWrites, t.totalWrites);

    // The per-session oracle walks the whole trace once per session,
    // so pin a geometric spread of sessions (first, last, and powers
    // in between) rather than all of them; the randomized traces
    // above cover the full sweep.
    std::vector<session::SessionId> picks;
    for (session::SessionId s = 0; s < set.size(); s = s * 2 + 1)
        picks.push_back(s);
    if (set.size() > 0)
        picks.push_back((session::SessionId)(set.size() - 1));

    for (session::SessionId s : picks) {
        SessionCounters oracle = simulateOneSession(t, set, s);
        const auto &g = seq.counters[s];
        ASSERT_EQ(g.installs, oracle.installs) << set.describe(s, t);
        ASSERT_EQ(g.removes, oracle.removes) << set.describe(s, t);
        ASSERT_EQ(g.hits, oracle.hits) << set.describe(s, t);
        for (std::size_t i = 0; i < vmPageSizeCount; ++i) {
            ASSERT_EQ(g.vm[i].protects, oracle.vm[i].protects)
                << set.describe(s, t);
            ASSERT_EQ(g.vm[i].unprotects, oracle.vm[i].unprotects)
                << set.describe(s, t);
            ASSERT_EQ(g.vm[i].activePageMisses,
                      oracle.vm[i].activePageMisses)
                << set.describe(s, t);
        }
    }
}

/** RAII v2 artifact of a trace, for the mapped front ends. */
class SavedV2
{
  public:
    explicit SavedV2(const trace::Trace &t)
        : path_(::testing::TempDir() + "/edb_diff_" + t.program + "." +
                std::to_string(::getpid()) + ".trc")
    {
        trace::saveTrace(t, path_);
    }
    ~SavedV2() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

TEST_P(DifferentialWorkload, MappedBlockSkipBitIdenticalOnFullSet)
{
    auto w = workload::makeWorkload(GetParam());
    trace::Trace t = workload::runTraced(*w);
    SessionSet set = SessionSet::enumerate(t);
    SimResult seq = simulate(t, set);

    SavedV2 saved(t);
    trace::MappedTrace mapped(saved.path());

    // The block-skip replay must be bit-identical to the in-memory
    // sweep — on the full session set the skip rarely fires (almost
    // every page is monitored somewhere), which pins the "don't skip
    // when you must not" side.
    BlockSkipStats stats;
    SimResult ms = simulate(mapped, set, &stats);
    expectIdentical(ms, seq, set, t);
    ASSERT_TRUE(ms == seq);
    EXPECT_EQ(stats.blocksTotal, mapped.blockCount());
    EXPECT_LE(stats.blocksSkipped + stats.blocksControlOnly,
              stats.blocksTotal);

    // The block-sharded parallel front end, across the jobs matrix.
    for (unsigned jobs : {1u, 2u, 4u, 8u}) {
        ParallelOptions opts;
        opts.jobs = jobs;
        opts.shardEvents = 16 * 1024;
        ParallelStats pstats;
        SimResult par = parallelSimulate(mapped, set, opts, &pstats);
        expectIdentical(par, seq, set, t);
        ASSERT_TRUE(par == seq) << "jobs " << jobs;
        EXPECT_EQ(pstats.jobs, jobs);
        // Both front ends execute one planner's plan.
        EXPECT_EQ(pstats.plan, stats) << "jobs " << jobs;
    }
}

TEST_P(DifferentialWorkload, SparseSubsetSkipMatchesFullRunAndOracle)
{
    auto w = workload::makeWorkload(GetParam());
    trace::Trace t = workload::runTraced(*w);
    SessionSet set = SessionSet::enumerate(t);
    SimResult seq = simulate(t, set);

    SavedV2 saved(t);
    trace::MappedTrace mapped(saved.path());

    // Sparse subsets are where the summary skip actually fires.
    // Counters computed under subset(keep) are positionally comparable
    // to the full run: subset counters[i] == full counters[keep[i]].
    std::vector<session::SessionId> every7;
    for (session::SessionId s = 0; s < set.size(); s += 7)
        every7.push_back(s);
    std::vector<session::SessionId> singles = {0};
    if (set.size() > 2)
        singles.push_back((session::SessionId)(set.size() / 2));
    if (set.size() > 1)
        singles.push_back((session::SessionId)(set.size() - 1));

    std::vector<std::vector<session::SessionId>> keeps = {every7};
    for (session::SessionId s : singles)
        keeps.push_back({s});

    for (const auto &keep : keeps) {
        SessionSet sub = set.subset(keep);
        BlockSkipStats stats;
        SimResult ms = simulate(mapped, sub, &stats);
        ASSERT_EQ(ms.totalWrites, seq.totalWrites);
        ASSERT_EQ(ms.counters.size(), keep.size());
        for (std::size_t i = 0; i < keep.size(); ++i) {
            ASSERT_TRUE(ms.counters[i] == seq.counters[keep[i]])
                << set.describe(keep[i], t) << " in subset of "
                << keep.size();
        }

        for (unsigned jobs : {1u, 2u, 4u, 8u}) {
            ParallelOptions opts;
            opts.jobs = jobs;
            opts.shardEvents = 16 * 1024;
            ParallelStats pstats;
            SimResult par = parallelSimulate(mapped, sub, opts, &pstats);
            ASSERT_TRUE(par == ms)
                << "jobs " << jobs << " subset of " << keep.size();
            EXPECT_EQ(pstats.plan, stats)
                << "jobs " << jobs << " subset of " << keep.size();
        }
    }

    // Tie one single-session subset straight to the per-session
    // oracle, independent of simulate().
    SessionSet one = set.subset({singles.back()});
    SimResult ms = simulate(mapped, one);
    SessionCounters oracle = simulateOneSession(t, set, singles.back());
    ASSERT_TRUE(ms.counters[0] == oracle)
        << set.describe(singles.back(), t);
}

/** The replay kernels this machine can run: scalar, plus AVX2. */
std::vector<util::SimdIsa>
replayIsas()
{
    std::vector<util::SimdIsa> isas = {util::SimdIsa::Scalar};
    if (util::simdSupported(util::SimdIsa::Avx2))
        isas.push_back(util::SimdIsa::Avx2);
    return isas;
}

/** A session RUN's subset as the served benchmark draws it: `n`
 *  draws with replacement, sorted, duplicates dropped. */
std::vector<session::SessionId>
drawSubset(std::uint64_t seed, std::size_t n, std::size_t sessions)
{
    Rng rng(seed);
    std::vector<session::SessionId> keep;
    for (std::size_t i = 0; i < n; ++i)
        keep.push_back((session::SessionId)rng.below(sessions));
    std::sort(keep.begin(), keep.end());
    keep.erase(std::unique(keep.begin(), keep.end()), keep.end());
    return keep;
}

/**
 * Replay the subset `keep` of `set` every way a session RUN can run,
 * under each replay ISA: mapped, Trace path, and mapped parallel at
 * jobs 1/2/4/8. Each must equal the full run projected onto keep.
 */
void
expectSubsetMatchesFullRun(const trace::Trace &t,
                           const trace::MappedTrace &mapped,
                           const SessionSet &set, const SimResult &full,
                           const std::vector<session::SessionId> &keep)
{
    const SessionSet sub = set.subset(keep);
    SimResult want;
    want.totalWrites = full.totalWrites;
    for (session::SessionId s : keep)
        want.counters.push_back(full.counters[s]);

    IsaGuard guard;
    for (util::SimdIsa isa : replayIsas()) {
        util::simdOverride(isa);
        const std::string where = std::string(util::simdIsaName(isa)) +
                                  ", subset of " +
                                  std::to_string(keep.size());
        ASSERT_TRUE(simulate(mapped, sub) == want) << where << ", mapped";
        ASSERT_TRUE(simulate(t, sub) == want) << where << ", Trace";
        for (unsigned jobs : {1u, 2u, 4u, 8u}) {
            ParallelOptions opts;
            opts.jobs = jobs;
            opts.shardEvents = 16 * 1024;
            ASSERT_TRUE(parallelSimulate(mapped, sub, opts) == want)
                << where << ", jobs " << jobs;
        }
    }
}

/** Three seeded 8-session draws (the served RUN's shape) and one
 *  64-session draw. */
std::vector<std::vector<session::SessionId>>
servedSubsets(std::size_t sessions)
{
    std::vector<std::vector<session::SessionId>> keeps;
    for (std::uint64_t seed : {21u, 22u, 23u})
        keeps.push_back(drawSubset(seed, 8, sessions));
    keeps.push_back(drawSubset(64, 64, sessions));
    return keeps;
}

TEST_P(DifferentialWorkload, ServedShapeSubsetsMatchFullRun)
{
    auto w = workload::makeWorkload(GetParam());
    trace::Trace t = workload::runTraced(*w);
    SessionSet set = SessionSet::enumerate(t);
    const SimResult full = simulate(t, set);
    const trace::MappedTrace mapped =
        mappedOf(t, trace::WriteOptions{}.blockEvents);

    for (const auto &keep : servedSubsets(set.size()))
        expectSubsetMatchesFullRun(t, mapped, set, full, keep);
}

TEST(SubsetReplay, ServedShapeSubsetsMatchFullRunOnRandomTraces)
{
    for (std::uint64_t seed : {5u, 6u, 7u}) {
        trace::Trace t = randomTrace(seed * 131 + 17, 2000);
        SessionSet set = SessionSet::enumerate(t);
        const SimResult full = simulate(t, set);
        // Small blocks, so the plan mixes skipped, control-only and
        // full blocks.
        const trace::MappedTrace mapped = mappedOf(t, 32);
        for (const auto &keep : servedSubsets(set.size()))
            expectSubsetMatchesFullRun(t, mapped, set, full, keep);
    }
}

/** Two one-page globals on one page: `inside` is kept by the subset,
 *  `outside` is not. */
struct SharedPageTrace
{
    trace::Trace trace;
    trace::Tracer::Placement inside;
    trace::Tracer::Placement outside;
    /** The OneGlobalStatic session of `inside`. */
    session::SessionId keep = 0;
};

SharedPageTrace
sharedPageTrace(int outside_writes)
{
    SharedPageTrace out;
    trace::Tracer tracer("shared_page");
    out.inside = tracer.declareGlobal("inside", 64);
    out.outside = tracer.declareGlobal("outside", 64);
    tracer.enterFunction("main");
    tracer.write(out.inside.addr, 4, 0);
    for (int i = 0; i < outside_writes; ++i)
        tracer.write(out.outside.addr + 4 * (Addr)(i % 16), 4, 0);
    tracer.write(out.inside.addr + 8, 4, 0);
    tracer.exitFunction();
    out.trace = tracer.finish();

    const SessionSet set = SessionSet::enumerate(out.trace);
    for (const auto &s : set.sessions()) {
        if (s.type == session::SessionType::OneGlobalStatic &&
            s.object == out.inside.object)
            out.keep = s.id;
    }
    return out;
}

TEST(SubsetReplay, WritesIntoAnObjectOutsideTheSubsetMatchFullRun)
{
    const SharedPageTrace sp = sharedPageTrace(100);
    const trace::Trace &t = sp.trace;
    ASSERT_EQ(sp.inside.addr / vmPageSizes[0],
              sp.outside.addr / vmPageSizes[0])
        << "the two globals must share a finest page";
    const SessionSet set = SessionSet::enumerate(t);
    const SimResult full = simulate(t, set);
    const trace::MappedTrace mapped = mappedOf(t, 64);

    // Every write into `outside` is a page miss of the kept session.
    const SessionCounters oracle = simulateOneSession(t, set, sp.keep);
    ASSERT_EQ(oracle.hits, 2u);
    for (std::size_t i = 0; i < vmPageSizeCount; ++i)
        ASSERT_EQ(oracle.vm[i].activePageMisses, 100u);
    ASSERT_TRUE(full.counters[sp.keep] == oracle);
    expectSubsetMatchesFullRun(t, mapped, set, full, {sp.keep});

#if EDB_OBS_ENABLED
    // The first write into `outside` records its increments as a
    // window over the object; the other 99 replay them.
    const SessionSet sub = set.subset({sp.keep});
    const obs::Snapshot before = obs::takeSnapshot();
    const SimResult got = simulate(t, sub);
    const obs::Snapshot after = obs::takeSnapshot();
    ASSERT_TRUE(got.counters[0] == oracle);
    auto delta = [&](const char *name) {
        return after.counter(name) - before.counter(name);
    };
    EXPECT_EQ(delta("sim.replay.map_walks"), 0);
    EXPECT_EQ(delta("sim.replay.cache_replays"), 99 + 1);
    EXPECT_EQ(delta("sim.replay.recordings"), 2);
#endif
}

/**
 * Nine heap objects on one finest page overflow its object list; a
 * free brings the page back to eight. Writes cycling over the eight
 * (more than the replay cache holds) must resolve from the page's
 * rebuilt list again, not from walks of the live map.
 */
TEST(ReplayPageObjects, OverflowedPageRegainsItsListAfterRemoves)
{
    constexpr int kWrites = 64;
    trace::Tracer tracer("overflow_page");
    tracer.enterFunction("main");
    std::vector<trace::Tracer::Placement> objs;
    for (int i = 0; i < 9; ++i)
        objs.push_back(tracer.heapAlloc("pool", 64));
    tracer.heapFree(objs.back());
    for (int i = 0; i < kWrites; ++i)
        tracer.write(objs[(std::size_t)i % 8].addr, 4, 0);
    tracer.exitFunction();
    const trace::Trace t = tracer.finish();
    for (const auto &o : objs) {
        ASSERT_EQ(o.addr / vmPageSizes[0], objs[0].addr / vmPageSizes[0])
            << "the nine objects must share a finest page";
    }

    const SessionSet set = SessionSet::enumerate(t);
#if EDB_OBS_ENABLED
    const obs::Snapshot before = obs::takeSnapshot();
#endif
    const SimResult got = simulate(t, set);
#if EDB_OBS_ENABLED
    const obs::Snapshot after = obs::takeSnapshot();
    EXPECT_EQ(after.counter("sim.replay.map_walks") -
                  before.counter("sim.replay.map_walks"),
              0);
#endif
    for (session::SessionId s = 0; s < set.size(); ++s)
        EXPECT_TRUE(got.counters[s] == simulateOneSession(t, set, s))
            << "session " << s;
}

/**
 * The shared-page trace with the install of `outside` (an object the
 * subset leaves out) duplicated in place, or dropped.
 */
trace::Trace
withOutsideInstall(const SharedPageTrace &sp, bool duplicate)
{
    trace::Trace t = sp.trace;
    for (auto it = t.events.begin(); it != t.events.end(); ++it) {
        if (it->kind == trace::EventKind::InstallMonitor &&
            it->aux == sp.outside.object) {
            if (duplicate)
                t.events.insert(it, *it);
            else
                t.events.erase(it);
            return t;
        }
    }
    ADD_FAILURE() << "no install of the outside object";
    return t;
}

/**
 * Replay a malformed trace through every front end a session RUN can
 * take, on the subset that keeps only `inside`: each must die with
 * `message`, the control-event checks still running over objects the
 * subset leaves out.
 */
void
expectEveryFrontEndDies(const trace::Trace &t, session::SessionId keep,
                        const char *message)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const SessionSet set = SessionSet::enumerate(t);
    const SessionSet sub = set.subset({keep});
    const trace::MappedTrace mapped = mappedOf(t, 64);
    ParallelOptions opts;
    opts.jobs = 2;
    opts.shardEvents = 16;
    EXPECT_DEATH((void)simulate(t, sub), message);
    EXPECT_DEATH((void)simulate(mapped, sub), message);
    EXPECT_DEATH((void)parallelSimulate(t, sub, opts), message);
    EXPECT_DEATH((void)parallelSimulate(mapped, sub, opts), message);
}

TEST(SubsetReplayDeathTest, DuplicatedInstallOutsideTheSubsetDies)
{
    const SharedPageTrace sp = sharedPageTrace(4);
    expectEveryFrontEndDies(withOutsideInstall(sp, true), sp.keep,
                            "overlapping install");
}

TEST(SubsetReplayDeathTest, UnmatchedRemoveOutsideTheSubsetDies)
{
    const SharedPageTrace sp = sharedPageTrace(4);
    expectEveryFrontEndDies(withOutsideInstall(sp, false), sp.keep,
                            "does not match a live install");
}

/**
 * An empty install at address 0 spans no page. The mapped front ends
 * must die on it in the replay engine, as the Trace path does, for
 * the full set and for a subset that keeps the object, rather than
 * walk the 2^51 summary pages of [0, 0) in the block planner.
 */
TEST(ReplayDeathTest, EmptyInstallAtAddressZeroDies)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    trace::Trace t = trace::loadTrace(std::string(EDB_CORPUS_DIR) +
                                      "/mini_mixed.v2.trc");
    const SessionSet clean = SessionSet::enumerate(t);
    auto it = std::find_if(
        t.events.begin(), t.events.end(), [&](const trace::Event &e) {
            return e.kind == trace::EventKind::InstallMonitor &&
                   !clean.sessionsOf(e.aux).empty();
        });
    ASSERT_NE(it, t.events.end());
    it->begin = 0;
    it->size = 0;
    const SessionSet set = SessionSet::enumerate(t);
    const SessionSet sub = set.subset({set.sessionsOf(it->aux).front()});
    const trace::MappedTrace mapped = mappedOf(t, 64);
    ParallelOptions opts;
    opts.jobs = 2;
    opts.shardEvents = 16;
    for (const SessionSet *s : {&set, &sub}) {
        EXPECT_DEATH((void)simulate(mapped, *s),
                     "page span of empty range");
        EXPECT_DEATH((void)parallelSimulate(mapped, *s, opts),
                     "page span of empty range");
    }
}

#if EDB_OBS_ENABLED
TEST(ReplayObs, PendingFlushHistogramPinnedOnCorpusReplay)
{
    // The replay cache tallies its flush sizes in plain fields and
    // folds them in once per replay call; what it publishes must be
    // exactly what one observe() per flush published. The figures
    // are those of the per-flush observe() over this file.
    const trace::MappedTrace mapped(std::string(EDB_CORPUS_DIR) +
                                    "/mini_mixed.v2.trc");
    const SessionSet set = SessionSet::enumerate(mapped.registry());
    const char *name = "sim.replay.pending_flush";
    const obs::Snapshot before = obs::takeSnapshot();
    (void)simulate(mapped, set);
    const obs::Snapshot after = obs::takeSnapshot();

    const obs::HistogramValue *b = before.histogram(name);
    const obs::HistogramValue *a = after.histogram(name);
    ASSERT_NE(a, nullptr);
    const bool fresh = b == nullptr || b->count == 0;
    const std::uint64_t pin_min = 1;
    const std::uint64_t pin_max = 22;
    EXPECT_EQ(a->count - (fresh ? 0 : b->count), 125u);
    EXPECT_EQ(a->sum - (fresh ? 0 : b->sum), 1099u);
    EXPECT_EQ(a->min, fresh ? pin_min : std::min(b->min, pin_min));
    EXPECT_EQ(a->max, fresh ? pin_max : std::max(b->max, pin_max));
    const std::vector<std::uint64_t> pin_buckets = {0, 7, 11, 36, 60, 11};
    for (std::size_t i = 0; i < a->buckets.size(); ++i) {
        const std::uint64_t want = i < pin_buckets.size() ? pin_buckets[i] : 0;
        EXPECT_EQ(a->buckets[i] - (fresh ? 0 : b->buckets[i]), want)
            << "bucket " << i;
    }
}

TEST_P(DifferentialWorkload, MappedReplayFullyDecodesOnlyFullBlocks)
{
    auto w = workload::makeWorkload(GetParam());
    trace::Trace t = workload::runTraced(*w);
    SessionSet set = SessionSet::enumerate(t);
    SavedV2 saved(t);
    trace::MappedTrace mapped(saved.path());

    // Under a single session most blocks skip or run control-only.
    // Each front end must fully decode exactly the blocks planned
    // Full: a skipped block decoded is wasted work, a Full block
    // decoded twice is a second copy of the decision.
    SessionSet one = set.subset({(session::SessionId)(set.size() / 2)});
    auto decoded = [] {
        return obs::takeSnapshot().counter("trace.v2.blocks_decoded");
    };

    BlockSkipStats stats;
    std::int64_t before = decoded();
    const SimResult seq = simulate(mapped, one, &stats);
    const std::int64_t seq_decoded = decoded() - before;
    EXPECT_GT(stats.blocksSkipped + stats.blocksControlOnly, 0u);
    EXPECT_EQ(seq_decoded,
              (std::int64_t)(stats.blocksTotal - stats.blocksSkipped -
                             stats.blocksControlOnly));

    ParallelOptions opts;
    opts.jobs = 4;
    opts.shardEvents = 16 * 1024;
    ParallelStats pstats;
    before = decoded();
    const SimResult par = parallelSimulate(mapped, one, opts, &pstats);
    EXPECT_EQ(decoded() - before, seq_decoded);
    EXPECT_EQ(pstats.plan, stats);
    ASSERT_TRUE(par == seq);
}
#endif

INSTANTIATE_TEST_SUITE_P(
    Workloads, DifferentialWorkload,
    ::testing::ValuesIn(workload::workloadNames()),
    [](const ::testing::TestParamInfo<std::string_view> &info) {
        return std::string(info.param);
    });

} // namespace
} // namespace edb::sim
