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

#include <cstdio>
#include <sstream>
#include <string>
#include <tuple>

#include <unistd.h>

#include "obs/obs.h"
#include "sim/parallel_sim.h"
#include "sim/simulator.h"
#include "testing/random_trace.h"
#include "trace/trace_io.h"
#include "workload/workload.h"

namespace edb::sim {
namespace {

using session::SessionSet;
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
    trace::WriteOptions wopts;
    wopts.blockEvents = blockEvents;
    std::stringstream ss;
    trace::writeTrace(t, ss, wopts);
    const std::string bytes = ss.str();
    trace::MappedTrace mapped(
        std::vector<unsigned char>(bytes.begin(), bytes.end()));

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

#if EDB_OBS_ENABLED
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
