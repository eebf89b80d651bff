/**
 * @file
 * Differential harness for the trace query engine.
 *
 * Two executors answer every QuerySpec:
 *
 *   scanAll()   brute force over the materialized event stream —
 *               the oracle, deliberately naive
 *   runQuery()  summary pushdown over a MappedTrace + thread-pool
 *               fan-out
 *
 * This suite generates seeded random specs — kind masks, address
 * ranges derived from real event addresses, session subsets, index
 * windows, size bounds, aux sets, every aggregation — and pins the
 * executor to the oracle, exactly (operator==, not approximately): on
 * all five workload traces, on every committed corpus artifact
 * (including the adversarial straddle/ghost traces), and on
 * randomized traces, across jobs in {1, 2, 4, 8}; and on traces with
 * a duplicated, dropped or empty install (QueryMalformed).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "query/query.h"
#include "testing/random_trace.h"
#include "trace/index_format.h"
#include "trace/trace_io.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace edb::query {
namespace {

using session::SessionSet;
using testgen::randomTrace;

/** RAII trace artifact. */
class Saved
{
  public:
    explicit Saved(const trace::Trace &t,
                   std::size_t block_events = trace::defaultBlockEvents)
        : path_(::testing::TempDir() + "/edb_qdiff_" + t.program + "." +
                std::to_string(::getpid()) + ".trc")
    {
        trace::WriteOptions opts;
        opts.blockEvents = block_events;
        trace::saveTrace(t, path_, opts);
    }
    ~Saved() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** A random but always-valid spec, biased toward selective
 *  predicates so pruning actually fires. */
QuerySpec
randomSpec(Rng &rng, const trace::Trace &t, const SessionSet &set)
{
    QuerySpec spec;
    spec.kindMask = 1 + (std::uint32_t)rng.below(allKindsMask);
    if (!t.events.empty() && rng.chance(0.6)) {
        const int n = 1 + (int)rng.below(2);
        for (int i = 0; i < n; ++i) {
            const trace::Event &e =
                t.events[rng.below(t.events.size())];
            const Addr back = rng.below(64);
            const Addr lo = e.begin > back ? e.begin - back : 0;
            spec.addrRanges.push_back(
                AddrRange{lo, lo + 1 + rng.below(4096)});
        }
    }
    if (set.size() > 0 && rng.chance(0.5)) {
        const int n = 1 + (int)rng.below(4);
        for (int i = 0; i < n; ++i) {
            const auto id = (session::SessionId)rng.below(set.size());
            if (std::find(spec.sessions.begin(), spec.sessions.end(),
                          id) == spec.sessions.end()) {
                spec.sessions.push_back(id);
            }
        }
    }
    if (rng.chance(0.4) && !t.events.empty()) {
        std::uint64_t a = rng.below(t.events.size() + 1);
        std::uint64_t b = rng.below(t.events.size() + 1);
        if (a > b)
            std::swap(a, b);
        spec.firstIndex = a;
        spec.lastIndex = b + 1;
    }
    if (rng.chance(0.3)) {
        spec.minSize = (std::uint32_t)rng.below(8);
        spec.maxSize = spec.minSize + (std::uint32_t)rng.below(64);
    }
    if (rng.chance(0.25) && !t.events.empty()) {
        const int n = 1 + (int)rng.below(2);
        for (int i = 0; i < n; ++i) {
            spec.auxAny.push_back(
                t.events[rng.below(t.events.size())].aux);
        }
    }
    static constexpr Agg aggs[] = {
        Agg::Count, Agg::CountByPage, Agg::CountBySession,
        Agg::TopPages, Agg::First, Agg::Last, Agg::Rows};
    spec.agg = aggs[rng.below(7)];
    if (spec.agg == Agg::CountBySession && spec.sessions.empty()) {
        if (set.size() == 0) {
            spec.agg = Agg::Count;
        } else {
            spec.sessions.push_back(
                (session::SessionId)rng.below(set.size()));
        }
    }
    spec.k = 1 + rng.below(8);
    spec.rowLimit = 1 + rng.below(50);
    return spec;
}

/** Describe a failing spec for the assertion message. */
std::string
specLabel(const QuerySpec &spec, int i)
{
    std::string s = "spec #" + std::to_string(i) + " agg=" +
                    aggName(spec.agg) +
                    " kinds=" + std::to_string(spec.kindMask) +
                    " ranges=" + std::to_string(spec.addrRanges.size()) +
                    " sessions=" + std::to_string(spec.sessions.size()) +
                    " window=[" + std::to_string(spec.firstIndex) +
                    "," + std::to_string(spec.lastIndex) + ")";
    return s;
}

/**
 * The core differential check: the mapped pushdown executor at every
 * jobs level must equal the scanAll oracle exactly.
 */
void
checkSpec(const trace::Trace &t, const SessionSet &set,
          const trace::MappedTrace &mapped, const QuerySpec &spec, int i)
{
    const QueryResult ref = scanAll(t, set, spec);

    for (unsigned jobs : {1u, 2u, 4u, 8u}) {
        QueryOptions opts;
        opts.jobs = jobs;
        QueryStats stats;
        ASSERT_TRUE(runQuery(mapped, set, spec, opts, &stats) == ref)
            << "mapped diverged at jobs " << jobs << ": "
            << specLabel(spec, i);
        EXPECT_EQ(stats.jobs, jobs);
        EXPECT_EQ(stats.blocksTotal, mapped.blockCount());
        EXPECT_EQ(stats.blocksFull + stats.blocksControlOnly +
                      stats.blocksSkipped,
                  stats.blocksTotal);
        EXPECT_EQ(stats.actions.size(), mapped.blockCount());
    }
}

class QueryDifferentialWorkload
    : public ::testing::TestWithParam<std::string_view>
{
};

TEST_P(QueryDifferentialWorkload, OptimizedPathsMatchScanAll)
{
    auto w = workload::makeWorkload(GetParam());
    trace::Trace t = workload::runTraced(*w);
    SessionSet set = SessionSet::enumerate(t);

    Saved saved(t);
    trace::MappedTrace mapped(saved.path());

    Rng rng(0x0E5B0001 ^
            std::hash<std::string_view>{}(GetParam()));
    for (int i = 0; i < 10; ++i) {
        QuerySpec spec = randomSpec(rng, t, set);
        checkSpec(t, set, mapped, spec, i);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, QueryDifferentialWorkload,
    ::testing::ValuesIn(workload::workloadNames()));

class QueryDifferentialCorpus
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(QueryDifferentialCorpus, OptimizedPathsMatchScanAll)
{
    const std::string path =
        std::string(EDB_CORPUS_DIR) + "/" + GetParam();
    trace::Trace t = trace::loadTrace(path);
    SessionSet set = SessionSet::enumerate(t);
    trace::MappedTrace mapped(path);

    Rng rng(0x0E5B0002 ^
            std::hash<std::string>{}(GetParam()));
    for (int i = 0; i < 40; ++i) {
        QuerySpec spec = randomSpec(rng, t, set);
        checkSpec(t, set, mapped, spec, i);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

INSTANTIATE_TEST_SUITE_P(
    PinnedCorpus, QueryDifferentialCorpus,
    ::testing::Values("mini_mixed.v2.trc", "mini_writes.v2.trc",
                      "mini_straddle.v2.trc", "mini_ghost.v2.trc"));

/** Small randomized traces with tiny blocks, thread-sanitizer
 *  friendly: many block boundaries, heap churn, straddling writes. */
class QueryRandom : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(QueryRandom, AllExecutorsAgreeOnRandomTraces)
{
    trace::Trace t = randomTrace(GetParam(), 600);
    SessionSet set = SessionSet::enumerate(t);
    Saved saved(t, 64);
    trace::MappedTrace mapped(saved.path());

    Rng rng(0x0E5B0003 ^ GetParam());
    for (int i = 0; i < 10; ++i) {
        QuerySpec spec = randomSpec(rng, t, set);
        const QueryResult ref = scanAll(t, set, spec);
        for (unsigned jobs : {1u, 4u}) {
            QueryOptions opts;
            opts.jobs = jobs;
            ASSERT_TRUE(runQuery(mapped, set, spec, opts) == ref)
                << "mapped diverged at jobs " << jobs << ": "
                << specLabel(spec, i);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryRandom,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

/** One semantic mutation of a trace's first install of an object
 *  some session monitors: the file still parses, but replay would
 *  abort on it. */
enum class Mutation { Duplicate, Drop, ZeroSize, ZeroSizeAtZero };

const char *
mutationName(Mutation m)
{
    switch (m) {
      case Mutation::Duplicate: return "duplicate";
      case Mutation::Drop: return "drop";
      case Mutation::ZeroSize: return "zero_size";
      default: return "zero_size_at_zero";
    }
}

/** One trace source (a workload or a corpus file) and its mutation. */
struct MalformedCase
{
    const char *source;
    Mutation mutation;
};

/**
 * Prints a case by its label ("bps_drop"). gtest lists the printed
 * value with each test and ctest names the test by it, so it must
 * not depend on the build: a raw `const char *` prints its address.
 */
void
PrintTo(const MalformedCase &c, std::ostream *os)
{
    const std::string src = c.source;
    *os << src.substr(0, src.find('.')) << "_" << mutationName(c.mutation);
}

std::vector<MalformedCase>
malformedCases()
{
    std::vector<MalformedCase> cases;
    for (const char *source : {"bps", "mini_mixed.v2.trc"}) {
        for (Mutation m : {Mutation::Duplicate, Mutation::Drop,
                           Mutation::ZeroSize, Mutation::ZeroSizeAtZero})
            cases.push_back({source, m});
    }
    return cases;
}

class QueryMalformed : public ::testing::TestWithParam<MalformedCase>
{
};

/**
 * Queries answer semantically malformed traces rather than abort
 * (eval.h): with and without a sidecar, at jobs 1 and 4, a session
 * spec on the mutated object, an all-rows spec and an address-range
 * spec around it must each equal scanAll.
 */
TEST_P(QueryMalformed, AnswersEqualScanAll)
{
    const auto [source, mutation] = GetParam();
    trace::Trace t =
        std::string_view(source) == "bps"
            ? workload::runTraced(*workload::makeWorkload("bps"))
            : trace::loadTrace(std::string(EDB_CORPUS_DIR) + "/" +
                               source);
    t.program += std::string("_") + mutationName(mutation);
    const SessionSet clean = SessionSet::enumerate(t);
    auto it = std::find_if(
        t.events.begin(), t.events.end(), [&](const trace::Event &e) {
            return e.kind == trace::EventKind::InstallMonitor &&
                   !clean.sessionsOf(e.aux).empty();
        });
    ASSERT_NE(it, t.events.end());
    const trace::Event install = *it;
    switch (mutation) {
      case Mutation::Duplicate:
        t.events.insert(it, install);
        break;
      case Mutation::Drop:
        t.events.erase(it);
        break;
      case Mutation::ZeroSize:
        it->size = 0;
        break;
      case Mutation::ZeroSizeAtZero:
        it->begin = 0;
        it->size = 0;
        break;
    }
    const SessionSet set = SessionSet::enumerate(t);

    std::vector<QuerySpec> specs(3);
    specs[0].sessions = {set.sessionsOf(install.aux).front()};
    specs[1].agg = Agg::Rows;
    specs[1].rowLimit = 64;
    specs[2].addrRanges = {{install.begin > 64 ? install.begin - 64 : 0,
                            install.begin + install.size + 4096}};
    std::vector<QueryResult> refs;
    for (const QuerySpec &spec : specs)
        refs.push_back(scanAll(t, set, spec));

    Saved saved(t, 64);
    const std::string sidecar = trace::traceIndexPathFor(saved.path());
    for (bool indexed : {false, true}) {
        if (indexed) {
            trace::TraceIndex idx =
                trace::buildTraceIndex(trace::MappedTrace(saved.path()));
            trace::saveTraceIndex(idx, sidecar);
        }
        const trace::MappedTrace mapped(saved.path());
        if (indexed && trace::traceIndexEnabled())
            ASSERT_NE(mapped.index(), nullptr);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            for (unsigned jobs : {1u, 4u}) {
                QueryOptions opts;
                opts.jobs = jobs;
                EXPECT_TRUE(runQuery(mapped, set, specs[i], opts) ==
                            refs[i])
                    << "spec " << i << " jobs " << jobs
                    << (indexed ? " indexed" : " linear");
            }
        }
    }
    std::remove(sidecar.c_str());
}

// Numbered, not named: ctest shows a numbered case by its printed
// value, as Mutations/QueryMalformed.AnswersEqualScanAll/bps_drop.
INSTANTIATE_TEST_SUITE_P(Mutations, QueryMalformed,
                         ::testing::ValuesIn(malformedCases()));

} // namespace
} // namespace edb::query
