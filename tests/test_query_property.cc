/**
 * @file
 * Property harness for the trace query engine — the invariants the
 * differential suite cannot express by comparing executors:
 *
 *  - pruning soundness: a block whose writes the planner pruned must
 *    contain zero write rows matching the spec (checked against the
 *    brute-force reference, block by block, via QueryStats::actions);
 *  - monotonicity: widening any single predicate never shrinks the
 *    match count;
 *  - window additivity: disjoint index windows partition the count;
 *  - validation: every malformed spec is rejected by validateSpec
 *    and raises QueryError from the executors;
 *  - robustness: single-byte corruption of a v2 artifact surfaces as
 *    a TraceError (with offset context), never a crash or abort.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "query/query.h"
#include "testing/random_trace.h"
#include "trace/trace_io.h"
#include "util/rng.h"

namespace edb::query {
namespace {

using session::SessionSet;
using testgen::randomTrace;

std::string
corpusPath(const char *file)
{
    return std::string(EDB_CORPUS_DIR) + "/" + file;
}

std::string
tempPath(const char *tag)
{
    return ::testing::TempDir() + "/edb_qprop_" + tag + "." +
           std::to_string(::getpid()) + ".trc";
}

/** Save a trace as v2 with small blocks; auto-removed. */
class SavedV2
{
  public:
    SavedV2(const trace::Trace &t, const char *tag)
        : path_(tempPath(tag))
    {
        trace::WriteOptions opts;
        opts.blockEvents = 64;
        trace::saveTrace(t, path_, opts);
    }
    ~SavedV2() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Specs the property tests sweep: selective enough to prune. */
std::vector<QuerySpec>
propertySpecs(const trace::Trace &t, const SessionSet &set)
{
    std::vector<QuerySpec> specs;
    Rng rng(0x0E5B1001);
    for (int i = 0; i < 12; ++i) {
        QuerySpec spec;
        spec.agg = Agg::Count;
        spec.kindMask = 1 + (std::uint32_t)rng.below(allKindsMask);
        if (!t.events.empty() && rng.chance(0.7)) {
            const trace::Event &e =
                t.events[rng.below(t.events.size())];
            spec.addrRanges.push_back(
                AddrRange{e.begin, e.begin + 1 + rng.below(512)});
        }
        if (set.size() > 0 && rng.chance(0.6)) {
            spec.sessions.push_back(
                (session::SessionId)rng.below(set.size()));
        }
        if (rng.chance(0.3) && !t.events.empty()) {
            spec.firstIndex = rng.below(t.events.size());
            spec.lastIndex =
                spec.firstIndex + 1 + rng.below(t.events.size());
        }
        specs.push_back(spec);
    }
    return specs;
}

/**
 * Soundness of the pushdown: for every block whose writes were
 * pruned (action != Full), the reference executor restricted to that
 * block's index range and to write rows must count zero matches.
 * This is the "a skip is never a lie" direction; the differential
 * suite covers "a decode computes the right thing".
 */
TEST(QueryProperty, PrunedBlocksContainNoMatchingWriteRows)
{
    for (const char *file :
         {"mini_writes.v2.trc", "mini_straddle.v2.trc",
          "mini_ghost.v2.trc"}) {
        const std::string path = corpusPath(file);
        trace::Trace t = trace::loadTrace(path);
        SessionSet set = SessionSet::enumerate(t);
        trace::MappedTrace mapped(path);

        for (const QuerySpec &spec : propertySpecs(t, set)) {
            if (!(spec.kindMask &
                  kindBit(trace::EventKind::Write))) {
                continue;
            }
            QueryStats stats;
            QueryOptions opts;
            opts.jobs = 2;
            (void)runQuery(mapped, set, spec, opts, &stats);
            ASSERT_EQ(stats.actions.size(), mapped.blockCount());

            for (std::size_t b = 0; b < mapped.blockCount(); ++b) {
                if (stats.actions[b] == BlockAction::Full)
                    continue;
                const auto &blk = mapped.block(b);
                QuerySpec clipped = spec;
                clipped.agg = Agg::Count;
                clipped.kindMask =
                    kindBit(trace::EventKind::Write);
                clipped.firstIndex =
                    std::max(spec.firstIndex, blk.firstEvent);
                clipped.lastIndex = std::min(
                    spec.lastIndex, blk.firstEvent + blk.events);
                if (clipped.firstIndex >= clipped.lastIndex)
                    continue; // window already excludes the block
                const QueryResult ref = scanAll(t, set, clipped);
                ASSERT_EQ(ref.matches, 0u)
                    << file << " block " << b
                    << " pruned but the reference finds "
                    << ref.matches << " matching write rows";
            }
        }
    }
}

/** Widening any one predicate must never shrink the match count. */
TEST(QueryProperty, WideningAPredicateNeverShrinksTheCount)
{
    trace::Trace t =
        trace::loadTrace(corpusPath("mini_mixed.v2.trc"));
    SessionSet set = SessionSet::enumerate(t);
    trace::MappedTrace mapped(corpusPath("mini_mixed.v2.trc"));
    QueryOptions opts;
    opts.jobs = 2;

    for (QuerySpec spec : propertySpecs(t, set)) {
        spec.minSize = 2;
        spec.auxAny = {1, 2, 3};
        const std::uint64_t base =
            runQuery(mapped, set, spec, opts).matches;

        auto widened = [&](auto &&mutate) {
            QuerySpec w = spec;
            mutate(w);
            return runQuery(mapped, set, w, opts).matches;
        };
        EXPECT_GE(widened([](QuerySpec &w) { w.addrRanges.clear(); }),
                  base);
        EXPECT_GE(widened([](QuerySpec &w) { w.sessions.clear(); }),
                  base);
        EXPECT_GE(widened([](QuerySpec &w) {
                      w.kindMask = allKindsMask;
                  }),
                  base);
        EXPECT_GE(widened([](QuerySpec &w) {
                      w.firstIndex = 0;
                      w.lastIndex = ~0ull;
                  }),
                  base);
        EXPECT_GE(widened([](QuerySpec &w) {
                      w.minSize = 0;
                      w.maxSize = 0xffffffffu;
                  }),
                  base);
        EXPECT_GE(widened([](QuerySpec &w) { w.auxAny.clear(); }),
                  base);
    }
}

/** Disjoint index windows partition the full-window count. */
TEST(QueryProperty, DisjointWindowCountsSumToTheFullCount)
{
    trace::Trace t =
        trace::loadTrace(corpusPath("mini_straddle.v2.trc"));
    SessionSet set = SessionSet::enumerate(t);
    trace::MappedTrace mapped(corpusPath("mini_straddle.v2.trc"));
    QueryOptions opts;
    opts.jobs = 4;

    Rng rng(0x0E5B1002);
    for (QuerySpec spec : propertySpecs(t, set)) {
        spec.firstIndex = 0;
        spec.lastIndex = ~0ull;
        const std::uint64_t whole =
            runQuery(mapped, set, spec, opts).matches;

        const std::uint64_t mid = 1 + rng.below(t.events.size());
        QuerySpec lo = spec;
        lo.lastIndex = mid; // [0, mid)
        QuerySpec hi = spec;
        hi.firstIndex = mid; // [mid, end)
        const std::uint64_t lo_n =
            runQuery(mapped, set, lo, opts).matches;
        const std::uint64_t hi_n =
            runQuery(mapped, set, hi, opts).matches;
        EXPECT_EQ(lo_n + hi_n, whole)
            << "split at " << mid << " of " << t.events.size();
    }
}

/** Every malformed spec: rejected by validateSpec, QueryError from
 *  scanAll and the executor. */
TEST(QueryProperty, MalformedSpecsAreRejectedEverywhere)
{
    trace::Trace t =
        trace::loadTrace(corpusPath("mini_mixed.v2.trc"));
    SessionSet set = SessionSet::enumerate(t);
    trace::MappedTrace mapped(corpusPath("mini_mixed.v2.trc"));

    std::vector<QuerySpec> bad;
    QuerySpec s;
    s.kindMask = 0;
    bad.push_back(s);
    s = {};
    s.kindMask = allKindsMask + 1;
    bad.push_back(s);
    s = {};
    s.firstIndex = 10;
    s.lastIndex = 10;
    bad.push_back(s);
    s = {};
    s.minSize = 8;
    s.maxSize = 4;
    bad.push_back(s);
    s = {};
    s.addrRanges.push_back(AddrRange{32, 32}); // empty range
    bad.push_back(s);
    s = {};
    s.sessions = {0, 0}; // duplicate
    bad.push_back(s);
    s = {};
    s.sessions = {(session::SessionId)set.size()}; // out of range
    bad.push_back(s);
    s = {};
    s.agg = Agg::CountBySession; // needs sessions
    bad.push_back(s);
    s = {};
    s.agg = Agg::TopPages;
    s.k = 0;
    bad.push_back(s);
    s = {};
    s.agg = Agg::Rows;
    s.rowLimit = 0;
    bad.push_back(s);
    s = {};
    s.agg = Agg::Rows;
    s.rowLimit = maxRowLimit + 1;
    bad.push_back(s);

    for (std::size_t i = 0; i < bad.size(); ++i) {
        EXPECT_FALSE(validateSpec(bad[i], set.size()).empty())
            << "bad spec #" << i << " passed validation";
        EXPECT_THROW((void)scanAll(t, set, bad[i]), QueryError)
            << "bad spec #" << i;
        EXPECT_THROW((void)runQuery(mapped, set, bad[i]),
                     QueryError)
            << "bad spec #" << i;
    }

    // And a well-formed spec sails through the same gate.
    EXPECT_TRUE(validateSpec(QuerySpec{}, set.size()).empty());
}

/**
 * Single-byte corruption of a v2 artifact must surface as a
 * TraceError carrying a byte offset — from mapping, planning or a
 * worker's decode — and never as a crash, an assert, or a wrong
 * silent success pretending the file was fine after header
 * validation rejected it.
 */
TEST(QueryProperty, ByteFlipFuzzRaisesTraceErrorsNotCrashes)
{
    trace::Trace t = randomTrace(0x0E5B1003, 700);
    SessionSet set = SessionSet::enumerate(t);
    SavedV2 saved(t, "fuzz");

    std::ifstream in(saved.path(), std::ios::binary);
    std::vector<char> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(bytes.size(), 64u);

    QuerySpec spec;
    spec.agg = Agg::Rows;
    spec.rowLimit = 16;
    QuerySpec sessionSpec;
    sessionSpec.agg = Agg::Count;
    if (set.size() > 0)
        sessionSpec.sessions = {0};

    Rng rng(0x0E5B1004);
    int raised = 0;
    int with_offset = 0;
    const std::string fuzzed = tempPath("fuzzbit");
    for (int i = 0; i < 60; ++i) {
        std::vector<char> copy = bytes;
        const std::size_t pos = rng.below(copy.size());
        copy[pos] ^= (char)(1 << rng.below(8));
        {
            std::ofstream outf(fuzzed, std::ios::binary |
                                           std::ios::trunc);
            outf.write(copy.data(),
                       (std::streamsize)copy.size());
        }
        try {
            trace::MappedTrace mapped(fuzzed);
            SessionSet fset =
                SessionSet::enumerate(mapped.registry());
            QueryOptions opts;
            opts.jobs = 4;
            (void)runQuery(mapped, fset, spec, opts);
            if (fset.size() > 0) {
                QuerySpec ss = sessionSpec;
                ss.sessions = {0};
                (void)runQuery(mapped, fset, ss, opts);
            }
        } catch (const trace::TraceError &e) {
            ++raised;
            // Column/block-level corruption reports its location.
            if (std::string(e.what()).find("byte") !=
                std::string::npos) {
                ++with_offset;
            }
        } catch (const QueryError &) {
            // A corrupt registry may shrink the session universe
            // between enumerate and validate; still a clean error.
            ++raised;
        }
    }
    std::remove(fuzzed.c_str());
    // Flipping high-entropy payload bytes must be *detected* most of
    // the time; a handful of flips landing in string tables or slack
    // can legitimately decode.
    EXPECT_GT(raised, 10);
    // At least some flips must land in column payloads and be
    // reported with their byte offset.
    EXPECT_GT(with_offset, 0);
}

/**
 * The committed ghost artifact end to end: its decoy blocks' page
 * summaries cover the monitored target, so a sound planner decodes
 * them — and finds exactly the one real write. The far-arena blocks
 * must still prune.
 */
TEST(QueryProperty, GhostTraceForcesDecodesButYieldsOneMatch)
{
    const std::string path = corpusPath("mini_ghost.v2.trc");
    trace::Trace t = trace::loadTrace(path);
    SessionSet set = SessionSet::enumerate(t);
    trace::MappedTrace mapped(path);

    // The OneGlobalStatic(target) session.
    session::SessionId target_session = 0;
    bool found = false;
    for (const session::SessionInfo &si : set.sessions()) {
        if (si.type == session::SessionType::OneGlobalStatic &&
            t.registry.object(si.object).name == "target") {
            target_session = si.id;
            found = true;
        }
    }
    ASSERT_TRUE(found);

    QuerySpec spec;
    spec.kindMask = kindBit(trace::EventKind::Write);
    spec.sessions = {target_session};
    spec.agg = Agg::Rows;
    QueryStats stats;
    QueryOptions opts;
    opts.jobs = 2;
    const QueryResult res = runQuery(mapped, set, spec, opts, &stats);

    EXPECT_EQ(res.matches, 1u);
    ASSERT_EQ(res.rows.size(), 1u);
    EXPECT_EQ(res.rows[0].event.size, 8u);
    // The decoys force real decodes (summaries match the target's
    // page)...
    EXPECT_GT(stats.blocksFull, 10u);
    // ...while the far-arena blocks still prune.
    EXPECT_GT(stats.blocksSkipped + stats.blocksControlOnly, 0u);
    EXPECT_GT(stats.writesPruned, 0u);
}

} // namespace
} // namespace edb::query
