/**
 * @file
 * Live RUN against the per-event oracle (testing/live_oracle.h).
 *
 * Tenant::runLive plans statically over the enabled monitors, skips
 * blocks whose write summary misses them, and screens the rest in
 * batches. Over the five workload traces, two random ones and bps
 * with a sidecar index, under both engines and across monitor sets
 * chosen to stress the skip (empty, one word, a summary-page
 * straddle, a range over four summary pages, overlaps, a
 * disabled-then-enabled monitor, every pool page, random sets), it
 * must agree exactly with the per-event loop: writes, hits,
 * notifications, the RESUME batches, the EVT sequence and the engine
 * stats. The suites are named Served* so the sanitizer CI jobs run
 * them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/obs.h"
#include "served/client.h"
#include "served/registry.h"
#include "served/server.h"
#include "testing/live_oracle.h"
#include "testing/random_trace.h"
#include "trace/index_format.h"
#include "trace/trace_format.h"
#include "trace/trace_io.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace edb::served {
namespace {

using testgen::LiveOracle;

/** A trace saved as v2 under TempDir, with its .edbi sidecar when
 *  asked, both removed on destruction. */
class SavedTrace
{
  public:
    SavedTrace(const trace::Trace &t, const std::string &tag,
               bool with_index = false)
        : path_(::testing::TempDir() + "/edb_live_" + tag + "." +
                std::to_string(::getpid()) + ".trc")
    {
        trace::saveTrace(t, path_);
        if (with_index) {
            trace::MappedTrace mapped(path_);
            trace::TraceIndex idx = trace::buildTraceIndex(mapped);
            trace::saveTraceIndex(idx, trace::traceIndexPathFor(path_));
        }
    }
    ~SavedTrace()
    {
        std::remove(path_.c_str());
        std::remove(trace::traceIndexPathFor(path_).c_str());
    }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Monitors installed in order; then `disable` (indices into
 *  `ranges`) are disabled, then `reenable` enabled again. */
struct MonitorSet
{
    std::string name;
    std::vector<AddrRange> ranges;
    std::vector<std::size_t> disable;
    std::vector<std::size_t> reenable;
};

/** Pool pages sampled into one set: the fan-out per hit is linear in
 *  the monitor count, so the set stays small enough for sanitizers. */
constexpr std::size_t kMaxPoolPages = 64;

std::vector<MonitorSet>
monitorSets(const trace::Trace &t, std::uint64_t seed)
{
    std::vector<AddrRange> writes;
    std::vector<AddrRange> objects;
    for (const trace::Event &e : t.events) {
        if (e.size == 0)
            continue;
        if (e.kind == trace::EventKind::Write)
            writes.push_back(e.range());
        else if (e.kind == trace::EventKind::InstallMonitor)
            objects.push_back(e.range());
    }
    EXPECT_FALSE(writes.empty());
    EXPECT_FALSE(objects.empty());
    Rng rng(seed);
    auto anyWrite = [&] { return writes[rng.below(writes.size())]; };
    auto anyObject = [&] { return objects[rng.below(objects.size())]; };
    const Addr page = trace::summaryPageBytes;

    std::vector<MonitorSet> sets;
    sets.push_back({"empty", {}, {}, {}});

    const Addr word = wordAlignDown(writes[writes.size() / 2].begin);
    sets.push_back({"one-word", {AddrRange(word, word + wordBytes)}, {},
                    {}});

    // From eight bytes before a written summary page up to a write on
    // it: a monitor on two summary pages whose hits all sit on the
    // second, so a plan that looked only at the first would miss them.
    const AddrRange w = writes[writes.size() / 3];
    const Addr edge = w.begin / page * page;
    sets.push_back({"straddle", {AddrRange(edge - 8, w.end)}, {}, {}});
    sets.push_back({"wide", {AddrRange(edge - 3 * page, w.end)}, {}, {}});

    const AddrRange a = anyObject();
    const AddrRange b(a.begin, a.begin + std::max<Addr>(1, a.size() / 2));
    const AddrRange c(a.begin + a.size() / 2, a.end + 64);
    sets.push_back({"overlap", {a, b, a, c, anyObject()}, {}, {}});

    MonitorSet toggle{"toggle", {}, {1, 3, 5}, {3}};
    for (int i = 0; i < 8; ++i)
        toggle.ranges.push_back(anyObject());
    sets.push_back(toggle);

    std::set<Addr> pool;
    for (const AddrRange &o : objects) {
        for (Addr p = o.begin / page; p <= (o.end - 1) / page; ++p)
            pool.insert(p);
    }
    const std::vector<Addr> pages(pool.begin(), pool.end());
    const std::size_t step = (pages.size() + kMaxPoolPages - 1) /
                             kMaxPoolPages;
    MonitorSet every{"pool-pages", {}, {}, {}};
    for (std::size_t i = 0; i < pages.size(); i += step)
        every.ranges.emplace_back(pages[i] * page, (pages[i] + 1) * page);
    sets.push_back(every);

    for (int k = 0; k < 3; ++k) {
        MonitorSet r{"random-" + std::to_string(k), {}, {}, {}};
        const std::size_t n = 1 + rng.below(16);
        for (std::size_t i = 0; i < n; ++i) {
            if (rng.below(4) == 0) {
                r.ranges.push_back(anyObject());
            } else {
                const Addr at = anyWrite().begin - rng.below(64);
                r.ranges.emplace_back(at, at + 1 + rng.below(256));
            }
        }
        if (n > 2)
            r.disable.push_back(rng.below(n));
        sets.push_back(r);
    }
    return sets;
}

void
expectSameStats(const Tenant::EngineStats &got,
                const Tenant::EngineStats &want, const std::string &ctx)
{
    EXPECT_EQ(got.software.hits, want.software.hits) << ctx;
    EXPECT_EQ(got.software.misses, want.software.misses) << ctx;
    EXPECT_EQ(got.software.installs, want.software.installs) << ctx;
    EXPECT_EQ(got.software.removes, want.software.removes) << ctx;
    const wms::AdaptiveWmsStats &g = got.adaptive;
    const wms::AdaptiveWmsStats &w = want.adaptive;
    EXPECT_EQ(g.writes, w.writes) << ctx;
    EXPECT_EQ(g.hits, w.hits) << ctx;
    EXPECT_EQ(g.misses, w.misses) << ctx;
    EXPECT_EQ(g.activePageMisses, w.activePageMisses) << ctx;
    EXPECT_EQ(g.installs, w.installs) << ctx;
    EXPECT_EQ(g.removes, w.removes) << ctx;
    EXPECT_EQ(g.pageProtects, w.pageProtects) << ctx;
    EXPECT_EQ(g.pageUnprotects, w.pageUnprotects) << ctx;
    EXPECT_EQ(g.migrations, w.migrations) << ctx;
    EXPECT_EQ(g.capacityDemotions, w.capacityDemotions) << ctx;
    EXPECT_EQ(g.thrashDemotions, w.thrashDemotions) << ctx;
    EXPECT_EQ(g.promotions, w.promotions) << ctx;
    EXPECT_EQ(g.forwardedHits, w.forwardedHits) << ctx;
    EXPECT_EQ(g.writesByBackend, w.writesByBackend) << ctx;
}

void
expectSameBatch(const ResumeBatch &got, const ResumeBatch &want,
                const std::string &ctx)
{
    EXPECT_EQ(got.dropped, want.dropped) << ctx;
    ASSERT_EQ(got.hits.size(), want.hits.size()) << ctx;
    for (std::size_t i = 0; i < got.hits.size(); ++i) {
        EXPECT_EQ(got.hits[i].monitorId, want.hits[i].monitorId) << ctx;
        EXPECT_EQ(got.hits[i].last, want.hits[i].last) << ctx;
        EXPECT_EQ(got.hits[i].count, want.hits[i].count) << ctx;
    }
}

void
expectSameEvents(const testgen::EventLog &got,
                 const testgen::EventLog &want, const std::string &ctx)
{
    ASSERT_EQ(got.count, want.count) << ctx;
    for (std::size_t i = 0; i < got.head.size(); ++i) {
        const EventOut &g = got.head[i];
        const EventOut &w = want.head[i];
        ASSERT_EQ(g.seq, w.seq) << ctx << " EVT " << i;
        ASSERT_EQ(g.monitorId, w.monitorId) << ctx << " EVT " << i;
        ASSERT_EQ(g.written, w.written) << ctx << " EVT " << i;
        ASSERT_EQ(g.pc, w.pc) << ctx << " EVT " << i;
    }
    EXPECT_EQ(got.digest, want.digest)
        << ctx << ": the EVT streams differ past event "
        << testgen::EventLog::kHead;
}

/** Drive a tenant and an oracle through the same monitor set and
 *  live RUNs, and compare everything either exposes. */
void
checkSet(const std::string &path, const trace::MappedTrace &mapped,
         Engine engine, const MonitorSet &set)
{
    const std::string ctx = "set " + set.name;
    Quotas q;
    q.maxMonitorsPerTenant = 4 * kMaxPoolPages;
    Registry reg(q, engine, 1);
    std::shared_ptr<Tenant> tn = reg.hello("live");
    const OpenResult open = tn->openTrace(path);
    testgen::EventLog streamed;
    tn->subscribe(true, [&](const EventOut &e) { streamed.add(e); });

    LiveOracle oracle(engine, q.maxPendingHits);
    std::vector<std::uint32_t> ids;
    for (const AddrRange &r : set.ranges) {
        ids.push_back(tn->install(r));
        EXPECT_EQ(oracle.install(r), ids.back()) << ctx;
    }
    for (std::size_t i : set.disable) {
        tn->disable(ids[i]);
        oracle.disable(ids[i]);
    }
    for (std::size_t i : set.reenable) {
        tn->enable(ids[i]);
        oracle.enable(ids[i]);
    }

    // A second RUN checks what carries over between RUNs: the EVT
    // sequence, the engine's counters and an adaptive tenant's
    // backend. Once is enough for that.
    const int rounds = set.name == "toggle" ? 2 : 1;
    for (int round = 0; round < rounds; ++round) {
        const std::string rctx = ctx + " round " + std::to_string(round);
        const LiveRunResult got = tn->runLive(open.traceId);
        const LiveRunResult want = oracle.run(mapped);
        EXPECT_EQ(got.writes, mapped.totalWrites()) << rctx;
        EXPECT_EQ(got.writes, want.writes) << rctx;
        EXPECT_EQ(got.hits, want.hits) << rctx;
        EXPECT_EQ(got.notifications, want.notifications) << rctx;
        expectSameBatch(tn->resume(), oracle.resume(), rctx);
    }
    expectSameEvents(streamed, oracle.events, ctx);
    expectSameStats(tn->engineStats(), oracle.engineStats(), ctx);
    reg.bye(tn);
}

/** {trace source, engine}: a workload name or "random-<seed>", with
 *  "-indexed" appended to map it with a sidecar (which a live RUN's
 *  static plan must ignore). */
using LiveParam = std::tuple<std::string, Engine>;

constexpr std::string_view kIndexed = "-indexed";

trace::Trace
traceFor(std::string source)
{
    if (source.ends_with(kIndexed))
        source.resize(source.size() - kIndexed.size());
    if (source.rfind("random-", 0) == 0)
        return testgen::randomTrace(std::stoull(source.substr(7)), 1500);
    return workload::runTraced(*workload::makeWorkload(source));
}

/** The monitor sets an adaptive tenant runs (see the test body). */
const std::set<std::string> kAdaptiveSets = {"overlap", "toggle",
                                             "pool-pages", "random-0",
                                             "random-1"};

class ServedLiveDifferential : public ::testing::TestWithParam<LiveParam>
{
};

TEST_P(ServedLiveDifferential, RunMatchesPerEventOracle)
{
    const auto &[source, engine] = GetParam();
    const bool indexed = source.ends_with(kIndexed);
    std::vector<MonitorSet> sets;
    std::unique_ptr<SavedTrace> saved;
    {
        // The in-memory trace goes before the RUNs: only the mapping
        // is needed from here on.
        const trace::Trace t = traceFor(source);
        sets = monitorSets(t, 0x5eed + t.events.size());
        saved = std::make_unique<SavedTrace>(t, source, indexed);
    }
    trace::MappedTrace mapped(saved->path());
    ASSERT_EQ(mapped.index() != nullptr,
              indexed && trace::traceIndexEnabled());
    for (const MonitorSet &set : sets) {
        // An adaptive plan skips nothing, so the sets that probe the
        // skip's edges add no coverage there; the hit-heavy ones stay,
        // and the per-write lock keeps the rest costly under TSan.
        if (engine == Engine::Adaptive &&
            !kAdaptiveSets.contains(set.name))
            continue;
        checkSet(saved->path(), mapped, engine, set);
    }
}

std::vector<std::string>
liveSources()
{
    std::vector<std::string> out(workload::workloadNames().begin(),
                                 workload::workloadNames().end());
    out.push_back("random-41");
    out.push_back("random-42");
    out.push_back("bps-indexed");
    return out;
}

INSTANTIATE_TEST_SUITE_P(
    ServedLive, ServedLiveDifferential,
    ::testing::Combine(::testing::ValuesIn(liveSources()),
                       ::testing::Values(Engine::Software,
                                         Engine::Adaptive)),
    [](const ::testing::TestParamInfo<LiveParam> &info) {
        std::string name = std::get<0>(info.param);
        std::replace(name.begin(), name.end(), '-', '_');
        return name + (std::get<1>(info.param) == Engine::Software
                           ? "_software"
                           : "_adaptive");
    });

#if EDB_OBS_ENABLED
TEST(ServedLivePlan, PublishesTheBlocksAOnePageSetMisses)
{
    const trace::Trace t =
        workload::runTraced(*workload::makeWorkload("bps"));
    SavedTrace saved(t, "plan");
    trace::MappedTrace mapped(saved.path());

    // One summary page under a write from the middle of the trace.
    const trace::MappedTrace::Block &mid =
        mapped.block(mapped.blockCount() / 2);
    ASSERT_FALSE(mid.runs.empty());
    const Addr page = mid.runs.begin()->firstPage;
    std::uint64_t blocks = 0;
    std::uint64_t writes = 0;
    for (std::size_t b = 0; b < mapped.blockCount(); ++b) {
        const trace::MappedTrace::Block &blk = mapped.block(b);
        const bool touches =
            std::any_of(blk.runs.begin(), blk.runs.end(),
                        [&](const trace::PageRun &r) {
                            return r.contains(page);
                        });
        if (!touches) {
            ++blocks;
            writes += blk.writes;
        }
    }
    ASSERT_GT(blocks, 0u);
    ASSERT_LT(blocks, mapped.blockCount());

    Registry reg;
    std::shared_ptr<Tenant> tn = reg.hello("plan");
    const OpenResult open = tn->openTrace(saved.path());
    tn->install(AddrRange(page * trace::summaryPageBytes,
                          (page + 1) * trace::summaryPageBytes));
    const obs::Snapshot before = obs::takeSnapshot();
    const LiveRunResult run = tn->runLive(open.traceId);
    const obs::Snapshot after = obs::takeSnapshot();
    EXPECT_EQ(run.writes, mapped.totalWrites());
    EXPECT_GT(run.hits, 0u);

    auto delta = [&](const char *name) {
        return after.counter(name) - before.counter(name);
    };
    EXPECT_EQ(delta("trace.v2.blocks_skipped"), (std::int64_t)blocks);
    EXPECT_EQ(delta("sim.block_skip_writes"), (std::int64_t)writes);
    EXPECT_EQ(delta("trace.v2.blocks_decoded"),
              (std::int64_t)(mapped.blockCount() - blocks));
    EXPECT_EQ(tn->engineStats().software.misses,
              run.writes - run.hits);
    reg.bye(tn);
}
#endif

// ---- malformed INSTALL frames ----------------------------------------

TEST(ServedBadInstall, EmptyAndWrappingRangesAreTypedErrors)
{
    const trace::Trace t = testgen::randomTrace(4242, 1200);
    SavedTrace saved(t, "badinstall");
    trace::MappedTrace mapped(saved.path());
    const MonitorSet set = monitorSets(t, 7).back();

    ServerOptions options;
    options.socketPath = ::testing::TempDir() + "/edb_badinstall." +
                         std::to_string(::getpid()) + ".sock";
    options.workers = 2;
    Server server(options);
    server.start();

    // A steady tenant runs live RUNs the whole time; each must match
    // the oracle driven through the same installs.
    std::atomic<bool> done{false};
    std::atomic<int> failures{0};
    std::atomic<int> runs{0};
    std::thread steady([&] {
        try {
            Client c;
            c.connect(options.socketPath);
            c.hello("steady");
            const OpenResult open = c.openTrace(saved.path());
            LiveOracle oracle(Engine::Software);
            for (const AddrRange &r : set.ranges) {
                if (c.install(r) != oracle.install(r))
                    ++failures;
            }
            while (!done.load() || runs.load() < 2) {
                const RunReply got = c.run(open.traceId);
                const LiveRunResult want = oracle.run(mapped);
                if (got.writes != want.writes || got.hits != want.hits ||
                    got.notifications != want.notifications)
                    ++failures;
                ++runs;
            }
            c.bye();
        } catch (const std::exception &) {
            ++failures;
        }
    });

    Client bad;
    bad.connect(options.socketPath);
    bad.hello("bad");
    const AddrRange frames[] = {AddrRange(0x1000, 0x1000),
                                AddrRange(~0ull - 7, ~0ull)};
    for (const AddrRange &r : frames) {
        try {
            bad.install(r);
            ADD_FAILURE() << "INSTALL " << r.str() << " accepted";
        } catch (const ClientError &e) {
            EXPECT_EQ(e.code(), ErrCode::MalformedPayload) << r.str();
        }
    }
    // Nothing was registered: the tenant still installs and removes.
    const std::uint32_t id = bad.install(AddrRange(0x1000, 0x1008));
    for (const StatsTenantRow &row : bad.stats().tenants) {
        if (row.name == "bad") {
            EXPECT_EQ(row.monitors, 1u);
        }
    }
    bad.remove(id);
    bad.bye();

    done = true;
    steady.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_GE(runs.load(), 2);
    server.stop();
}

} // namespace
} // namespace edb::served
