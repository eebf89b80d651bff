/**
 * @file
 * Tests for the edb-served daemon: the wire codec, the multi-tenant
 * registry, and the socket server driven by the in-process client.
 *
 * The socket tests start a real Server on a Unix socket under
 * TempDir and talk to it with served::Client — exactly the daemon
 * code path minus main(). The stress suite ("Served*" is part of the
 * TSan job's filter) runs many concurrent tenants over one shared
 * mapped trace and requires their per-session counters to be
 * bit-identical to the one-shot sim::simulate oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/obs.h"
#include "served/client.h"
#include "served/protocol.h"
#include "served/registry.h"
#include "served/server.h"
#include "session/session.h"
#include "sim/simulator.h"
#include "testing/live_oracle.h"
#include "testing/random_trace.h"
#include "trace/index_format.h"
#include "trace/trace_io.h"

namespace edb::served {
namespace {

// ---- protocol codec ------------------------------------------------

TEST(ServedProtocol, FrameRoundtripAcrossSplitFeeds)
{
    PayloadWriter w;
    w.putU32(7);
    w.putString("hello");
    std::vector<std::uint8_t> wire;
    encodeFrame(wire, Op::Hello, w.bytes());
    encodeFrame(wire, Op::Bye, {});

    // Feed byte-by-byte: the decoder must buffer partial frames.
    FrameDecoder dec;
    std::vector<Frame> got;
    Frame f;
    for (std::uint8_t b : wire) {
        dec.feed(&b, 1);
        while (dec.next(f))
            got.push_back(f);
    }
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ((Op)got[0].opcode, Op::Hello);
    EXPECT_EQ(got[0].offset, 0u);
    EXPECT_EQ(got[0].body, w.bytes());
    EXPECT_EQ((Op)got[1].opcode, Op::Bye);
    EXPECT_EQ(got[1].offset, frameHeaderBytes + w.bytes().size());
    EXPECT_TRUE(got[1].body.empty());
    EXPECT_FALSE(dec.midFrame());
    EXPECT_EQ(dec.consumed(), wire.size());
}

TEST(ServedProtocol, PayloadReaderReportsAbsoluteOffsets)
{
    PayloadWriter w;
    w.putU32(42);
    // A reader based at stream offset 100: overrunning the 4-byte
    // body must point at absolute byte 104 (the first missing one).
    PayloadReader rd(w.bytes(), 100);
    EXPECT_EQ(rd.getU32(), 42u);
    try {
        rd.getU64();
        FAIL() << "overrun did not throw";
    } catch (const ProtocolError &e) {
        EXPECT_EQ(e.code(), ErrCode::MalformedPayload);
        EXPECT_EQ(e.offset(), 104u);
        EXPECT_NE(std::string(e.what()).find("at byte 104"),
                  std::string::npos);
    }
}

TEST(ServedProtocol, TrailingBytesRejected)
{
    PayloadWriter w;
    w.putU32(1);
    w.putU8(0);
    PayloadReader rd(w.bytes(), 0);
    rd.getU32();
    EXPECT_THROW(rd.requireEnd(), ProtocolError);
}

TEST(ServedProtocol, StringCapBoundsAllocation)
{
    // A claimed string length far past the cap must throw before any
    // attempt to consume (or allocate) that many bytes.
    PayloadWriter w;
    w.putU32(0x7fffffff);
    PayloadReader rd(w.bytes(), 0);
    try {
        rd.getString();
        FAIL() << "oversized string accepted";
    } catch (const ProtocolError &e) {
        EXPECT_EQ(e.code(), ErrCode::MalformedPayload);
        EXPECT_EQ(e.offset(), 0u);
    }
}

TEST(ServedProtocol, InvertedRangeRejected)
{
    PayloadWriter w;
    w.putU64(10);
    w.putU64(5);
    PayloadReader rd(w.bytes(), 0);
    EXPECT_THROW(rd.getRange(), ProtocolError);
}

TEST(ServedProtocol, OversizedFrameThrowsOnceAndResyncs)
{
    FrameDecoder dec(/*max_body=*/16);
    // Frame 1: claims a 100-byte body (over the cap). Frame 2: valid.
    std::vector<std::uint8_t> wire;
    encodeFrame(wire, Op::Hello, std::vector<std::uint8_t>(100, 0xab));
    PayloadWriter w;
    w.putU32(9);
    encodeFrame(wire, Op::Install, w.bytes());

    dec.feed(wire.data(), wire.size());
    Frame f;
    try {
        dec.next(f);
        FAIL() << "oversized frame accepted";
    } catch (const ProtocolError &e) {
        EXPECT_EQ(e.code(), ErrCode::FrameTooLarge);
        EXPECT_EQ(e.offset(), 0u);
    }
    // The stream realigned at the next frame: no second throw, and
    // the valid frame comes out whole.
    ASSERT_TRUE(dec.next(f));
    EXPECT_EQ((Op)f.opcode, Op::Install);
    EXPECT_EQ(f.body, w.bytes());
    EXPECT_EQ(f.offset, frameHeaderBytes + 100u);
    EXPECT_FALSE(dec.midFrame());
}

TEST(ServedProtocol, OversizedBodyDiscardedAsItArrives)
{
    FrameDecoder dec(/*max_body=*/8);
    std::vector<std::uint8_t> head;
    encodeFrame(head, Op::Run, std::vector<std::uint8_t>(64, 0));
    // Deliver only the header + 10 body bytes now.
    dec.feed(head.data(), frameHeaderBytes + 10);
    Frame f;
    EXPECT_THROW(dec.next(f), ProtocolError);
    EXPECT_TRUE(dec.midFrame()); // still swallowing the bad body
    // The rest of the body trickles in and is discarded; a valid
    // frame behind it decodes.
    dec.feed(head.data() + frameHeaderBytes + 10, 64 - 10);
    std::vector<std::uint8_t> ok;
    encodeFrame(ok, Op::Bye, {});
    dec.feed(ok.data(), ok.size());
    ASSERT_TRUE(dec.next(f));
    EXPECT_EQ((Op)f.opcode, Op::Bye);
}

// ---- registry (no transport) ---------------------------------------

/** A deterministic v2 trace on disk, shared by the suite. */
class ServedTraceFile
{
  public:
    explicit ServedTraceFile(std::uint64_t seed, int steps = 1500)
    {
        path_ = ::testing::TempDir() + "/edb_served_test." +
                std::to_string(::getpid()) + "." +
                std::to_string(seed) + ".trc";
        trace::Trace t = testgen::randomTrace(seed, steps);
        trace::saveTrace(t, path_);
    }

    ~ServedTraceFile() { std::remove(path_.c_str()); }

    const std::string &path() const { return path_; }

    /** Bounding box of every write event (for live monitors). */
    AddrRange
    writeSpan() const
    {
        trace::Trace t = trace::loadTrace(path_);
        Addr lo = ~0ull;
        Addr hi = 0;
        for (const trace::Event &e : t.events) {
            if (e.kind != trace::EventKind::Write)
                continue;
            lo = std::min(lo, e.begin);
            hi = std::max(hi, e.begin + e.size);
        }
        EXPECT_LT(lo, hi);
        return AddrRange(lo, hi);
    }

  private:
    std::string path_;
};

TEST(ServedRegistry, AdmissionQuotaRejectsAndReleases)
{
    Quotas q;
    q.maxTenants = 2;
    Registry reg(q);
    auto a = reg.hello("a");
    auto b = reg.hello("b");
    try {
        reg.hello("c");
        FAIL() << "admission over quota";
    } catch (const ServedError &e) {
        EXPECT_EQ(e.code(), ErrCode::QuotaExceeded);
    }
    reg.bye(a);
    reg.bye(a); // idempotent
    EXPECT_NO_THROW(reg.hello("c"));
    EXPECT_EQ(reg.stats().tenants, 2u);
}

TEST(ServedRegistry, MonitorLifecycleAndQuotas)
{
    Quotas q;
    q.maxMonitorsPerTenant = 2;
    Registry reg(q);
    auto t = reg.hello("t");
    std::uint32_t m1 = t->install(AddrRange(0, 64));
    std::uint32_t m2 = t->install(AddrRange(64, 128));
    EXPECT_NE(m1, m2);
    EXPECT_THROW(t->install(AddrRange(128, 256)), ServedError);
    t->remove(m1);
    EXPECT_NO_THROW(t->install(AddrRange(128, 256)));
    EXPECT_THROW(t->remove(m1), ServedError);       // already gone
    EXPECT_THROW(t->enable(9999), ServedError);     // never existed
    EXPECT_NO_THROW(t->disable(m2));
    EXPECT_NO_THROW(t->disable(m2)); // idempotent
    EXPECT_NO_THROW(t->enable(m2));
    // An unbounded monitor must be rejected, not ground through the
    // engine's per-page index.
    EXPECT_THROW(t->install(AddrRange(0, ~0ull)), ServedError);
}

TEST(ServedRegistry, ResumeDrainsCoalescedBatch)
{
    ServedTraceFile file(7001);
    // The span-all monitor below covers the whole randomized address
    // space (~2 GiB); lift the per-monitor byte quota out of the way.
    Quotas q;
    q.maxMonitorBytes = 1ull << 40;
    Registry reg(q);
    auto t = reg.hello("t");
    const OpenResult open = t->openTrace(file.path());
    const AddrRange span = file.writeSpan();
    const std::uint32_t m1 = t->install(span);
    const std::uint32_t m2 =
        t->install(AddrRange(span.begin, span.begin + 4));

    const LiveRunResult run = t->runLive(open.traceId);
    EXPECT_GT(run.writes, 0u);
    EXPECT_EQ(run.hits, run.writes); // m1 spans every write
    EXPECT_GT(run.notifications, run.hits); // m2 fans some out twice

    ResumeBatch batch = t->resume();
    ASSERT_GE(batch.hits.size(), 1u);
    EXPECT_EQ(batch.hits[0].monitorId, m1);
    EXPECT_EQ(batch.hits[0].count, run.hits);
    for (std::size_t i = 1; i < batch.hits.size(); ++i) {
        EXPECT_LT(batch.hits[i - 1].monitorId,
                  batch.hits[i].monitorId);
        EXPECT_EQ(batch.hits[i].monitorId, m2);
    }
    EXPECT_EQ(batch.dropped, 0u);
    // The drain cleared the set: a second resume is empty.
    EXPECT_TRUE(t->resume().hits.empty());
}

TEST(ServedRegistry, SharedTraceRefcountAcrossTenants)
{
    ServedTraceFile file(7002);
    Registry reg;
    auto a = reg.hello("a");
    auto b = reg.hello("b");
    a->openTrace(file.path());
    // A different spelling of the same file shares the mapping.
    std::string relative = file.path();
    const std::size_t slash = relative.rfind('/');
    relative.insert(slash + 1, "./");
    b->openTrace(relative);

    std::vector<TraceCache::Entry> rows = reg.traces().stats();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].refs, 2);

    reg.bye(b);
    b.reset(); // the connection's handle drops with the goodbye
    rows = reg.traces().stats();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].refs, 1);

    reg.bye(a);
    a.reset();
    EXPECT_EQ(reg.traces().size(), 0u); // last goodbye unmapped
}

TEST(ServedRegistry, SessionRunMatchesOracleSubset)
{
    ServedTraceFile file(7003);
    Registry reg;
    auto t = reg.hello("t");
    const OpenResult open = t->openTrace(file.path());
    ASSERT_GE(open.sessionCount, 4u);

    // Oracle: the one-shot full simulation over the same artifact.
    trace::MappedTrace mapped(file.path());
    auto sessions = session::SessionSet::enumerate(mapped.registry());
    const sim::SimResult oracle = sim::simulate(mapped, sessions);

    const std::vector<std::uint32_t> ids = {2, 0,
                                            open.sessionCount - 1};
    const SessionRunResult res = t->runSessions(open.traceId, ids);
    EXPECT_EQ(res.totalWrites, oracle.totalWrites);
    ASSERT_EQ(res.counters.size(), ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i)
        EXPECT_EQ(res.counters[i], oracle.counters[ids[i]])
            << "session " << ids[i];

    EXPECT_THROW(t->runSessions(open.traceId,
                                {open.sessionCount}),
                 ServedError); // out of range
    EXPECT_THROW(t->runSessions(open.traceId + 77, {0}),
                 ServedError); // unknown trace id
}

// ---- socket server -------------------------------------------------

class ServedServerTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        file_ = new ServedTraceFile(9001);
        trace::MappedTrace mapped(file_->path());
        auto sessions =
            session::SessionSet::enumerate(mapped.registry());
        oracle_ = new sim::SimResult(sim::simulate(mapped, sessions));
    }

    static void
    TearDownTestSuite()
    {
        delete oracle_;
        oracle_ = nullptr;
        delete file_;
        file_ = nullptr;
    }

    void
    SetUp() override
    {
        ServerOptions options;
        options.socketPath = ::testing::TempDir() + "/edb_served." +
                             std::to_string(::getpid()) + "." +
                             std::to_string(++socket_serial_) +
                             ".sock";
        options.workers = 4;
        // Several tests install one monitor spanning the trace's
        // whole randomized address space (~2 GiB); keep the default
        // quota semantics testable via truly unbounded ranges.
        options.quotas.maxMonitorBytes = 1ull << 40;
        server_ = std::make_unique<Server>(options);
        server_->start();
    }

    void
    TearDown() override
    {
        server_->stop();
        server_.reset();
    }

    Client
    connected(const std::string &tenant)
    {
        Client c;
        c.connect(server_->socketPath());
        c.hello(tenant);
        return c;
    }

    static ServedTraceFile *file_;
    static sim::SimResult *oracle_;
    static int socket_serial_;
    std::unique_ptr<Server> server_;
};

ServedTraceFile *ServedServerTest::file_ = nullptr;
sim::SimResult *ServedServerTest::oracle_ = nullptr;
int ServedServerTest::socket_serial_ = 0;

TEST_F(ServedServerTest, HelloHandshake)
{
    Client c;
    c.connect(server_->socketPath());
    const HelloReply r = c.hello("alice");
    EXPECT_EQ(r.version, protocolVersion);
    EXPECT_EQ(r.serverName, "edb-served");
    EXPECT_GT(r.tenantId, 0u);
    c.bye();
}

TEST_F(ServedServerTest, BadVersionIsTypedAndRecoverable)
{
    Client c;
    c.connect(server_->socketPath());
    try {
        c.hello("alice", protocolVersion + 5);
        FAIL() << "bad version accepted";
    } catch (const ClientError &e) {
        EXPECT_EQ(e.code(), ErrCode::BadVersion);
    }
    // The connection survived the typed error.
    EXPECT_EQ(c.hello("alice").version, protocolVersion);
    try {
        c.hello("again");
        FAIL() << "second HELLO accepted";
    } catch (const ClientError &e) {
        EXPECT_EQ(e.code(), ErrCode::AlreadyHello);
    }
    c.bye();
}

TEST_F(ServedServerTest, CommandsBeforeHelloRejectedStatsAllowed)
{
    Client c;
    c.connect(server_->socketPath());
    try {
        c.install(AddrRange(0, 64));
        FAIL() << "INSTALL before HELLO accepted";
    } catch (const ClientError &e) {
        EXPECT_EQ(e.code(), ErrCode::NotHello);
    }
    // STATS is deliberately pre-HELLO: monitoring must never be
    // locked out by admission control.
    EXPECT_NO_THROW(c.stats());
    c.close();
}

TEST_F(ServedServerTest, MalformedPayloadCarriesByteOffset)
{
    Client c = connected("alice");
    // INSTALL with a 4-byte body where getRange needs 16: the ERR
    // offset must point at the end of the short body, in absolute
    // stream bytes. Stream so far: HELLO frame, then this frame.
    const std::uint64_t hello_bytes =
        frameHeaderBytes + 4 + 4 + std::string("alice").size();
    PayloadWriter w;
    w.putU32(1);
    c.sendFrame(Op::Install, w.bytes());
    std::optional<Frame> reply = c.readFrame();
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ((Op)reply->opcode, Op::Err);
    PayloadReader rd(reply->body, 0);
    EXPECT_EQ(rd.getU8(), (std::uint8_t)Op::Install);
    EXPECT_EQ((ErrCode)rd.getU16(), ErrCode::MalformedPayload);
    EXPECT_EQ(rd.getU64(), hello_bytes + frameHeaderBytes + 4);
    // Typed, not fatal: the same connection still works.
    EXPECT_GT(c.install(AddrRange(0, 64)), 0u);
    c.bye();
}

TEST_F(ServedServerTest, UnknownOpcodeIsTypedAndRecoverable)
{
    Client c = connected("alice");
    c.sendFrame((Op)0x55, {});
    std::optional<Frame> reply = c.readFrame();
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ((Op)reply->opcode, Op::Err);
    PayloadReader rd(reply->body, 0);
    EXPECT_EQ(rd.getU8(), 0x55);
    EXPECT_EQ((ErrCode)rd.getU16(), ErrCode::UnknownOpcode);
    EXPECT_GT(c.install(AddrRange(0, 64)), 0u);
    c.bye();
}

TEST_F(ServedServerTest, OversizedFrameIsTypedAndResyncs)
{
    Client c = connected("alice");
    // Claim a 2 MiB body (over the 1 MiB default cap), then actually
    // send it. The server answers with a typed ERR immediately and
    // discards the body as it arrives; the next frame works.
    const std::uint32_t huge = 2u << 20;
    std::uint8_t header[frameHeaderBytes];
    for (int i = 0; i < 4; ++i)
        header[i] = (std::uint8_t)(huge >> (8 * i));
    header[4] = (std::uint8_t)Op::Install;
    c.sendRaw(header, sizeof header);
    std::optional<Frame> reply = c.readFrame();
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ((Op)reply->opcode, Op::Err);
    PayloadReader rd(reply->body, 0);
    rd.getU8();
    EXPECT_EQ((ErrCode)rd.getU16(), ErrCode::FrameTooLarge);

    std::vector<std::uint8_t> body(huge, 0);
    c.sendRaw(body.data(), body.size());
    EXPECT_GT(c.install(AddrRange(0, 64)), 0u); // realigned
    c.bye();
}

TEST_F(ServedServerTest, QuotaErrorsLeaveOtherTenantsRunning)
{
    Client greedy = connected("greedy");
    Client steady = connected("steady");
    const OpenResult open = steady.openTrace(file_->path());

    // greedy trips the per-monitor byte quota...
    try {
        greedy.install(AddrRange(0, ~0ull));
        FAIL() << "unbounded monitor accepted";
    } catch (const ClientError &e) {
        EXPECT_EQ(e.code(), ErrCode::QuotaExceeded);
    }
    // ...and the trace quota...
    for (std::size_t i = 0;; ++i) {
        ASSERT_LE(i, Quotas{}.maxTracesPerTenant);
        try {
            greedy.openTrace(file_->path());
        } catch (const ClientError &e) {
            EXPECT_EQ(e.code(), ErrCode::QuotaExceeded);
            break;
        }
    }
    // ...while steady's session is untouched and fully functional.
    const RunReply run = steady.run(open.traceId, {0, 1});
    ASSERT_TRUE(run.sessionMode);
    EXPECT_EQ(run.totalWrites, oracle_->totalWrites);
    EXPECT_EQ(run.counters[0], oracle_->counters[0]);
    EXPECT_EQ(run.counters[1], oracle_->counters[1]);
    greedy.bye();
    steady.bye();
}

TEST_F(ServedServerTest, RunSessionsBitIdenticalToOracle)
{
    Client c = connected("alice");
    const OpenResult open = c.openTrace(file_->path());
    ASSERT_EQ((std::size_t)open.sessionCount,
              oracle_->counters.size());

    std::vector<std::uint32_t> ids;
    for (std::uint32_t i = 0; i < open.sessionCount; i += 3)
        ids.push_back(i);
    const RunReply run = c.run(open.traceId, ids);
    ASSERT_TRUE(run.sessionMode);
    EXPECT_EQ(run.totalWrites, oracle_->totalWrites);
    ASSERT_EQ(run.counters.size(), ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i)
        EXPECT_EQ(run.counters[i], oracle_->counters[ids[i]])
            << "session " << ids[i];
    c.bye();
}

TEST_F(ServedServerTest, QueryAgreesWithDirectEngine)
{
    Client c = connected("alice");
    const OpenResult open = c.openTrace(file_->path());
    const AddrRange span = file_->writeSpan();

    WireQuery q;
    q.traceId = open.traceId;
    q.addrRanges.push_back(
        AddrRange(span.begin, span.begin + span.size() / 2));
    const QueryReply viaWire = c.query(q);

    trace::MappedTrace mapped(file_->path());
    auto sessions = session::SessionSet::enumerate(mapped.registry());
    query::QuerySpec spec;
    spec.addrRanges = q.addrRanges;
    const query::QueryResult direct =
        query::runQuery(mapped, sessions, spec);
    EXPECT_EQ(viaWire.matches, direct.matches);
    EXPECT_GT(viaWire.matches, 0u);

    // Per-session aggregation through the wire.
    q.agg = 1;
    q.sessions = {0, 1, 2};
    const QueryReply bySession = c.query(q);
    spec.agg = query::Agg::CountBySession;
    spec.sessions = {0, 1, 2};
    const query::QueryResult directBySession =
        query::runQuery(mapped, sessions, spec);
    EXPECT_EQ(bySession.sessionCounts,
              directBySession.sessionCounts);

    // An invalid spec surfaces as a typed BadQuery, not a crash.
    WireQuery bad = q;
    bad.sessions = {0xffffff};
    try {
        c.query(bad);
        FAIL() << "bad query accepted";
    } catch (const ClientError &e) {
        EXPECT_EQ(e.code(), ErrCode::BadQuery);
    }
    c.bye();
}

TEST_F(ServedServerTest, DirectoryAtTheSidecarPathOpensUnindexed)
{
    // A directory where the .edbi would be is a rejected sidecar: the
    // trace opens and plans without it.
    ServedTraceFile file(7003);
    const std::string sidecar = trace::traceIndexPathFor(file.path());
    ASSERT_EQ(::mkdir(sidecar.c_str(), 0700), 0);
    Client c = connected("alice");
    const OpenResult open = c.openTrace(file.path());
    EXPECT_FALSE(open.indexed);
    WireQuery q;
    q.traceId = open.traceId;
    q.kindMask = query::kindBit(trace::EventKind::Write);
    EXPECT_EQ(c.query(q).matches, trace::loadTrace(file.path()).totalWrites);
    c.bye();
    ::rmdir(sidecar.c_str());
}

TEST_F(ServedServerTest, NotificationStreamIsOrderedAndComplete)
{
    Client c = connected("alice");
    const OpenResult open = c.openTrace(file_->path());
    c.install(file_->writeSpan());
    c.subscribe(true);

    const RunReply run = c.run(open.traceId);
    ASSERT_FALSE(run.sessionMode);
    EXPECT_EQ(run.hits, run.writes);
    ASSERT_GT(run.notifications, 0u);

    // Every notification streams as one EVT; the engine delivers them
    // before the RUN reply, so they are all on the wire already.
    ASSERT_TRUE(c.waitForEvents((std::size_t)run.notifications));
    std::vector<EventOut> events = c.takeEvents();
    ASSERT_EQ(events.size(), (std::size_t)run.notifications);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].seq, i + 1); // per-tenant, gap-free
        EXPECT_FALSE(events[i].written.empty());
    }

    // RESUME coalesced the same hits into one batch entry.
    const ResumeReply batch = c.resume();
    ASSERT_EQ(batch.hits.size(), 1u);
    EXPECT_EQ(batch.hits[0].count, run.hits);
    EXPECT_EQ(batch.dropped, 0u);

    // Unsubscribe stops the stream.
    c.subscribe(false);
    c.run(open.traceId);
    EXPECT_TRUE(c.takeEvents().empty());
    c.bye();
}

/** A bare Unix-socket client that reads the server's byte stream one
 *  byte per recv(), with no frame decoder in the way. */
class OneByteClient
{
  public:
    explicit OneByteClient(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof addr.sun_path - 1);
        EXPECT_EQ(::connect(fd_, (const sockaddr *)&addr, sizeof addr),
                  0);
    }
    ~OneByteClient() { ::close(fd_); }

    void
    send(Op op, const PayloadWriter &w)
    {
        std::vector<std::uint8_t> wire;
        encodeFrame(wire, op, w.bytes());
        ASSERT_EQ(::send(fd_, wire.data(), wire.size(), MSG_NOSIGNAL),
                  (ssize_t)wire.size());
    }

    /** One whole frame, header included, read a byte at a time. */
    std::vector<std::uint8_t>
    frame()
    {
        std::vector<std::uint8_t> out = bytes(frameHeaderBytes);
        std::uint32_t len = 0;
        for (int i = 0; i < 4; ++i)
            len |= (std::uint32_t)out[i] << (8 * i);
        const std::vector<std::uint8_t> body = bytes(len);
        out.insert(out.end(), body.begin(), body.end());
        return out;
    }

    /** The reply to a request: the frame, which must be an OK. */
    std::vector<std::uint8_t>
    ok()
    {
        std::vector<std::uint8_t> f = frame();
        EXPECT_EQ((Op)f.at(4), Op::Ok);
        return f;
    }

  private:
    std::vector<std::uint8_t>
    bytes(std::size_t n)
    {
        std::vector<std::uint8_t> out(n);
        for (std::size_t i = 0; i < n; ++i) {
            const ssize_t got = ::recv(fd_, &out[i], 1, 0);
            if (got != 1) {
                ADD_FAILURE() << "stream ended after " << i << " of "
                              << n << " bytes";
                out.resize(i);
                break;
            }
        }
        return out;
    }

    int fd_ = -1;
};

TEST_F(ServedServerTest, EvtFramesByteIdenticalAndBeforeTheRunReply)
{
    // Long enough for its EVTs to cross the server's 32 KiB flush
    // point twice.
    const ServedTraceFile file(9004, /*steps=*/5000);
    const AddrRange span = file.writeSpan();
    const AddrRange head(span.begin, span.begin + 4096);

    // What the wire must carry: the registry's EVT stream, each
    // encoded as one frame, then the RUN's OK.
    Quotas quotas;
    quotas.maxMonitorBytes = 1ull << 40;
    Registry reg(quotas);
    std::shared_ptr<Tenant> tn = reg.hello("bytes");
    const OpenResult open = tn->openTrace(file.path());
    const std::vector<AddrRange> monitors = {span, head};
    for (const AddrRange &r : monitors)
        tn->install(r);
    std::vector<std::uint8_t> want;
    tn->subscribe(true, [&](const EventOut &e) {
        PayloadWriter w;
        w.putU64(e.seq);
        w.putU32(e.monitorId);
        w.putU64(e.written.begin);
        w.putU64(e.written.end);
        w.putU64(e.pc);
        encodeFrame(want, Op::Event, w.bytes());
    });
    const LiveRunResult res = tn->runLive(open.traceId);
    const std::size_t evt_bytes = want.size();
    PayloadWriter reply;
    reply.putU8((std::uint8_t)Op::Run);
    reply.putU8(0);
    reply.putU64(res.writes);
    reply.putU64(res.hits);
    reply.putU64(res.notifications);
    encodeFrame(want, Op::Ok, reply.bytes());
    ASSERT_GT(evt_bytes, 64u * 1024);

    OneByteClient c(server_->socketPath());
    PayloadWriter hello;
    hello.putU32(protocolVersion);
    hello.putString("bytes");
    c.send(Op::Hello, hello);
    c.ok();
    PayloadWriter path;
    path.putString(file.path());
    c.send(Op::OpenTrace, path);
    c.ok();
    for (const AddrRange &r : monitors) {
        PayloadWriter w;
        w.putU64(r.begin);
        w.putU64(r.end);
        c.send(Op::Install, w);
        c.ok();
    }
    PayloadWriter on;
    on.putU8(1);
    c.send(Op::Subscribe, on);
    c.ok();
    PayloadWriter run;
    run.putU32(open.traceId); // the first trace of a fresh tenant
    run.putU32(0);
    c.send(Op::Run, run);

    std::vector<std::uint8_t> got;
    std::size_t evts = 0;
    for (;;) {
        const std::vector<std::uint8_t> f = c.frame();
        ASSERT_GE(f.size(), frameHeaderBytes);
        got.insert(got.end(), f.begin(), f.end());
        if ((Op)f[4] != Op::Event)
            break;
        ++evts;
    }
    EXPECT_EQ(evts, res.notifications);
    EXPECT_EQ(got.size(), want.size());
    EXPECT_TRUE(got == want) << "the RUN's frames differ on the wire";
    reg.bye(tn);
}

TEST_F(ServedServerTest, DisconnectMidRunLeavesTheServerServing)
{
    const AddrRange span = file_->writeSpan();
    Client steady = connected("steady");
    const OpenResult open = steady.openTrace(file_->path());
    trace::MappedTrace mapped(file_->path());
    testgen::LiveOracle oracle(Engine::Software);
    steady.install(span);
    oracle.install(span);
    steady.subscribe(true);

    // Tenants that ask for a streamed RUN and hang up before reading
    // a byte of it: the server writes EVTs into a closed socket.
    for (int i = 0; i < 4; ++i) {
        Client quitter = connected("quitter-" + std::to_string(i));
        const OpenResult q = quitter.openTrace(file_->path());
        quitter.install(span);
        quitter.subscribe(true);
        PayloadWriter run;
        run.putU32(q.traceId);
        run.putU32(0);
        quitter.sendFrame(Op::Run, run.bytes());
        quitter.close();
    }

    for (int round = 0; round < 2; ++round) {
        const RunReply got = steady.run(open.traceId);
        const LiveRunResult want = oracle.run(mapped);
        EXPECT_EQ(got.writes, want.writes);
        EXPECT_EQ(got.hits, want.hits);
        EXPECT_EQ(got.notifications, want.notifications);
        ASSERT_TRUE(steady.waitForEvents((std::size_t)got.notifications));
        const std::vector<EventOut> events = steady.takeEvents();
        testgen::EventLog got_log;
        for (const EventOut &e : events)
            got_log.add(e);
        EXPECT_EQ(got_log.count, oracle.events.count);
        EXPECT_EQ(got_log.digest, oracle.events.digest);
        oracle.events = {};
    }
    // The quitters' connections wind down on their own.
    for (int tries = 0; tries < 500; ++tries) {
        if (server_->registry().stats().tenants == 1)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(server_->registry().stats().tenants, 1u);
    steady.bye();
}

TEST_F(ServedServerTest, DisableSuppressesEnableRearms)
{
    Client c = connected("alice");
    const OpenResult open = c.openTrace(file_->path());
    const std::uint32_t mon = c.install(file_->writeSpan());

    c.disable(mon);
    RunReply run = c.run(open.traceId);
    EXPECT_EQ(run.hits, 0u); // disabled: no hits accumulate
    EXPECT_TRUE(c.resume().hits.empty());

    c.enable(mon);
    run = c.run(open.traceId);
    EXPECT_EQ(run.hits, run.writes); // re-armed
    const ResumeReply batch = c.resume();
    ASSERT_EQ(batch.hits.size(), 1u);
    EXPECT_EQ(batch.hits[0].count, run.hits);
    c.bye();
}

TEST_F(ServedServerTest, StatsServesSnapshotAndRegistryTables)
{
    Client a = connected("alice");
    Client b = connected("bob");
    const OpenResult open = a.openTrace(file_->path());
    b.openTrace(file_->path());
    a.install(AddrRange(0, 64));
    a.run(open.traceId, {0});

    const StatsReply stats = a.stats();
#if EDB_OBS_ENABLED
    EXPECT_NE(stats.snapshotJson.find("edb-obs-snapshot-v2"),
              std::string::npos);
    EXPECT_NE(stats.snapshotJson.find("served.installs"),
              std::string::npos);
#else
    EXPECT_NE(stats.snapshotJson.find("edb-served-stats-v1"),
              std::string::npos);
#endif
    ASSERT_EQ(stats.tenants.size(), 2u);
    const StatsTenantRow *alice = nullptr;
    for (const StatsTenantRow &row : stats.tenants) {
        if (row.name == "alice")
            alice = &row;
    }
    ASSERT_NE(alice, nullptr);
    EXPECT_EQ(alice->monitors, 1u);
    EXPECT_EQ(alice->traces, 1u);
    EXPECT_EQ(alice->runs, 1u);
    ASSERT_EQ(stats.traces.size(), 1u);
    EXPECT_EQ(stats.traces[0].refs, 2u); // shared mapping
    a.bye();
    b.bye();
}

TEST_F(ServedServerTest, MetricsAllowedBeforeHelloInEveryFormat)
{
    Client c;
    c.connect(server_->socketPath());

    const std::string prom = c.metricsText();
    const std::string json = c.metricsText(MetricsFormat::Json);
    EXPECT_NE(json.find("\"schema\": \"edb-metrics-v2\""),
              std::string::npos);

    const telemetry::Report r = c.metricsReport();
#if EDB_OBS_ENABLED
    EXPECT_NE(prom.find("# HELP "), std::string::npos);
    EXPECT_NE(prom.find("# TYPE "), std::string::npos);
    EXPECT_NE(prom.find("edb_"), std::string::npos);
    // The report reads the live registry: no tick to wait for.
    EXPECT_FALSE(r.series.empty());
#else
    // Empty-but-valid: a comment-only exposition, an empty report.
    EXPECT_NE(prom.find("disabled"), std::string::npos);
    EXPECT_TRUE(r.series.empty());
    EXPECT_TRUE(r.hists.empty());
#endif

    // An unknown format byte is a typed, recoverable error.
    PayloadWriter w;
    w.putU8(9);
    c.sendFrame(Op::Metrics, w.bytes());
    std::optional<Frame> reply = c.readFrame();
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ((Op)reply->opcode, Op::Err);
    PayloadReader rd(reply->body, 0);
    EXPECT_EQ(rd.getU8(), (std::uint8_t)Op::Metrics);
    EXPECT_EQ((ErrCode)rd.getU16(), ErrCode::MalformedPayload);

    // The connection survived and a normal session still works.
    EXPECT_EQ(c.hello("metrics").version, protocolVersion);
    c.bye();
}

#if EDB_OBS_ENABLED

TEST_F(ServedServerTest, MetricsReportCarriesOpLatencyQuantiles)
{
    Client c = connected("alice");
    c.stats(); // at least one timed STATS request
    const telemetry::Report r = c.metricsReport();

    bool hello_timed = false;
    bool stats_timed = false;
    for (const telemetry::ReportHist &h : r.hists) {
        if (h.name != "served.request_ns")
            continue;
        for (const obs::Label &l : h.labels) {
            if (l.key != "op")
                continue;
            if (l.value == "HELLO")
                hello_timed = true;
            if (l.value == "STATS")
                stats_timed = true;
            EXPECT_GT(h.count, 0u) << l.value;
            EXPECT_GT(h.max, 0u) << l.value;
            // Interpolated quantiles are ordered and inside [min, max].
            EXPECT_LE(h.p50, h.p95) << l.value;
            EXPECT_LE(h.p95, h.p99) << l.value;
            EXPECT_GE(h.p50, (double)h.min) << l.value;
            EXPECT_LE(h.p99, (double)h.max) << l.value;
        }
    }
    EXPECT_TRUE(hello_timed);
    EXPECT_TRUE(stats_timed);

    // The matching request counter exists for HELLO.
    bool hello_counted = false;
    for (const telemetry::ReportSeries &s : r.series) {
        if (s.name != "served.requests")
            continue;
        for (const obs::Label &l : s.labels) {
            if (l.key == "op" && l.value == "HELLO" && s.value > 0)
                hello_counted = true;
        }
    }
    EXPECT_TRUE(hello_counted);
    c.bye();
}

namespace {

/** The per-tenant quantities: stored as `name{tenant=...}` series,
 *  served by STATS as totals over the name. */
const char *const kTenantSeries[] = {
    "served.runs",          "served.queries",   "served.installs",
    "served.removes",       "served.resumes",   "served.notifications",
    "served.run_writes",    "served.monitors",  "served.pending_hits",
    "served.open_traces",   "served.trace_bytes",
};

/** Value of `"name": N` in a STATS snapshot JSON; 0 when absent. */
std::int64_t
statsValue(const std::string &json, const std::string &name)
{
    const std::string key = "\"" + name + "\": ";
    const std::size_t at = json.find(key);
    return at == std::string::npos
               ? 0
               : std::stoll(json.substr(at + key.size(), 24));
}

/** Value of the one-label sample `edb_<name>{label} N` in a
 *  Prometheus exposition; 0 when absent. */
std::int64_t
promValue(const std::string &text, const std::string &name,
          const std::string &label)
{
    std::string family = "edb_" + name;
    std::replace(family.begin(), family.end(), '.', '_');
    const std::string key = "\n" + family + "{" + label + "} ";
    const std::size_t at = text.find(key);
    return at == std::string::npos
               ? 0
               : std::stoll(text.substr(at + key.size(), 24));
}

} // namespace

TEST_F(ServedServerTest, PerTenantTelemetrySumsMatchObsGlobals)
{
    // Each per-tenant quantity is stored once, as a tenant-labeled
    // series; the STATS value of the name is the sum over its series,
    // derived at read time. The series cap is frozen before bob's
    // HELLO, so bob's series overflow: read over the wire, the STATS
    // totals must still move by exactly alice's rows plus the overflow
    // rows of the Prometheus scrape. (Deltas, because the registry
    // accumulates across the whole test process; tenant names carry
    // the fixture serial for the same reason.)
    const std::string tag = std::to_string(socket_serial_);
    const std::string alice = "tenant=\"alice." + tag + "\"";
    const std::string bob = "tenant=\"bob." + tag + "\"";
    const std::string overflow = "overflow=\"true\"";

    Client wire; // a scraper, not a tenant
    wire.connect(server_->socketPath());
    struct Read
    {
        std::string stats;
        std::string prom;
    };
    const auto read = [&wire] {
        return Read{wire.stats().snapshotJson, wire.metricsText()};
    };
    const auto rows = [&](const Read &r, const char *name) {
        return promValue(r.prom, name, alice) +
               promValue(r.prom, name, overflow);
    };
    const auto expectTotalsMatchRows = [&](const Read &before,
                                           const Read &after) {
        for (const char *name : kTenantSeries) {
            EXPECT_EQ(statsValue(after.stats, name) -
                          statsValue(before.stats, name),
                      rows(after, name) - rows(before, name))
                << name;
        }
    };

    const Read r0 = read();
    {
        Client a = connected("alice." + tag);
        struct CapGuard
        {
            std::size_t prev =
                obs::setMaxSeriesForTest(obs::seriesCount());
            ~CapGuard() { obs::setMaxSeriesForTest(prev); }
        } frozen;
        Client b = connected("bob." + tag);
        const OpenResult oa = a.openTrace(file_->path());
        const OpenResult ob = b.openTrace(file_->path());
        const std::uint32_t ma = a.install(file_->writeSpan());
        b.install(AddrRange(0, 64));
        a.run(oa.traceId);
        b.run(ob.traceId);
        a.run(oa.traceId, {0}); // session-oracle mode counts too
        WireQuery q;
        q.traceId = ob.traceId;
        b.query(q);
        a.resume();
        a.remove(ma);

        // Bob is live: his monitor and trace sit in the overflow rows.
        const Read mid = read();
        expectTotalsMatchRows(r0, mid);
        EXPECT_EQ(mid.prom.find(bob), std::string::npos);
        EXPECT_EQ(promValue(mid.prom, "served.runs", overflow) -
                      promValue(r0.prom, "served.runs", overflow),
                  1);
        EXPECT_EQ(promValue(mid.prom, "served.monitors", overflow) -
                      promValue(r0.prom, "served.monitors", overflow),
                  1);
        a.bye();
        b.bye();
    }

    const Read r1 = read();
    expectTotalsMatchRows(r0, r1);
    EXPECT_EQ(statsValue(r1.stats, "served.runs") -
                  statsValue(r0.stats, "served.runs"),
              3);
    EXPECT_EQ(rows(r1, "served.queries") - rows(r0, "served.queries"), 1);
    // Both tenants are gone, so every live-resource total is back.
    for (const char *name : {"served.monitors", "served.open_traces",
                             "served.pending_hits", "served.trace_bytes"}) {
        EXPECT_EQ(statsValue(r1.stats, name), statsValue(r0.stats, name))
            << name;
    }
}

TEST_F(ServedServerTest, MetricsEveryFormatReadsTheLiveRegistry)
{
    // Binary, JSON and Prometheus METRICS all read the registry as it
    // is when the request arrives, so after N more STATS requests each
    // format shows the STATS counter exactly N higher. Every request
    // rides one connection, whose requests run in order, so each
    // STATS is counted before the next METRICS is read.
    Client c;
    c.connect(server_->socketPath());
    const std::string label = "op=\"STATS\"";
    c.stats(); // the series exists from here on
    const std::int64_t base =
        promValue(c.metricsText(), "served.requests", label);
    ASSERT_GE(base, 1);

    constexpr int n = 41;
    for (int i = 0; i < n; ++i)
        c.stats();
    const std::int64_t want = base + n;

    std::int64_t binary = -1;
    for (const telemetry::ReportSeries &s : c.metricsReport().series) {
        if (s.name == "served.requests" && s.labels.size() == 1 &&
            s.labels[0].key == "op" && s.labels[0].value == "STATS")
            binary = s.value;
    }
    EXPECT_EQ(binary, want);

    const std::string json = c.metricsText(MetricsFormat::Json);
    const std::string key = "{\"name\": \"served.requests\", \"labels\": "
                            "{\"op\": \"STATS\"}, \"kind\": \"counter\", "
                            "\"value\": ";
    const std::size_t at = json.find(key);
    ASSERT_NE(at, std::string::npos) << json;
    EXPECT_EQ(std::stoll(json.substr(at + key.size(), 24)), want);

    EXPECT_EQ(promValue(c.metricsText(), "served.requests", label), want);
    c.bye();
}

#endif // EDB_OBS_ENABLED

/** Threads of this process, from /proc/self/task. */
std::size_t
threadCount()
{
    std::size_t n = 0;
    for ([[maybe_unused]] const auto &task :
         std::filesystem::directory_iterator("/proc/self/task"))
        ++n;
    return n;
}

TEST_F(ServedServerTest, StartRunsOnlyTheWorkersAndTheAcceptLoop)
{
    // Observability does no background work: a started server runs
    // its worker pool and its accept loop, and no other thread.
    ServerOptions options;
    options.socketPath = server_->socketPath() + ".threads";
    options.workers = 3;
    const std::size_t before = threadCount();
    Server server(options);
    server.start();
    EXPECT_EQ(threadCount(), before + options.workers + 1);
    server.stop();
}

TEST_F(ServedServerTest, AdmissionControlOverSocket)
{
    // A tiny dedicated server: 2 tenant slots.
    ServerOptions options;
    options.socketPath = server_->socketPath() + ".tiny";
    options.quotas.maxTenants = 2;
    Server tiny(options);
    tiny.start();

    Client a;
    Client b;
    Client c;
    a.connect(options.socketPath);
    b.connect(options.socketPath);
    c.connect(options.socketPath);
    a.hello("a");
    b.hello("b");
    try {
        c.hello("c");
        FAIL() << "admission over quota";
    } catch (const ClientError &e) {
        EXPECT_EQ(e.code(), ErrCode::QuotaExceeded);
    }
    // A goodbye frees the slot for the rejected client.
    a.bye();
    EXPECT_NO_THROW(c.hello("c"));
    b.bye();
    c.bye();
    tiny.stop();
}

TEST_F(ServedServerTest, StopDrainsConnectedClients)
{
    Client c = connected("alice");
#if EDB_OBS_ENABLED
    // The live-connection gauges reflect this client while it is up.
    EXPECT_GE(obs::takeSnapshot().gauge("served.connections.active"),
              1);
#endif
    server_->stop();
    // The server shut the read side down and closed after the drain:
    // the client sees EOF, not a hung socket.
    EXPECT_FALSE(server_->running());
    std::optional<Frame> eof = c.readFrame(2000);
    EXPECT_FALSE(eof.has_value());
    // The socket file is gone; reconnection fails fast.
    Client again;
    EXPECT_THROW(again.connect(server_->socketPath(), 200),
                 std::runtime_error);
#if EDB_OBS_ENABLED
    // The drain returned both live gauges to zero: every accepted
    // connection was closed and every reader thread joined. (The
    // gauges are process-global, but server tests run sequentially
    // and every earlier server has already stopped.)
    const obs::Snapshot snap = obs::takeSnapshot();
    EXPECT_EQ(snap.gauge("served.connections.active"), 0);
    EXPECT_EQ(snap.gauge("served.readers.active"), 0);
#endif
}

/** Lines of /proc/self/maps: one per mapping, so each unjoined
 *  thread's stack shows up. */
std::size_t
mappingCount()
{
    std::ifstream maps("/proc/self/maps");
    std::size_t n = 0;
    for (std::string line; std::getline(maps, line);)
        ++n;
    return n;
}

TEST_F(ServedServerTest, FinishedConnectionsAreReleased)
{
    auto helloBye = [&] {
        Client c = connected("transient");
        c.bye();
    };
    // Warm up first: the allocator sets up its per-thread arenas on
    // the first few reader threads and reuses them afterwards.
    for (int i = 0; i < 20; ++i)
        helloBye();
    const std::size_t before = mappingCount();
    for (int i = 0; i < 200; ++i)
        helloBye();
    // Every finished reader was joined on a later accept; at most the
    // last few can still be winding down.
    EXPECT_LE(mappingCount(), before + 16);
    EXPECT_EQ(server_->connectionsAccepted(), 220u);
}

// ---- byte-flip fuzz sweep ------------------------------------------

/** One HELLO frame with every byte index fuzzed in turn. Whatever the
 *  corruption decodes to, the server must answer typed errors (or
 *  accept the frame) and stay healthy for the next client. */
class ServedFuzz : public ::testing::TestWithParam<std::size_t>
{
  protected:
    static std::vector<std::uint8_t>
    helloWire()
    {
        PayloadWriter w;
        w.putU32(protocolVersion);
        w.putString("fuzz");
        std::vector<std::uint8_t> wire;
        encodeFrame(wire, Op::Hello, w.bytes());
        return wire;
    }
};

TEST_P(ServedFuzz, FlippedByteNeverKillsTheServer)
{
    ServerOptions options;
    options.socketPath = ::testing::TempDir() + "/edb_fuzz." +
                         std::to_string(::getpid()) + "." +
                         std::to_string(GetParam()) + ".sock";
    Server server(options);
    server.start();

    std::vector<std::uint8_t> wire = helloWire();
    ASSERT_LT(GetParam(), wire.size());
    wire[GetParam()] ^= 0xff;

    Client fuzz;
    fuzz.connect(options.socketPath);
    fuzz.sendRaw(wire.data(), wire.size());
    // The server may reply OK (benign flip), ERR (typed rejection),
    // or nothing yet (the flip inflated the length field and it is
    // waiting for more body). All are acceptable; crashing or
    // wedging is not.
    try {
        std::optional<Frame> reply = fuzz.readFrame(300);
        if (reply.has_value()) {
            EXPECT_TRUE((Op)reply->opcode == Op::Ok ||
                        (Op)reply->opcode == Op::Err);
        }
    } catch (const std::runtime_error &) {
        // timeout: mid-frame wait is a legal decoder state
    }
    fuzz.close();

    // The daemon survived: a clean client gets a normal session.
    Client clean;
    clean.connect(options.socketPath);
    EXPECT_EQ(clean.hello("clean").version, protocolVersion);
    clean.bye();
    server.stop();
}

INSTANTIATE_TEST_SUITE_P(AllBytes, ServedFuzz,
                         ::testing::Range<std::size_t>(0, 17));

// ---- concurrency stress (in the TSan job's filter) -----------------

TEST(ServedStress, ConcurrentTenantsShareOneTraceBitIdentical)
{
    ServedTraceFile file(9002, /*steps=*/800);
    trace::MappedTrace mapped(file.path());
    auto sessions = session::SessionSet::enumerate(mapped.registry());
    const sim::SimResult oracle = sim::simulate(mapped, sessions);
    const AddrRange span = file.writeSpan();

    ServerOptions options;
    options.socketPath = ::testing::TempDir() + "/edb_stress." +
                         std::to_string(::getpid()) + ".sock";
    options.workers = 4;
    options.quotas.maxMonitorBytes = 1ull << 40; // span-all monitors
    Server server(options);
    server.start();

    constexpr int kTenants = 8;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kTenants);
    for (int i = 0; i < kTenants; ++i) {
        threads.emplace_back([&, i] {
            try {
                Client c;
                c.connect(options.socketPath);
                c.hello("tenant-" + std::to_string(i));
                const OpenResult open = c.openTrace(file.path());

                // Live path: private monitors, shared trace.
                const std::uint32_t mon = c.install(span);
                const RunReply live = c.run(open.traceId);
                if (live.hits != live.writes)
                    ++failures;
                const ResumeReply batch = c.resume();
                if (batch.hits.size() != 1 ||
                    batch.hits[0].count != live.hits)
                    ++failures;
                c.remove(mon);

                // Oracle path: every tenant a different id subset,
                // counters bit-identical to the one-shot oracle.
                std::vector<std::uint32_t> ids;
                for (std::uint32_t s = (std::uint32_t)i;
                     s < sessions.size();
                     s += (std::uint32_t)kTenants) {
                    ids.push_back(s);
                }
                const RunReply run = c.run(open.traceId, ids);
                if (run.totalWrites != oracle.totalWrites)
                    ++failures;
                for (std::size_t k = 0; k < ids.size(); ++k) {
                    if (run.counters[k] != oracle.counters[ids[k]])
                        ++failures;
                }

                // A query and a stats call in the thick of it.
                WireQuery q;
                q.traceId = open.traceId;
                if (c.query(q).matches != mapped.eventCount())
                    ++failures;
                c.stats();
                c.bye();
            } catch (const std::exception &) {
                ++failures;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0);

    // stop() joins the connection threads, so every tenant handle is
    // gone: the shared mapping was released with the last goodbye.
    server.stop();
    EXPECT_EQ(server.registry().stats().tenants, 0u);
    EXPECT_EQ(server.registry().traces().size(), 0u);
}

TEST(ServedStress, ChurningClientsAgainstLiveServer)
{
    ServedTraceFile file(9003, /*steps=*/400);
    ServerOptions options;
    options.socketPath = ::testing::TempDir() + "/edb_churn." +
                         std::to_string(::getpid()) + ".sock";
    options.workers = 2;
    Server server(options);
    server.start();

    // Threads churn connect/hello/install/bye cycles while one
    // long-lived tenant keeps running replays — exercising the
    // accept loop, the tenant table, and the pool concurrently.
    std::atomic<int> failures{0};
    std::thread longlived([&] {
        try {
            Client c;
            c.connect(options.socketPath);
            c.hello("long-lived");
            const OpenResult open = c.openTrace(file.path());
            for (int round = 0; round < 5; ++round)
                c.run(open.traceId, {0, 1});
            c.bye();
        } catch (const std::exception &) {
            ++failures;
        }
    });
    std::vector<std::thread> churn;
    for (int i = 0; i < 6; ++i) {
        churn.emplace_back([&, i] {
            try {
                for (int round = 0; round < 8; ++round) {
                    Client c;
                    c.connect(options.socketPath);
                    c.hello("churn-" + std::to_string(i));
                    std::uint32_t mon =
                        c.install(AddrRange(0, 4096));
                    c.disable(mon);
                    c.enable(mon);
                    c.remove(mon);
                    if (round % 2 == 0)
                        c.bye(); // otherwise: disconnect without BYE
                    c.close();
                }
            } catch (const std::exception &) {
                ++failures;
            }
        });
    }
    longlived.join();
    for (std::thread &t : churn)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    server.stop(); // joins connection threads: all tenants released
    EXPECT_EQ(server.registry().stats().tenants, 0u);
}

} // namespace
} // namespace edb::served
