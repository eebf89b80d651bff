/**
 * @file
 * Accept loop, per-connection frame dispatch, and reply encoding of
 * the edb-served server.
 */

#include "served/server.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <iterator>
#include <mutex>
#include <cstdio>
#include <cstring>
#include <sstream>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/obs.h"
#include "telemetry/prom.h"
#include "telemetry/report.h"
#include "util/logging.h"

namespace edb::served {

namespace {

#if EDB_OBS_ENABLED
obs::Counter obsConnections{"served.connections"};
obs::Counter obsDisconnects{"served.disconnects"};
obs::Counter obsFrames{"served.frames"};
obs::Counter obsBytesIn{"served.bytes_in"};
obs::Counter obsBytesOut{"served.bytes_out"};
obs::Counter obsErrors{"served.errors"};
obs::Counter obsEventsStreamed{"served.events_streamed"};
obs::Counter obsStats{"served.stats"};
obs::Counter obsMetrics{"served.metrics"};
obs::Counter obsSlowRequests{"served.slow_requests"};
obs::Gauge obsConnsActive{"served.connections.active"};
obs::Gauge obsReadersActive{"served.readers.active"};
obs::Histogram obsFrameBytes{"served.frame_bytes"};

/** The per-op request instruments: an op-labeled request counter and
 *  latency histogram. */
struct OpInstruments
{
    obs::Series requests;
    obs::HistSeries latency;
};

/** The instruments of request opcode `op` (isRequestOp), from a table
 *  indexed by opcode. An op's series are interned by its first
 *  request (so only ops that ran are exported); after that the
 *  lookup is one once-flag check, no lock and no search. */
const OpInstruments &
opInstruments(std::uint8_t op)
{
    constexpr std::size_t n = (std::size_t)Op::Metrics + 1;
    static std::array<OpInstruments, n> table;
    static std::array<std::once_flag, n> once;
    std::call_once(once[op], [op] {
        const obs::Domain d{{"op", opName(op)}};
        table[op] = {d.counter("served.requests"),
                     d.histogram("served.request_ns")};
    });
    return table[op];
}
#endif

/** Write all of `n` bytes; false on any transport error. */
bool
writeAll(int fd, const std::uint8_t *data, std::size_t n)
{
    while (n > 0) {
        ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += (std::size_t)w;
        n -= (std::size_t)w;
    }
    return true;
}

/** The STATS JSON blob: the process-wide obs snapshot when the
 *  build carries edb::obs, a minimal self-describing fallback
 *  otherwise (tests and tooling key off the schema field). */
std::string
statsJson()
{
#if EDB_OBS_ENABLED
    std::ostringstream os;
    obs::writeSnapshotJson(os);
    return os.str();
#else
    return "{\"schema\": \"edb-served-stats-v1\", \"obs\": false}\n";
#endif
}

/** Encode a telemetry Report as the METRICS binary format (format 2,
 *  docs/PROTOCOL.md): fixed-width rows a PayloadReader can decode,
 *  so `edb-trace top` needs no JSON parser. Doubles travel as IEEE
 *  bit patterns in a u64. */
void
writeReportBinary(PayloadWriter &w, const telemetry::Report &report)
{
    w.putU32((std::uint32_t)report.series.size());
    for (const telemetry::ReportSeries &s : report.series) {
        w.putString(s.name);
        w.putU8((std::uint8_t)s.labels.size());
        for (const obs::Label &l : s.labels) {
            w.putString(l.key);
            w.putString(l.value);
        }
        w.putU8((std::uint8_t)s.kind);
        w.putU64((std::uint64_t)s.value);
    }
    w.putU32((std::uint32_t)report.hists.size());
    for (const telemetry::ReportHist &h : report.hists) {
        w.putString(h.name);
        w.putU8((std::uint8_t)h.labels.size());
        for (const obs::Label &l : h.labels) {
            w.putString(l.key);
            w.putString(l.value);
        }
        w.putU64(h.count);
        w.putU64(h.sum);
        w.putU64(h.min);
        w.putU64(h.max);
        w.putU64(std::bit_cast<std::uint64_t>(h.p50));
        w.putU64(std::bit_cast<std::uint64_t>(h.p95));
        w.putU64(std::bit_cast<std::uint64_t>(h.p99));
    }
}

/** Create, bind and listen a Unix-domain socket at `path` (stale
 *  files are unlinked first). Throws std::runtime_error with the
 *  cause on failure. */
int
bindUnixListener(const std::string &path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        throw std::runtime_error(
            std::string("served: socket(): ") + std::strerror(errno));
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        ::close(fd);
        throw std::runtime_error("served: socket path '" + path +
                                 "' exceeds sun_path");
    }
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(path.c_str()); // stale-socket recovery
    if (::bind(fd, (const sockaddr *)&addr, sizeof(addr)) < 0 ||
        ::listen(fd, 64) < 0) {
        const std::string why = std::strerror(errno);
        ::close(fd);
        throw std::runtime_error("served: cannot listen on '" + path +
                                 "': " + why);
    }
    return fd;
}

} // namespace

/** Buffered EVT bytes at which sendEvent() writes them out without
 *  waiting for a block boundary or a reply. */
constexpr std::size_t evtFlushBytes = 32 * 1024;

/** Per-connection state shared between the reader thread, the pool
 *  workers executing its requests, and stop(). */
struct Server::Conn
{
    /** The socket; -1 once the reader thread closed it. Written only
     *  under write_mu. */
    int fd = -1;
    std::mutex write_mu;
    /** Encoded EVT frames not yet written, under write_mu. Every
     *  OK/ERR frame goes out behind them, in the same write. */
    std::vector<std::uint8_t> evts;
    std::shared_ptr<Tenant> tenant;
    std::atomic<bool> dead{false};
    /** Set as the reader thread's last act: joining is then prompt. */
    std::atomic<bool> finished{false};
    std::thread thread;
};

Server::Server(ServerOptions options) : options_(std::move(options))
{
    registry_ = std::make_unique<Registry>(
        options_.quotas, options_.engine, options_.workers);
}

Server::~Server()
{
    stop();
}

void
Server::start()
{
    EDB_ASSERT(!running_.load(), "served: start() while running");
    EDB_ASSERT(!options_.socketPath.empty(),
               "served: empty socket path");

    listen_fd_ = bindUnixListener(options_.socketPath);
    if (!options_.metricsSocketPath.empty()) {
        try {
            metrics_fd_ =
                bindUnixListener(options_.metricsSocketPath);
        } catch (...) {
            ::close(listen_fd_);
            listen_fd_ = -1;
            throw;
        }
    }
    if (::pipe(stop_pipe_) < 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        if (metrics_fd_ >= 0) {
            ::close(metrics_fd_);
            metrics_fd_ = -1;
        }
        throw std::runtime_error(
            std::string("served: pipe(): ") + std::strerror(errno));
    }

    stopping_.store(false, std::memory_order_release);
    running_.store(true, std::memory_order_release);
    accept_thread_ = std::thread([this] { acceptLoop(); });
}

void
Server::stop()
{
    if (!running_.exchange(false, std::memory_order_acq_rel))
        return;
    stopping_.store(true, std::memory_order_release);
    // Wake the accept loop.
    char byte = 0;
    (void)!::write(stop_pipe_[1], &byte, 1);
    if (accept_thread_.joinable())
        accept_thread_.join();

    // Drain: shut each connection's read side. The reader thread
    // finishes the request it is processing (replies still flow —
    // only reads stop) and exits on the EOF.
    std::vector<std::shared_ptr<Conn>> conns;
    {
        std::lock_guard<std::mutex> lk(conns_mu_);
        conns.swap(conns_);
    }
    for (auto &c : conns) {
        // A connection whose reader already closed its fd is skipped:
        // the number may since have been reused by another file.
        std::lock_guard<std::mutex> lk(c->write_mu);
        if (c->fd >= 0)
            ::shutdown(c->fd, SHUT_RD);
    }
    for (auto &c : conns) {
        if (c->thread.joinable())
            c->thread.join();
    }

    ::close(stop_pipe_[0]);
    ::close(stop_pipe_[1]);
    stop_pipe_[0] = stop_pipe_[1] = -1;
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socketPath.c_str());
    if (metrics_fd_ >= 0) {
        ::close(metrics_fd_);
        metrics_fd_ = -1;
        ::unlink(options_.metricsSocketPath.c_str());
    }
}

void
Server::acceptLoop()
{
    EDB_OBS_ONLY(obs::prepareCurrentThread();)
    while (!stopping_.load(std::memory_order_acquire)) {
        pollfd fds[3] = {{listen_fd_, POLLIN, 0},
                         {stop_pipe_[0], POLLIN, 0},
                         {metrics_fd_, POLLIN, 0}};
        const nfds_t nfds = metrics_fd_ >= 0 ? 3 : 2;
        int rc = ::poll(fds, nfds, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (fds[1].revents != 0)
            break;
        if (nfds == 3 && (fds[2].revents & POLLIN) != 0) {
            // Prometheus scrape: one exposition per connection,
            // served inline (the text is small and the write is
            // send-timeout bounded, so the accept loop cannot wedge).
            int mfd = ::accept(metrics_fd_, nullptr, nullptr);
            if (mfd >= 0)
                serveMetricsScrape(mfd);
        }
        if ((fds[0].revents & POLLIN) == 0)
            continue;
        int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        // A peer that stops reading must not wedge a worker (or
        // stop()'s drain) inside send(): bound every write.
        timeval send_timeout{30, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                     sizeof send_timeout);
        accepted_.fetch_add(1, std::memory_order_relaxed);
        EDB_OBS_INC(obsConnections);
        EDB_OBS_GAUGE_ADD(obsConnsActive, 1);
        auto conn = std::make_shared<Conn>();
        conn->fd = fd;
        reapFinished();
        {
            std::lock_guard<std::mutex> lk(conns_mu_);
            conns_.push_back(conn);
        }
        conn->thread =
            std::thread([this, conn] { connectionLoop(conn); });
    }
}

void
Server::reapFinished()
{
    std::vector<std::shared_ptr<Conn>> done;
    {
        std::lock_guard<std::mutex> lk(conns_mu_);
        auto live = std::partition(
            conns_.begin(), conns_.end(), [](const auto &c) {
                return !c->finished.load(std::memory_order_acquire);
            });
        done.assign(std::make_move_iterator(live),
                    std::make_move_iterator(conns_.end()));
        conns_.erase(live, conns_.end());
    }
    for (auto &c : done)
        c->thread.join();
}

void
Server::serveMetricsScrape(int fd)
{
    timeval send_timeout{30, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                 sizeof send_timeout);
    const std::string text = telemetry::prometheusText();
    (void)writeAll(fd, (const std::uint8_t *)text.data(),
                   text.size());
    ::close(fd);
}

void
Server::connectionLoop(std::shared_ptr<Conn> conn)
{
    EDB_OBS_ONLY(obs::prepareCurrentThread();)
    EDB_OBS_GAUGE_ADD(obsReadersActive, 1);
    FrameDecoder decoder(options_.quotas.maxFrameBytes);
    std::vector<char> buf(64 * 1024);
    bool open = true;
    while (open) {
        ssize_t n = ::recv(conn->fd, buf.data(), buf.size(), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        EDB_OBS_ADD(obsBytesIn, (std::uint64_t)n);
        decoder.feed(buf.data(), (std::size_t)n);
        while (open) {
            Frame frame;
            bool got = false;
            try {
                got = decoder.next(frame);
            } catch (const ProtocolError &e) {
                // Oversized frame: typed reply, stream resyncs.
                EDB_OBS_INC(obsErrors);
                sendErr(*conn, 0, e.code(), e.offset(), e.what());
                continue;
            }
            if (!got)
                break;
            EDB_OBS_INC(obsFrames);
            EDB_OBS_OBSERVE(obsFrameBytes, frame.body.size());
            open = dispatch(*conn, frame);
        }
    }
    // Disconnect cleanup: the tenant's monitors, pending hits and
    // trace handles die with it; shared mappings unref.
    if (conn->tenant) {
        registry_->bye(conn->tenant);
        conn->tenant.reset();
    }
    {
        // Under write_mu, so neither a worker's reply nor stop()'s
        // shutdown can touch the fd after it is closed.
        std::lock_guard<std::mutex> lk(conn->write_mu);
        conn->dead.store(true, std::memory_order_release);
        ::close(conn->fd);
        conn->fd = -1;
    }
    EDB_OBS_INC(obsDisconnects);
    EDB_OBS_GAUGE_SUB(obsConnsActive, 1);
    EDB_OBS_GAUGE_SUB(obsReadersActive, 1);
    conn->finished.store(true, std::memory_order_release);
}

bool
Server::dispatch(Conn &conn, const Frame &frame)
{
#if EDB_OBS_ENABLED
    // Request envelope: id, op-labeled latency, trace span, slow log.
    const std::uint64_t req_id =
        next_request_id_.fetch_add(1, std::memory_order_relaxed);
    const char *name = opName(frame.opcode);
    const std::uint64_t t0 = obs::monotonicNs();
    if (obs::traceEnabled())
        obs::emitTraceEvent(name, 'B', t0, req_id);
    const bool open = dispatchRequest(conn, frame);
    const std::uint64_t t1 = obs::monotonicNs();
    if (obs::traceEnabled())
        obs::emitTraceEvent(name, 'E', t1, req_id);
    const std::uint64_t ns = t1 - t0;
    if (isRequestOp(frame.opcode)) {
        const OpInstruments &ins = opInstruments(frame.opcode);
        ins.requests.inc();
        ins.latency.observe(ns);
    }
    if (options_.slowRequestMs != 0 &&
        ns >= options_.slowRequestMs * 1000000ull) {
        EDB_OBS_INC(obsSlowRequests);
        warn("served: slow request #%llu: %s took %llu ms "
             "(threshold %llu ms)",
             (unsigned long long)req_id, name,
             (unsigned long long)(ns / 1000000ull),
             (unsigned long long)options_.slowRequestMs);
    }
    return open;
#else
    return dispatchRequest(conn, frame);
#endif
}

bool
Server::dispatchRequest(Conn &conn, const Frame &frame)
{
    const std::uint8_t op = frame.opcode;
    if (!isRequestOp(op)) {
        EDB_OBS_INC(obsErrors);
        char msg[64];
        std::snprintf(msg, sizeof msg, "unknown opcode 0x%02x", op);
        // + 4: the opcode byte follows the u32 length field.
        return sendErr(conn, op, ErrCode::UnknownOpcode,
                       frame.offset + 4, msg);
    }

    PayloadReader rd(frame.body, frame.offset + frameHeaderBytes);
    try {
        switch ((Op)op) {
          case Op::Hello: {
            const std::uint32_t version = rd.getU32();
            const std::string name = rd.getString();
            rd.requireEnd();
            if (version != protocolVersion) {
                throw ServedError(
                    ErrCode::BadVersion,
                    "protocol version " + std::to_string(version) +
                        " unsupported (server speaks " +
                        std::to_string(protocolVersion) + ")");
            }
            if (conn.tenant) {
                throw ServedError(ErrCode::AlreadyHello,
                                  "tenant '" + conn.tenant->name() +
                                      "' already said HELLO");
            }
            if (stopping_.load(std::memory_order_acquire)) {
                throw ServedError(ErrCode::ShuttingDown,
                                  "server is draining");
            }
            conn.tenant = registry_->hello(name);
            PayloadWriter w;
            w.putU32(protocolVersion);
            w.putString("edb-served");
            w.putU64(conn.tenant->id());
            return sendOk(conn, op, w);
          }
          case Op::Stats: {
            // Deliberately allowed before HELLO: admission control
            // must never lock monitoring clients out.
            rd.requireEnd();
            EDB_OBS_INC(obsStats);
            const RegistryStats rs = registry_->stats();
            PayloadWriter w;
            w.putBlob(statsJson());
            w.putU32((std::uint32_t)rs.tenants);
            for (const TenantStats &t : rs.tenantRows) {
                w.putU64(t.id);
                w.putString(t.name);
                w.putU32((std::uint32_t)t.monitors);
                w.putU32((std::uint32_t)t.traces);
                w.putU64(t.pendingHits);
                w.putU64(t.notifications);
                w.putU64(t.runs);
                w.putU64(t.queries);
            }
            w.putU32((std::uint32_t)rs.traceRows.size());
            for (const TraceCache::Entry &e : rs.traceRows) {
                w.putString(e.path);
                w.putU32((std::uint32_t)e.refs);
                w.putU64(e.events);
                w.putU8(e.indexed ? 1 : 0);
            }
            return sendOk(conn, op, w);
          }
          case Op::Metrics: {
            // Like STATS, deliberately allowed before HELLO:
            // scrapers and dashboards are not tenants.
            std::uint8_t format =
                (std::uint8_t)MetricsFormat::Prometheus;
            if (rd.remaining() > 0)
                format = rd.getU8();
            rd.requireEnd();
            if (format > (std::uint8_t)MetricsFormat::Binary) {
                throw ServedError(
                    ErrCode::MalformedPayload,
                    "METRICS format " + std::to_string(format) +
                        " unknown (0=prometheus, 1=json, 2=binary)");
            }
            EDB_OBS_INC(obsMetrics);
            PayloadWriter w;
            w.putU8(format);
            if ((MetricsFormat)format == MetricsFormat::Prometheus) {
                w.putBlob(telemetry::prometheusText());
            } else {
                const telemetry::Report report = telemetry::makeReport();
                if ((MetricsFormat)format == MetricsFormat::Json)
                    w.putBlob(telemetry::reportToJson(report));
                else
                    writeReportBinary(w, report);
            }
            return sendOk(conn, op, w);
          }
          case Op::Bye: {
            rd.requireEnd();
            if (conn.tenant) {
                registry_->bye(conn.tenant);
                conn.tenant.reset();
            }
            sendOk(conn, op, PayloadWriter{});
            return false; // orderly close after the OK
          }
          default:
            break;
        }

        if (!conn.tenant) {
            throw ServedError(ErrCode::NotHello,
                              std::string(opName(op)) +
                                  " before HELLO");
        }
        std::shared_ptr<Tenant> tenant = conn.tenant;

        switch ((Op)op) {
          case Op::OpenTrace: {
            const std::string path = rd.getString();
            rd.requireEnd();
            const OpenResult res = tenant->openTrace(path);
            PayloadWriter w;
            w.putU32(res.traceId);
            w.putU64(res.events);
            w.putU64(res.writes);
            w.putU32(res.sessionCount);
            w.putU32(res.blocks);
            w.putU8(res.indexed ? 1 : 0);
            return sendOk(conn, op, w);
          }
          case Op::Install: {
            const AddrRange r = rd.getRange();
            rd.requireEnd();
            PayloadWriter w;
            w.putU32(tenant->install(r));
            return sendOk(conn, op, w);
          }
          case Op::Remove:
          case Op::Enable:
          case Op::Disable: {
            const std::uint32_t id = rd.getU32();
            rd.requireEnd();
            if ((Op)op == Op::Remove)
                tenant->remove(id);
            else if ((Op)op == Op::Enable)
                tenant->enable(id);
            else
                tenant->disable(id);
            return sendOk(conn, op, PayloadWriter{});
          }
          case Op::Resume: {
            rd.requireEnd();
            const ResumeBatch batch = tenant->resume();
            PayloadWriter w;
            w.putU32((std::uint32_t)batch.hits.size());
            for (const PendingHit &h : batch.hits) {
                w.putU32(h.monitorId);
                w.putU64(h.last.begin);
                w.putU64(h.last.end);
                w.putU64(h.count);
            }
            w.putU64(batch.dropped);
            return sendOk(conn, op, w);
          }
          case Op::Run: {
            const std::uint32_t trace_id = rd.getU32();
            const std::uint32_t nsessions = rd.getU32();
            if (nsessions > options_.quotas.maxRunSessions) {
                throw ServedError(
                    ErrCode::QuotaExceeded,
                    "RUN names " + std::to_string(nsessions) +
                        " sessions; the quota is " +
                        std::to_string(
                            options_.quotas.maxRunSessions));
            }
            std::vector<std::uint32_t> ids;
            ids.reserve(nsessions);
            for (std::uint32_t i = 0; i < nsessions; ++i)
                ids.push_back(rd.getU32());
            rd.requireEnd();
            PayloadWriter w;
            if (ids.empty()) {
                const LiveRunResult res = registry_->onPool(
                    [&] { return tenant->runLive(trace_id); });
                w.putU8(0); // live-mode reply
                w.putU64(res.writes);
                w.putU64(res.hits);
                w.putU64(res.notifications);
            } else {
                const SessionRunResult res = registry_->onPool([&] {
                    return tenant->runSessions(trace_id, ids);
                });
                w.putU8(1); // session-mode reply
                w.putU64(res.totalWrites);
                w.putU32((std::uint32_t)res.counters.size());
                for (const sim::SessionCounters &c : res.counters) {
                    w.putU64(c.installs);
                    w.putU64(c.removes);
                    w.putU64(c.hits);
                    for (const sim::VmCounters &vm : c.vm) {
                        w.putU64(vm.protects);
                        w.putU64(vm.unprotects);
                        w.putU64(vm.activePageMisses);
                    }
                }
            }
            return sendOk(conn, op, w);
          }
          case Op::Query: {
            WireQuery q;
            q.traceId = rd.getU32();
            q.kindMask = rd.getU32();
            q.firstIndex = rd.getU64();
            q.lastIndex = rd.getU64();
            q.minSize = rd.getU32();
            q.maxSize = rd.getU32();
            q.agg = rd.getU8();
            if (q.agg > 1) {
                throw ServedError(
                    ErrCode::BadQuery,
                    "wire agg " + std::to_string(q.agg) +
                        " unsupported (0=count, 1=by-session)");
            }
            const std::uint32_t nranges = rd.getU32();
            for (std::uint32_t i = 0; i < nranges; ++i)
                q.addrRanges.push_back(rd.getRange());
            const std::uint32_t nsessions = rd.getU32();
            for (std::uint32_t i = 0; i < nsessions; ++i)
                q.sessions.push_back(rd.getU32());
            rd.requireEnd();
            const QueryReply res =
                registry_->onPool([&] { return tenant->query(q); });
            PayloadWriter w;
            w.putU64(res.matches);
            w.putU32((std::uint32_t)res.sessionCounts.size());
            for (std::uint64_t c : res.sessionCounts)
                w.putU64(c);
            return sendOk(conn, op, w);
          }
          case Op::Subscribe: {
            const bool on = rd.getU8() != 0;
            rd.requireEnd();
            Conn *raw = &conn;
            tenant->subscribe(
                on,
                [this, raw](const EventOut &e) { sendEvent(*raw, e); },
                [this, raw] { flushEvents(*raw); });
            return sendOk(conn, op, PayloadWriter{});
          }
          default:
            break;
        }
        // Unreachable: every request opcode is handled above.
        throw ServedError(ErrCode::Internal, "unhandled opcode");
    } catch (const ProtocolError &e) {
        EDB_OBS_INC(obsErrors);
        return sendErr(conn, op, e.code(), e.offset(), e.what());
    } catch (const ServedError &e) {
        EDB_OBS_INC(obsErrors);
        return sendErr(conn, op, e.code(), 0, e.what());
    } catch (const trace::TraceError &e) {
        EDB_OBS_INC(obsErrors);
        return sendErr(conn, op, ErrCode::TraceLoadFailed, 0,
                       e.what());
    } catch (const std::exception &e) {
        EDB_OBS_INC(obsErrors);
        return sendErr(conn, op, ErrCode::Internal, 0, e.what());
    }
}

bool
Server::sendOk(Conn &conn, std::uint8_t req_op,
               const PayloadWriter &payload)
{
    std::vector<std::uint8_t> body;
    body.reserve(1 + payload.bytes().size());
    body.push_back(req_op);
    body.insert(body.end(), payload.bytes().begin(),
                payload.bytes().end());
    return sendFrame(conn, Op::Ok, body);
}

bool
Server::sendErr(Conn &conn, std::uint8_t req_op, ErrCode code,
                std::uint64_t offset, const std::string &message)
{
    PayloadWriter w;
    w.putU8(req_op);
    w.putU16((std::uint16_t)code);
    w.putU64(offset);
    w.putString(message.size() <= maxStringBytes
                    ? message
                    : message.substr(0, maxStringBytes));
    return sendFrame(conn, Op::Err, w.bytes());
}

bool
Server::sendEvent(Conn &conn, const EventOut &event)
{
    EDB_OBS_INC(obsEventsStreamed);
    PayloadWriter w;
    w.putU64(event.seq);
    w.putU32(event.monitorId);
    w.putU64(event.written.begin);
    w.putU64(event.written.end);
    w.putU64(event.pc);
    std::lock_guard<std::mutex> lk(conn.write_mu);
    if (conn.dead.load(std::memory_order_acquire))
        return false;
    encodeFrame(conn.evts, Op::Event, w.bytes());
    return conn.evts.size() < evtFlushBytes || writeEventsLocked(conn);
}

bool
Server::flushEvents(Conn &conn)
{
    std::lock_guard<std::mutex> lk(conn.write_mu);
    if (conn.dead.load(std::memory_order_acquire))
        return false;
    return conn.evts.empty() || writeEventsLocked(conn);
}

bool
Server::writeEventsLocked(Conn &conn)
{
    const bool ok = writeAll(conn.fd, conn.evts.data(), conn.evts.size());
    if (ok)
        EDB_OBS_ADD(obsBytesOut, conn.evts.size());
    else
        conn.dead.store(true, std::memory_order_release);
    conn.evts.clear();
    return ok;
}

bool
Server::sendFrame(Conn &conn, Op op,
                  const std::vector<std::uint8_t> &body)
{
    std::lock_guard<std::mutex> lk(conn.write_mu);
    if (conn.dead.load(std::memory_order_acquire))
        return false;
    // Behind any buffered EVTs, in one write: a RUN's events always
    // reach the client before its reply.
    encodeFrame(conn.evts, op, body);
    return writeEventsLocked(conn);
}

} // namespace edb::served
