/**
 * @file
 * Blocking Unix-socket client for edb-served.
 */

#include "served/client.h"

#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace edb::served {

namespace {

std::uint64_t
nowMs()
{
    return (std::uint64_t)std::chrono::duration_cast<
               std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

Client::~Client()
{
    close();
}

Client::Client(Client &&other) noexcept
    : fd_(other.fd_), decoder_(std::move(other.decoder_)),
      events_(std::move(other.events_)),
      reply_body_(std::move(other.reply_body_)),
      reply_offset_(other.reply_offset_)
{
    other.fd_ = -1;
}

Client &
Client::operator=(Client &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        other.fd_ = -1;
        decoder_ = std::move(other.decoder_);
        events_ = std::move(other.events_);
        reply_body_ = std::move(other.reply_body_);
        reply_offset_ = other.reply_offset_;
    }
    return *this;
}

void
Client::connect(const std::string &socket_path, int timeout_ms)
{
    close();
    const std::uint64_t deadline = nowMs() + (std::uint64_t)timeout_ms;
    for (;;) {
        int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0) {
            throw std::runtime_error(
                std::string("served client: socket(): ") +
                std::strerror(errno));
        }
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (socket_path.size() >= sizeof(addr.sun_path)) {
            ::close(fd);
            throw std::runtime_error("served client: socket path '" +
                                     socket_path +
                                     "' exceeds sun_path");
        }
        std::strncpy(addr.sun_path, socket_path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::connect(fd, (const sockaddr *)&addr, sizeof(addr)) ==
            0) {
            fd_ = fd;
            return;
        }
        const int err = errno;
        ::close(fd);
        // The daemon may still be binding its socket: retry the
        // not-there-yet class of failures until the deadline.
        const bool retryable = err == ENOENT || err == ECONNREFUSED ||
                               err == EAGAIN;
        if (!retryable || nowMs() >= deadline) {
            throw std::runtime_error("served client: connect('" +
                                     socket_path +
                                     "'): " + std::strerror(err));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
}

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    decoder_ = FrameDecoder();
    events_.clear();
}

void
Client::sendRaw(const void *data, std::size_t n)
{
    const std::uint8_t *p = (const std::uint8_t *)data;
    while (n > 0) {
        ssize_t w = ::send(fd_, p, n, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            throw std::runtime_error(
                std::string("served client: send(): ") +
                std::strerror(errno));
        }
        p += (std::size_t)w;
        n -= (std::size_t)w;
    }
}

void
Client::sendFrame(Op op, const std::vector<std::uint8_t> &body)
{
    std::vector<std::uint8_t> wire;
    wire.reserve(frameHeaderBytes + body.size());
    encodeFrame(wire, op, body);
    sendRaw(wire.data(), wire.size());
}

std::optional<Frame>
Client::readFrame(int timeout_ms)
{
    const std::uint64_t deadline = nowMs() + (std::uint64_t)timeout_ms;
    Frame frame;
    for (;;) {
        if (decoder_.next(frame))
            return frame;
        const std::uint64_t now = nowMs();
        if (now >= deadline)
            throw std::runtime_error(
                "served client: timed out waiting for a frame");
        pollfd pfd{fd_, POLLIN, 0};
        int rc = ::poll(&pfd, 1, (int)(deadline - now));
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            throw std::runtime_error(
                std::string("served client: poll(): ") +
                std::strerror(errno));
        }
        if (rc == 0)
            throw std::runtime_error(
                "served client: timed out waiting for a frame");
        char buf[64 * 1024];
        ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw std::runtime_error(
                std::string("served client: recv(): ") +
                std::strerror(errno));
        }
        if (n == 0)
            return std::nullopt; // EOF
        decoder_.feed(buf, (std::size_t)n);
    }
}

std::vector<EventOut>
Client::takeEvents()
{
    // Pull any EVT frames already buffered on the socket.
    for (;;) {
        pollfd pfd{fd_, POLLIN, 0};
        if (::poll(&pfd, 1, 0) <= 0)
            break;
        char buf[64 * 1024];
        ssize_t n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
        if (n <= 0)
            break;
        decoder_.feed(buf, (std::size_t)n);
    }
    Frame frame;
    while (decoder_.next(frame)) {
        if ((Op)frame.opcode != Op::Event)
            throw std::runtime_error(
                "served client: unexpected non-EVT frame while "
                "draining events");
        PayloadReader rd(frame.body, 0);
        EventOut e;
        e.seq = rd.getU64();
        e.monitorId = rd.getU32();
        e.written = rd.getRange();
        e.pc = rd.getU64();
        events_.push_back(e);
    }
    std::vector<EventOut> out(events_.begin(), events_.end());
    events_.clear();
    return out;
}

bool
Client::waitForEvents(std::size_t n, int timeout_ms)
{
    const std::uint64_t deadline = nowMs() + (std::uint64_t)timeout_ms;
    while (events_.size() < n) {
        const std::uint64_t now = nowMs();
        if (now >= deadline)
            return false;
        std::optional<Frame> frame =
            readFrame((int)(deadline - now));
        if (!frame)
            return false;
        if ((Op)frame->opcode != Op::Event)
            throw std::runtime_error(
                "served client: unexpected non-EVT frame while "
                "waiting for events");
        PayloadReader rd(frame->body, 0);
        EventOut e;
        e.seq = rd.getU64();
        e.monitorId = rd.getU32();
        e.written = rd.getRange();
        e.pc = rd.getU64();
        events_.push_back(e);
    }
    return true;
}

PayloadReader
Client::call(Op op, const PayloadWriter &payload)
{
    sendFrame(op, payload.bytes());
    for (;;) {
        // Generous reply deadline: RUN/QUERY may queue behind other
        // tenants on the bounded pool.
        std::optional<Frame> frame = readFrame(60000);
        if (!frame)
            throw std::runtime_error(
                std::string("served client: connection closed while "
                            "awaiting a reply to ") +
                opName((std::uint8_t)op));
        switch ((Op)frame->opcode) {
          case Op::Event: {
            // Streamed notification overtaking the reply: queue it.
            PayloadReader rd(frame->body, 0);
            EventOut e;
            e.seq = rd.getU64();
            e.monitorId = rd.getU32();
            e.written = rd.getRange();
            e.pc = rd.getU64();
            events_.push_back(e);
            continue;
          }
          case Op::Ok: {
            reply_body_ = std::move(frame->body);
            PayloadReader rd(reply_body_, 0);
            const std::uint8_t echoed = rd.getU8();
            if (echoed != (std::uint8_t)op)
                throw std::runtime_error(
                    std::string("served client: OK echoes ") +
                    opName(echoed) + " but " +
                    opName((std::uint8_t)op) + " is in flight");
            return rd;
          }
          case Op::Err: {
            PayloadReader rd(frame->body, 0);
            rd.getU8(); // echoed request opcode
            const ErrCode code = (ErrCode)rd.getU16();
            const std::uint64_t at = rd.getU64();
            const std::string msg = rd.getString();
            throw ClientError(code, at,
                              std::string(errCodeName(code)) + ": " +
                                  msg);
          }
          default:
            throw std::runtime_error(
                "served client: unexpected opcode " +
                std::to_string(frame->opcode) + " from the server");
        }
    }
}

HelloReply
Client::hello(const std::string &tenant_name, std::uint32_t version)
{
    PayloadWriter w;
    w.putU32(version);
    w.putString(tenant_name);
    PayloadReader rd = call(Op::Hello, w);
    HelloReply r;
    r.version = rd.getU32();
    r.serverName = rd.getString();
    r.tenantId = rd.getU64();
    rd.requireEnd();
    return r;
}

OpenResult
Client::openTrace(const std::string &path)
{
    PayloadWriter w;
    w.putString(path);
    PayloadReader rd = call(Op::OpenTrace, w);
    OpenResult r;
    r.traceId = rd.getU32();
    r.events = rd.getU64();
    r.writes = rd.getU64();
    r.sessionCount = rd.getU32();
    r.blocks = rd.getU32();
    r.indexed = rd.getU8() != 0;
    rd.requireEnd();
    return r;
}

std::uint32_t
Client::install(AddrRange range)
{
    PayloadWriter w;
    w.putU64(range.begin);
    w.putU64(range.end);
    PayloadReader rd = call(Op::Install, w);
    const std::uint32_t id = rd.getU32();
    rd.requireEnd();
    return id;
}

void
Client::remove(std::uint32_t monitor_id)
{
    PayloadWriter w;
    w.putU32(monitor_id);
    call(Op::Remove, w).requireEnd();
}

void
Client::enable(std::uint32_t monitor_id)
{
    PayloadWriter w;
    w.putU32(monitor_id);
    call(Op::Enable, w).requireEnd();
}

void
Client::disable(std::uint32_t monitor_id)
{
    PayloadWriter w;
    w.putU32(monitor_id);
    call(Op::Disable, w).requireEnd();
}

ResumeReply
Client::resume()
{
    PayloadReader rd = call(Op::Resume, PayloadWriter{});
    ResumeReply r;
    const std::uint32_t n = rd.getU32();
    r.hits.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        ResumeHit h;
        h.monitorId = rd.getU32();
        h.last = rd.getRange();
        h.count = rd.getU64();
        r.hits.push_back(h);
    }
    r.dropped = rd.getU64();
    rd.requireEnd();
    return r;
}

RunReply
Client::run(std::uint32_t trace_id,
            const std::vector<std::uint32_t> &sessions)
{
    PayloadWriter w;
    w.putU32(trace_id);
    w.putU32((std::uint32_t)sessions.size());
    for (std::uint32_t s : sessions)
        w.putU32(s);
    PayloadReader rd = call(Op::Run, w);
    RunReply r;
    r.sessionMode = rd.getU8() != 0;
    if (!r.sessionMode) {
        r.writes = rd.getU64();
        r.hits = rd.getU64();
        r.notifications = rd.getU64();
    } else {
        r.totalWrites = rd.getU64();
        const std::uint32_t n = rd.getU32();
        r.counters.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) {
            sim::SessionCounters c{};
            c.installs = rd.getU64();
            c.removes = rd.getU64();
            c.hits = rd.getU64();
            for (sim::VmCounters &vm : c.vm) {
                vm.protects = rd.getU64();
                vm.unprotects = rd.getU64();
                vm.activePageMisses = rd.getU64();
            }
            r.counters.push_back(c);
        }
    }
    rd.requireEnd();
    return r;
}

QueryReply
Client::query(const WireQuery &spec)
{
    PayloadWriter w;
    w.putU32(spec.traceId);
    w.putU32(spec.kindMask);
    w.putU64(spec.firstIndex);
    w.putU64(spec.lastIndex);
    w.putU32(spec.minSize);
    w.putU32(spec.maxSize);
    w.putU8(spec.agg);
    w.putU32((std::uint32_t)spec.addrRanges.size());
    for (const AddrRange &r : spec.addrRanges) {
        w.putU64(r.begin);
        w.putU64(r.end);
    }
    w.putU32((std::uint32_t)spec.sessions.size());
    for (std::uint32_t s : spec.sessions)
        w.putU32(s);
    PayloadReader rd = call(Op::Query, w);
    QueryReply r;
    r.matches = rd.getU64();
    const std::uint32_t n = rd.getU32();
    r.sessionCounts.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i)
        r.sessionCounts.push_back(rd.getU64());
    rd.requireEnd();
    return r;
}

void
Client::subscribe(bool on)
{
    PayloadWriter w;
    w.putU8(on ? 1 : 0);
    call(Op::Subscribe, w).requireEnd();
}

StatsReply
Client::stats()
{
    PayloadReader rd = call(Op::Stats, PayloadWriter{});
    StatsReply r;
    // The obs snapshot is bounded by the frame cap, not the string
    // cap: read it as a blob.
    r.snapshotJson = rd.getBlob(defaultMaxFrameBytes);
    const std::uint32_t ntenants = rd.getU32();
    r.tenants.reserve(ntenants);
    for (std::uint32_t i = 0; i < ntenants; ++i) {
        StatsTenantRow t;
        t.id = rd.getU64();
        t.name = rd.getString();
        t.monitors = rd.getU32();
        t.traces = rd.getU32();
        t.pendingHits = rd.getU64();
        t.notifications = rd.getU64();
        t.runs = rd.getU64();
        t.queries = rd.getU64();
        r.tenants.push_back(t);
    }
    const std::uint32_t ntraces = rd.getU32();
    r.traces.reserve(ntraces);
    for (std::uint32_t i = 0; i < ntraces; ++i) {
        StatsTraceRow t;
        t.path = rd.getString();
        t.refs = rd.getU32();
        t.events = rd.getU64();
        t.indexed = rd.getU8() != 0;
        r.traces.push_back(t);
    }
    rd.requireEnd();
    return r;
}

std::string
Client::metricsText(MetricsFormat format)
{
    PayloadWriter w;
    w.putU8((std::uint8_t)format);
    PayloadReader rd = call(Op::Metrics, w);
    rd.getU8(); // echoed format
    std::string text = rd.getBlob(defaultMaxFrameBytes);
    rd.requireEnd();
    return text;
}

namespace {

std::vector<obs::Label>
readLabels(PayloadReader &rd)
{
    const std::uint8_t n = rd.getU8();
    std::vector<obs::Label> labels;
    labels.reserve(n);
    for (std::uint8_t i = 0; i < n; ++i) {
        obs::Label l;
        l.key = rd.getString();
        l.value = rd.getString();
        labels.push_back(std::move(l));
    }
    return labels;
}

} // namespace

telemetry::Report
Client::metricsReport()
{
    PayloadWriter w;
    w.putU8((std::uint8_t)MetricsFormat::Binary);
    PayloadReader rd = call(Op::Metrics, w);
    rd.getU8(); // echoed format
    telemetry::Report r;
    const std::uint32_t nseries = rd.getU32();
    r.series.reserve(nseries);
    for (std::uint32_t i = 0; i < nseries; ++i) {
        telemetry::ReportSeries s;
        s.name = rd.getString();
        s.labels = readLabels(rd);
        s.kind = (obs::Kind)rd.getU8();
        s.value = (std::int64_t)rd.getU64();
        r.series.push_back(std::move(s));
    }
    const std::uint32_t nhists = rd.getU32();
    r.hists.reserve(nhists);
    for (std::uint32_t i = 0; i < nhists; ++i) {
        telemetry::ReportHist h;
        h.name = rd.getString();
        h.labels = readLabels(rd);
        h.count = rd.getU64();
        h.sum = rd.getU64();
        h.min = rd.getU64();
        h.max = rd.getU64();
        h.p50 = std::bit_cast<double>(rd.getU64());
        h.p95 = std::bit_cast<double>(rd.getU64());
        h.p99 = std::bit_cast<double>(rd.getU64());
        r.hists.push_back(std::move(h));
    }
    rd.requireEnd();
    return r;
}

void
Client::bye()
{
    call(Op::Bye, PayloadWriter{}).requireEnd();
}

} // namespace edb::served
