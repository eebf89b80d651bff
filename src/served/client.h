/**
 * @file
 * Blocking client for the edb-served daemon.
 *
 * Used by the `edb-trace connect` command, the tier-1 server tests,
 * bench_served, and the CI smoke script. The surface mirrors the
 * wire protocol one call per request opcode; every call sends one
 * frame and blocks until the matching OK or ERR reply. EVT frames
 * that arrive while waiting (the server streams notifications
 * asynchronously once SUBSCRIBE is on) are queued, not lost —
 * takeEvents() hands them over in arrival (sequence) order.
 *
 * ERR replies become ClientError exceptions carrying the typed
 * ErrCode and byte offset from the server, so callers can assert on
 * exact failure classes (quota vs malformed vs unknown-id).
 *
 * The raw helpers sendRaw()/readFrame() bypass the codec entirely;
 * the byte-flip fuzz tests use them to deliver deliberately corrupt
 * frames and observe the server's typed answers.
 */

#ifndef EDB_SERVED_CLIENT_H
#define EDB_SERVED_CLIENT_H

#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "served/protocol.h"
#include "served/registry.h"
#include "telemetry/report.h"

namespace edb::served {

/** An ERR reply from the server, surfaced as an exception. */
class ClientError : public std::runtime_error
{
  public:
    ClientError(ErrCode code, std::uint64_t offset,
                const std::string &what)
        : std::runtime_error(what), code_(code), offset_(offset)
    {
    }

    ErrCode code() const { return code_; }
    std::uint64_t offset() const { return offset_; }

  private:
    ErrCode code_;
    std::uint64_t offset_;
};

/** HELLO reply: what the server said about itself and us. */
struct HelloReply
{
    std::uint32_t version = 0;
    std::string serverName;
    std::uint64_t tenantId = 0;
};

/** One drained pending-hit batch entry (RESUME reply). */
struct ResumeHit
{
    std::uint32_t monitorId = 0;
    AddrRange last{0, 0};
    std::uint64_t count = 0;
};

/** RESUME reply: the batch plus how many hits overflowed the cap. */
struct ResumeReply
{
    std::vector<ResumeHit> hits;
    std::uint64_t dropped = 0;
};

/** Per-tenant row of a STATS reply. */
struct StatsTenantRow
{
    std::uint64_t id = 0;
    std::string name;
    std::uint32_t monitors = 0;
    std::uint32_t traces = 0;
    std::uint64_t pendingHits = 0;
    std::uint64_t notifications = 0;
    std::uint64_t runs = 0;
    std::uint64_t queries = 0;
};

/** Per-shared-trace row of a STATS reply. */
struct StatsTraceRow
{
    std::string path;
    std::uint32_t refs = 0;
    std::uint64_t events = 0;
    /** The server's shared mapping has a validated .edbi sidecar. */
    bool indexed = false;
};

/** STATS reply: obs snapshot JSON plus live registry tables. */
struct StatsReply
{
    std::string snapshotJson;
    std::vector<StatsTenantRow> tenants;
    std::vector<StatsTraceRow> traces;
};

/** RUN reply; exactly one of the two shapes is filled in. */
struct RunReply
{
    /** True when the reply carries per-session oracle counters. */
    bool sessionMode = false;

    // Live mode (no session ids): tenant monitors saw the replay.
    std::uint64_t writes = 0;
    std::uint64_t hits = 0;
    std::uint64_t notifications = 0;

    // Session mode: bit-identical sim::simulate counters.
    std::uint64_t totalWrites = 0;
    std::vector<sim::SessionCounters> counters;
};

class Client
{
  public:
    Client() = default;
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Movable: the source is left disconnected. */
    Client(Client &&other) noexcept;
    Client &operator=(Client &&other) noexcept;

    /**
     * Connect to the daemon's Unix socket. Retries for up to
     * `timeout_ms` while the socket does not exist or refuses —
     * covering the daemon-still-starting race in scripts and tests.
     * Throws std::runtime_error when the deadline passes.
     */
    void connect(const std::string &socket_path, int timeout_ms = 5000);

    /** Close the socket (without BYE). Safe when not connected. */
    void close();

    bool connected() const { return fd_ >= 0; }

    // -- one call per request opcode ------------------------------

    HelloReply hello(const std::string &tenant_name,
                     std::uint32_t version = protocolVersion);

    /** Returns the tenant-scoped trace id. */
    OpenResult openTrace(const std::string &path);

    /** Returns the monitor id. */
    std::uint32_t install(AddrRange range);
    void remove(std::uint32_t monitor_id);
    void enable(std::uint32_t monitor_id);
    void disable(std::uint32_t monitor_id);
    ResumeReply resume();

    /** Empty `sessions` selects live-monitor mode. */
    RunReply run(std::uint32_t trace_id,
                 const std::vector<std::uint32_t> &sessions = {});

    QueryReply query(const WireQuery &spec);

    void subscribe(bool on);
    StatsReply stats();

    /**
     * METRICS as a text blob: MetricsFormat::Prometheus (default)
     * returns the exposition (`text/plain; version=0.0.4`),
     * MetricsFormat::Json the edb-metrics-v2 JSON document. Allowed
     * before HELLO, like stats().
     */
    std::string metricsText(
        MetricsFormat format = MetricsFormat::Prometheus);

    /** METRICS in binary form, decoded to structured rows. */
    telemetry::Report metricsReport();

    /** Orderly goodbye; the server closes after its OK. */
    void bye();

    /** EVT frames received so far, in sequence order. */
    std::vector<EventOut> takeEvents();

    /**
     * Block until at least `n` EVT frames have been received or
     * `timeout_ms` passes (false on timeout). Use after RUN with
     * SUBSCRIBE on: replies can overtake the event stream's tail.
     */
    bool waitForEvents(std::size_t n, int timeout_ms = 5000);

    // -- raw access for fuzzing ------------------------------------

    /** Write bytes to the socket verbatim (no framing). */
    void sendRaw(const void *data, std::size_t n);

    /** Encode and send one well-formed frame. */
    void sendFrame(Op op, const std::vector<std::uint8_t> &body);

    /**
     * Read the next frame of any opcode (EVT included — the queue is
     * bypassed). Returns nullopt on EOF. Throws on transport errors
     * or when `timeout_ms` passes.
     */
    std::optional<Frame> readFrame(int timeout_ms = 5000);

  private:
    /**
     * Send `op` and wait for its reply. Returns the OK payload as a
     * reader positioned past the echoed opcode byte; the payload
     * bytes live in reply_body_ until the next call. Throws
     * ClientError on ERR.
     */
    PayloadReader call(Op op, const PayloadWriter &payload);

    int fd_ = -1;
    FrameDecoder decoder_;
    std::deque<EventOut> events_;
    std::vector<std::uint8_t> reply_body_;
    std::uint64_t reply_offset_ = 0;
};

} // namespace edb::served

#endif // EDB_SERVED_CLIENT_H
