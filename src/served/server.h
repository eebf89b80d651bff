/**
 * @file
 * The edb-served Unix-domain-socket server.
 *
 * One listener thread accepts clients; each connection gets a reader
 * thread that splits frames (served::FrameDecoder), dispatches them
 * against the shared Registry, and writes replies. Heavy requests
 * (RUN, QUERY) execute on the registry's bounded worker pool, so N
 * misbehaving tenants degrade to queueing — never to a thread
 * explosion — while cheap control requests stay interactive.
 *
 * Failure policy (ISSUE 7): every protocol failure — malformed,
 * truncated or oversized frame, unknown opcode — and every semantic
 * failure — quota, unknown id, unloadable trace — produces a typed
 * ERR reply carrying an error code and the offending byte offset.
 * The connection, and every other tenant, keeps working. The only
 * things that end a connection are BYE, peer EOF, a transport
 * error, and stop().
 *
 * stop() is the graceful-shutdown path the daemon's SIGINT/SIGTERM
 * handler invokes: stop accepting, shut down each connection's read
 * side (in-flight requests still get their replies), join
 * everything, unlink the socket.
 */

#ifndef EDB_SERVED_SERVER_H
#define EDB_SERVED_SERVER_H

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "served/registry.h"

namespace edb::served {

/** Server configuration. */
struct ServerOptions
{
    /** Filesystem path of the Unix-domain listening socket. */
    std::string socketPath;
    Quotas quotas;
    /** Worker threads for RUN/QUERY execution. */
    unsigned workers = 2;
    /** Live-monitor engine family for new tenants. */
    Engine engine = Engine::Software;

    /** Optional second Unix socket speaking raw Prometheus text:
     *  each accepted connection receives one exposition
     *  (`text/plain; version=0.0.4` content) and is closed — so a
     *  stock file-based scraper needs no edb protocol support.
     *  Empty disables it. */
    std::string metricsSocketPath;
    /** Requests slower than this log one warn line with the request
     *  id, op and latency; 0 disables the slow-request log. */
    std::uint64_t slowRequestMs = 1000;
};

class Server
{
  public:
    explicit Server(ServerOptions options);

    /** stop()s if still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind, listen, and start the accept loop. Throws
     * std::runtime_error when the socket cannot be created or bound
     * (stale-socket recovery: an existing file at the path is
     * unlinked first).
     */
    void start();

    /**
     * Graceful shutdown: stop accepting, drain every connection
     * (each finishes its in-flight request and gets its reply),
     * join all threads, unlink the socket. Idempotent.
     */
    void stop();

    bool running() const
    {
        return running_.load(std::memory_order_acquire);
    }

    const std::string &socketPath() const
    {
        return options_.socketPath;
    }

    Registry &registry() { return *registry_; }

    /** Connections accepted over the server's lifetime. */
    std::uint64_t connectionsAccepted() const
    {
        return accepted_.load(std::memory_order_relaxed);
    }

  private:
    struct Conn;

    void acceptLoop();
    void connectionLoop(std::shared_ptr<Conn> conn);
    /** Join and drop every connection whose reader thread finished,
     *  so a long-lived server holds only live connections. */
    void reapFinished();
    /** Request-level envelope around dispatchRequest(): assigns the
     *  request id, times the request into the op-labeled latency
     *  instruments, emits B/E trace spans carrying the id, and logs
     *  slow requests. Compiles down to a plain dispatchRequest()
     *  call under EDB_OBS=OFF. */
    bool dispatch(Conn &conn, const Frame &frame);
    /** Returns false when the connection should close. */
    bool dispatchRequest(Conn &conn, const Frame &frame);
    /** Serve one Prometheus exposition on an accepted metrics-socket
     *  connection, then close it. */
    void serveMetricsScrape(int fd);
    bool sendOk(Conn &conn, std::uint8_t req_op,
                const PayloadWriter &payload);
    bool sendErr(Conn &conn, std::uint8_t req_op, ErrCode code,
                 std::uint64_t offset, const std::string &message);
    /** Buffer one EVT frame; written at the next flushEvents(), the
     *  next OK/ERR, or once evtFlushBytes accumulate. */
    bool sendEvent(Conn &conn, const EventOut &event);
    bool flushEvents(Conn &conn);
    /** Write out (and clear) conn.evts; write_mu held. */
    bool writeEventsLocked(Conn &conn);
    /** Send one reply frame behind any buffered EVTs. */
    bool sendFrame(Conn &conn, Op op,
                   const std::vector<std::uint8_t> &body);

    ServerOptions options_;
    std::unique_ptr<Registry> registry_;
    int listen_fd_ = -1;
    int metrics_fd_ = -1; ///< Prometheus scrape socket (optional)
    int stop_pipe_[2] = {-1, -1};
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> next_request_id_{1};
    std::thread accept_thread_;
    std::mutex conns_mu_;
    std::vector<std::shared_ptr<Conn>> conns_;
};

} // namespace edb::served

#endif // EDB_SERVED_SERVER_H
