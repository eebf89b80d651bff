/**
 * @file
 * The edb-served daemon: a multi-tenant write-monitor service over a
 * Unix-domain socket (src/served/ holds all the logic; this is the
 * process wrapper — argument parsing, signal-driven shutdown, and
 * the final observability snapshot).
 *
 * SIGINT/SIGTERM trigger a graceful drain: the handler writes one
 * byte to a self-pipe (the only async-signal-safe thing it does),
 * main wakes, stops the server — every connected client's in-flight
 * request still gets its reply — flushes the obs snapshot when
 * requested, and exits 0.
 */

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include <unistd.h>

#include "obs/obs.h"
#include "served/server.h"

namespace {

int g_signal_pipe[2] = {-1, -1};

void
onSignal(int)
{
    char byte = 0;
    (void)!::write(g_signal_pipe[1], &byte, 1);
}

int
usage(std::ostream &os, int rc)
{
    os << "usage: edb-served --socket PATH [options]\n"
          "\n"
          "options:\n"
          "  --socket PATH       Unix-domain socket to listen on "
          "(required)\n"
          "  --workers N         worker threads for RUN/QUERY "
          "(default 2)\n"
          "  --max-tenants N     concurrent tenants admitted "
          "(default 64)\n"
          "  --engine E          live-monitor engine: "
          "software|adaptive (default software)\n"
          "  --obs-json PATH     write an edb::obs snapshot (JSON) "
          "after shutdown\n"
          "  --metrics-socket PATH\n"
          "                      serve raw Prometheus text "
          "(one exposition per connection) here\n"
          "  --slow-ms MS        warn on requests slower than MS "
          "(default 1000; 0 disables)\n"
          "  --trace-events PATH capture Chrome trace-event spans "
          "(request ids included) to PATH\n"
          "  --help, -h          print this message and exit\n"
          "\n"
          "The daemon runs until SIGINT/SIGTERM, then drains "
          "connected clients,\n"
          "flushes the snapshot, and exits 0. METRICS requests and "
          "scrapes read the\n"
          "live registry; nothing samples in the background "
          "(`edb-trace top` derives\n"
          "rates from its own scrapes).\n";
    return rc;
}

bool
parseUnsigned(const char *s, unsigned long *out)
{
    if (s == nullptr || *s == '\0' || *s == '-')
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long v = std::strtoul(s, &end, 10);
    if (end == nullptr || *end != '\0' || errno == ERANGE)
        return false;
    *out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    edb::served::ServerOptions options;
    std::string obs_json;
    std::string trace_events;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            return usage(std::cout, 0);
        if (i + 1 == argc) {
            std::cerr << "error: " << arg << " needs a value\n";
            return usage(std::cerr, 2);
        }
        const std::string value = argv[++i];
        unsigned long n = 0;
        if (arg == "--socket") {
            options.socketPath = value;
        } else if (arg == "--workers") {
            if (!parseUnsigned(value.c_str(), &n) || n == 0 ||
                n > 64) {
                std::cerr << "error: invalid worker count '" << value
                          << "'\n";
                return 2;
            }
            options.workers = (unsigned)n;
        } else if (arg == "--max-tenants") {
            if (!parseUnsigned(value.c_str(), &n) || n == 0) {
                std::cerr << "error: invalid tenant count '" << value
                          << "'\n";
                return 2;
            }
            options.quotas.maxTenants = (std::size_t)n;
        } else if (arg == "--engine") {
            if (value == "software") {
                options.engine = edb::served::Engine::Software;
            } else if (value == "adaptive") {
                options.engine = edb::served::Engine::Adaptive;
            } else {
                std::cerr << "error: unknown engine '" << value
                          << "' (software|adaptive)\n";
                return 2;
            }
        } else if (arg == "--obs-json") {
            obs_json = value;
        } else if (arg == "--metrics-socket") {
            options.metricsSocketPath = value;
        } else if (arg == "--slow-ms") {
            if (!parseUnsigned(value.c_str(), &n)) {
                std::cerr << "error: invalid slow threshold '"
                          << value << "'\n";
                return 2;
            }
            options.slowRequestMs = (std::uint64_t)n;
        } else if (arg == "--trace-events") {
            trace_events = value;
        } else {
            std::cerr << "error: unknown option '" << arg << "'\n";
            return usage(std::cerr, 2);
        }
    }
    if (options.socketPath.empty()) {
        std::cerr << "error: --socket is required\n";
        return usage(std::cerr, 2);
    }

    if (::pipe(g_signal_pipe) < 0) {
        std::cerr << "error: pipe(): " << std::strerror(errno)
                  << "\n";
        return 1;
    }
    struct sigaction sa{};
    sa.sa_handler = onSignal;
    ::sigemptyset(&sa.sa_mask);
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);

#if EDB_OBS_ENABLED
    if (!trace_events.empty())
        edb::obs::enableTrace(trace_events);
#else
    if (!trace_events.empty()) {
        std::cerr << "warning: this build has EDB_OBS=OFF; "
                     "--trace-events is ignored\n";
    }
#endif

    try {
        edb::served::Server server(options);
        server.start();
        std::cout << "edb-served listening on " << options.socketPath
                  << " (workers " << options.workers
                  << ", max tenants " << options.quotas.maxTenants
                  << ")" << std::endl;

        // Block until a termination signal lands on the self-pipe.
        char byte = 0;
        while (::read(g_signal_pipe[0], &byte, 1) < 0 &&
               errno == EINTR) {
        }

        std::cout << "edb-served draining "
                  << server.connectionsAccepted()
                  << " connection(s) accepted over this run"
                  << std::endl;
        server.stop();
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }

#if EDB_OBS_ENABLED
    if (!obs_json.empty() &&
        !edb::obs::writeSnapshotJsonFile(obs_json)) {
        std::cerr << "error: cannot write obs snapshot to "
                  << obs_json << "\n";
        return 1;
    }
    if (!trace_events.empty() && !edb::obs::flushTrace()) {
        std::cerr << "error: cannot write trace events to "
                  << trace_events << "\n";
        return 1;
    }
#else
    if (!obs_json.empty()) {
        std::cerr << "warning: this build has EDB_OBS=OFF; "
                     "--obs-json is ignored\n";
    }
#endif
    std::cout << "edb-served exited cleanly" << std::endl;
    return 0;
}
