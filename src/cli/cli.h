/**
 * @file
 * The edb-trace command-line tool, as a library (the binary in
 * tools/ is a thin main() so every command is unit-testable).
 *
 * Commands mirror the experiment's two phases (paper Figure 1):
 *
 *   edb-trace record <workload> <out.trc>    phase 1: generate a trace
 *   edb-trace info <trace.trc>               inspect a trace artifact
 *   edb-trace sessions <trace.trc> [N]       enumerate monitor sessions
 *   edb-trace analyze <trace.trc>            phase 2: Table-4 statistics
 *   edb-trace session <trace.trc> <substr>   dissect one session
 *   edb-trace advise <trace.trc> [N]         per-session strategy advice
 *   edb-trace query <trace.trc> [opts]       aggregate matching events
 *   edb-trace connect <socket> [script]      drive an edb-served daemon
 *   edb-trace top <socket> [opts]            live per-tenant/per-op metrics
 *
 * `analyze`, `session` and `advise` honor EDB_PROFILE=host like the
 * bench binaries. The phase-2 commands (sessions/analyze/session/
 * advise/query) accept a global `--jobs N` (or `-j N`) flag selecting
 * the sharded parallel simulator (for `query`, the pushdown
 * executor's worker count); `--jobs 0` means "one worker per
 * hardware thread". Phase-1 commands (record/info/index) reject
 * --jobs.
 * `--help`/`-h` prints usage to stdout and exits 0.
 */

#ifndef EDB_CLI_CLI_H
#define EDB_CLI_CLI_H

#include <iosfwd>
#include <string>
#include <vector>

namespace edb::cli {

/**
 * Entry point: dispatch a command line.
 *
 * @param args Arguments excluding the program name.
 * @param out  Stream for normal output.
 * @param err  Stream for usage/error messages.
 * @return Process exit code.
 */
int run(const std::vector<std::string> &args, std::ostream &out,
        std::ostream &err);

/** @name Individual commands (exposed for tests) */
/// @{
int cmdRecord(const std::string &workload, const std::string &path,
              std::ostream &out);
int cmdInfo(const std::string &path, std::ostream &out);
int cmdSessions(const std::string &path, std::size_t top,
                std::ostream &out, unsigned jobs = 1);
int cmdAnalyze(const std::string &path, std::ostream &out,
               unsigned jobs = 1);
int cmdSession(const std::string &path, const std::string &needle,
               std::ostream &out, std::ostream &err,
               unsigned jobs = 1);
int cmdAdvise(const std::string &path, std::size_t top,
              std::ostream &out, unsigned jobs = 1);
int cmdQuery(const std::string &path,
             const std::vector<std::string> &opts, std::ostream &out,
             std::ostream &err, unsigned jobs = 1);
int cmdConnect(const std::vector<std::string> &args, std::ostream &out,
               std::ostream &err);
int cmdTop(const std::vector<std::string> &args, std::ostream &out,
           std::ostream &err);
/// @}

/** The usage text. */
const char *usage();

} // namespace edb::cli

#endif // EDB_CLI_CLI_H
