/**
 * @file
 * A single-pass MonitorIndex exercise over a trace. Mirrors the
 * paper's all-objects-monitored upper bound: every
 * InstallMonitor/RemoveMonitor event is applied and every write is
 * looked up.
 *
 * It has no production caller: `edb-trace analyze` no longer replays
 * the trace a second time through it. It is kept only for the
 * benchmark's per-layer probe `sim.index_profile_ms`, and goes when
 * that metric is retired.
 */

#ifndef EDB_SIM_INDEX_PROFILE_H
#define EDB_SIM_INDEX_PROFILE_H

#include <cstdint>

namespace edb::trace {
struct Trace;
}

namespace edb::sim {

/**
 * Replay `trace` through a fresh wms::MonitorIndex — install/remove
 * per monitor event, lookup() per write. Returns the number of write
 * lookups that hit a monitored word.
 */
std::uint64_t indexProfile(const trace::Trace &trace);

} // namespace edb::sim

#endif // EDB_SIM_INDEX_PROFILE_H
