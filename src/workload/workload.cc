/**
 * @file
 * Workload registry and run helpers.
 */

#include "workload/workload.h"

#include <time.h>

#include <algorithm>

#include "util/logging.h"

namespace edb::workload {

std::unique_ptr<Workload> makeMccWorkload();
std::unique_ptr<Workload> makeCtexWorkload();
std::unique_ptr<Workload> makeSpiceWorkload();
std::unique_ptr<Workload> makeQcdWorkload();
std::unique_ptr<Workload> makeBpsWorkload();

const std::vector<std::string_view> &
workloadNames()
{
    static const std::vector<std::string_view> names = {
        "gcc", "ctex", "spice", "qcd", "bps",
    };
    return names;
}

std::unique_ptr<Workload>
makeWorkload(std::string_view name)
{
    if (name == "gcc" || name == "mcc")
        return makeMccWorkload();
    if (name == "ctex")
        return makeCtexWorkload();
    if (name == "spice")
        return makeSpiceWorkload();
    if (name == "qcd")
        return makeQcdWorkload();
    if (name == "bps")
        return makeBpsWorkload();
    EDB_FATAL("unknown workload '%s' (expected gcc|ctex|spice|qcd|bps)",
              std::string(name).c_str());
}

std::vector<std::unique_ptr<Workload>>
makeAllWorkloads()
{
    std::vector<std::unique_ptr<Workload>> all;
    for (std::string_view name : workloadNames())
        all.push_back(makeWorkload(name));
    return all;
}

namespace {

trace::Trace
runWith(const Workload &w, trace::Tracer &tracer, std::uint64_t *checksum)
{
    std::uint64_t sum = w.run(tracer);
    if (checksum)
        *checksum = sum;
    trace::Trace trace = tracer.finish();
    // Refine the generic instruction estimate with this program's
    // write density.
    trace.estimatedInstructions = (std::uint64_t)((double)
        trace.totalWrites / w.writeFraction());
    return trace;
}

} // namespace

trace::Trace
runTraced(const Workload &w, std::uint64_t *checksum)
{
    trace::Tracer tracer(w.name(), /*enabled=*/true);
    return runWith(w, tracer, checksum);
}

trace::Trace
runTraced(const Workload &w, trace::TraceWriter &writer,
          std::uint64_t *checksum)
{
    trace::Tracer tracer(w.name(), writer);
    return runWith(w, tracer, checksum);
}

namespace {

double
nowUs()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec * 1e6 + (double)ts.tv_nsec * 1e-3;
}

} // namespace

double
measureBaseUs(const Workload &w, int runs)
{
    double best = 0;
    for (int i = 0; i < runs; ++i) {
        trace::Tracer tracer(w.name(), /*enabled=*/false);
        double t0 = nowUs();
        volatile std::uint64_t sink = w.run(tracer);
        double t1 = nowUs();
        (void)sink;
        (void)tracer.finish();
        double dt = t1 - t0;
        best = i == 0 ? dt : std::min(best, dt);
    }
    return best;
}

} // namespace edb::workload
