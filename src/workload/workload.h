/**
 * @file
 * The benchmark workload interface and registry.
 *
 * The paper's evaluation runs five C programs (Section 6): GCC v1.4
 * compiling rtl.c, CommonTeX formatting a four-page document, Spice
 * computing a transient analysis of a differential pair, the Perfect
 * Club QCD simulation, and BPS solving the 8-puzzle with Bayesian
 * tree search. Those exact programs and inputs are not available, so
 * each workload here is a from-scratch program with the same
 * computational character and write/object profile (DESIGN.md §2
 * documents the substitutions):
 *
 *   gcc   -> mcc    a C-subset compiler + stack VM
 *   ctex  -> ctex   a text formatter with Knuth-Plass line breaking
 *   spice -> spice  an MNA circuit simulator, nonlinear transient
 *   qcd   -> qcd    an SU(2) lattice gauge Metropolis simulation
 *   bps   -> bps    a Bayesian best-first 8-puzzle solver
 *
 * Workloads are deterministic: fixed inputs, seeded RNGs, and the
 * tracer's simulated address space, so every run of a binary produces
 * a bit-identical trace (asserted by tests). Each run returns a
 * checksum of its computed result, verifying the programs do real
 * work and do it correctly.
 */

#ifndef EDB_WORKLOAD_WORKLOAD_H
#define EDB_WORKLOAD_WORKLOAD_H

#include <memory>
#include <string_view>
#include <vector>

#include "trace/tracer.h"

namespace edb::workload {

/** One benchmark program. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Short name used in tables ("gcc", "ctex", ...). */
    virtual const char *name() const = 0;

    /** One-line description for reports. */
    virtual const char *description() const = 0;

    /**
     * Run the program against a tracer (which may be disabled for
     * base-time measurement).
     *
     * @return A checksum over the program's computed results;
     *         identical for every run with the same build.
     */
    virtual std::uint64_t run(trace::Tracer &tracer) const = 0;

    /**
     * Fraction of this program's executed instructions that are
     * writes, used to estimate the untraced instruction count (and
     * from it a 1992-class base execution time). Defaults match the
     * values implied by the paper's own data: Table 1 base times and
     * Table 3 write totals give writes-per-second rates that, at the
     * SPARCstation 2's ~13 MIPS, correspond to per-program write
     * densities between ~4%% and ~10%% — consistent with the 6-7.5%%
     * density behind the Section 8 code-expansion estimate.
     */
    virtual double writeFraction() const { return 0.065; }
};

/** Instantiate one workload by name; fatals on unknown names. */
std::unique_ptr<Workload> makeWorkload(std::string_view name);

/** All five workloads in paper order (gcc, ctex, spice, qcd, bps). */
std::vector<std::unique_ptr<Workload>> makeAllWorkloads();

/** The five workload names in paper order. */
const std::vector<std::string_view> &workloadNames();

/**
 * Run a workload with tracing enabled and return its trace.
 *
 * @param w         The workload.
 * @param checksum  Optional out-parameter for the result checksum.
 */
trace::Trace runTraced(const Workload &w,
                       std::uint64_t *checksum = nullptr);

/**
 * Run a workload with tracing enabled, streaming its events into
 * `writer` a block at a time. Returns the trace without events: pass
 * it to writer.finish() to write the file runTraced + saveTrace
 * would.
 */
trace::Trace runTraced(const Workload &w, trace::TraceWriter &writer,
                       std::uint64_t *checksum = nullptr);

/**
 * Wall-clock time of one untraced run, in microseconds — the "base
 * program execution time" denominator of Table 1/Section 8, measured
 * on the host.
 *
 * @param runs Repetitions; the minimum is returned.
 */
double measureBaseUs(const Workload &w, int runs = 3);

} // namespace edb::workload

#endif // EDB_WORKLOAD_WORKLOAD_H
