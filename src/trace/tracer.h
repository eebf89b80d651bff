/**
 * @file
 * The phase-1 trace generator.
 *
 * The paper post-processed SPARC assembly so that each run emitted
 * install/remove/write events. Our workloads are instrumented at the
 * source level instead: they route stores to traced state and object
 * lifetimes through this Tracer, which performs the same bookkeeping
 * the paper's postprocessor arranged:
 *
 *  - "Write monitors for automatic variables are installed and removed
 *    on function boundaries" — enterFunction()/exitFunction() manage a
 *    simulated stack, and exitFunction() removes the frame's locals.
 *  - Heap objects record their dynamic allocation context for the
 *    AllHeapInFunc session type.
 *  - Every instrumented store emits a WriteEvent.
 *
 * A Tracer can run disabled, in which case it still lays out objects
 * (so workload logic is identical) but records no events; that mode is
 * used to time the base (untraced) program.
 *
 * Events are recorded a block at a time (DESIGN.md §17). With a
 * TraceWriter attached, each full block goes to the writer, which
 * encodes it and drops it, so recording holds the encoded file rather
 * than the events. Without one, events fill fixed-size chunks, each
 * its own mapping, and finish() copies them into one exact-size
 * vector, returning each chunk to the OS as soon as it is copied.
 */

#ifndef EDB_TRACE_TRACER_H
#define EDB_TRACE_TRACER_H

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "trace/trace.h"
#include "trace/vaspace.h"

namespace edb::trace {

class TraceWriter;

/**
 * Builds a Trace from instrumentation callbacks.
 */
class Tracer
{
  public:
    /** Where a traced object currently lives. */
    struct Placement
    {
        ObjectId object = invalidObject;
        Addr addr = 0;
        Addr size = 0;

        AddrRange range() const { return AddrRange(addr, addr + size); }
    };

    /**
     * @param program  Workload name recorded in the trace.
     * @param enabled  When false, no events are recorded (base-time
     *                 measurement mode); layout still happens.
     */
    explicit Tracer(std::string program, bool enabled = true);

    /**
     * Record into `writer`, which must outlive the Tracer: full blocks
     * are handed over as they fill. finish() hands over the rest and
     * returns the trace without events; the caller completes the file
     * with writer.finish().
     */
    Tracer(std::string program, TraceWriter &writer);

    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** @name Function boundaries */
    /// @{
    FunctionId enterFunction(std::string_view name);
    void exitFunction();
    FunctionId currentFunction() const;
    /// @}

    /** @name Object lifecycle */
    /// @{
    /** Declare an automatic local in the current frame. */
    Placement declareLocal(std::string_view name, Addr size);
    /** Declare a function-scope static; installed on first execution. */
    Placement declareLocalStatic(std::string_view name, Addr size);
    /** Declare a global/static; call once near program start. */
    Placement declareGlobal(std::string_view name, Addr size);
    /** Allocate and begin monitoring a heap object. */
    Placement heapAlloc(std::string_view site, Addr size);
    /** Resize a heap object; same ObjectId (paper footnote 4). */
    Placement heapRealloc(const Placement &p, Addr new_size);
    /** Free a heap object, ending its monitored lifetime. */
    void heapFree(const Placement &p);
    /// @}

    /** @name Writes */
    /// @{
    /** Intern a static write-site label, returning its site index. */
    std::uint32_t internWriteSite(std::string_view label);
    /** Record a store of `size` bytes at `addr` from write site. */
    void
    write(Addr addr, Addr size, std::uint32_t site)
    {
        ++total_writes_;
        if (enabled_)
            record(Event::write(AddrRange(addr, addr + size), site));
    }
    /// @}

    /**
     * Close all remaining object lifetimes (globals, statics, leaked
     * heap objects, any open frames) and return the finished trace,
     * whose events vector has capacity equal to its size (empty with
     * a writer attached). The Tracer must not be used afterwards.
     */
    Trace finish();

    /** Number of writes recorded so far. */
    std::uint64_t totalWrites() const { return total_writes_; }

    /** The simulated address space (exposed for tests). */
    const VirtualAddressSpace &vaspace() const { return vaspace_; }

    bool enabled() const { return enabled_; }

    /**
     * Fraction of executed instructions assumed to be writes when
     * estimating the untraced instruction count (paper Section 8
     * estimates 12–15% code expansion from 2 extra instructions per
     * write, i.e. a 6–7.5% write fraction).
     */
    static constexpr double writeInstructionFraction = 0.065;

  private:
    struct Frame
    {
        FunctionId func;
        std::vector<Placement> locals;
    };

    /** The chunks of a Tracer without a writer: one huge page each. */
    static constexpr std::size_t chunkBytes = std::size_t{2} << 20;
    static constexpr std::size_t chunkEvents = chunkBytes / sizeof(Event);

    void emitInstall(const Placement &p);
    void emitRemove(const Placement &p);

    void
    record(const Event &e)
    {
        if (next_ == end_)
            spill();
        *next_++ = e;
    }

    /** The current buffer is full (or none exists yet): hand the
     *  block to the writer, or start a new chunk. */
    void spill();
    /** Hand the partial block to the writer, or move the chunks into
     *  trace_.events. */
    void drain();

    std::string program_;
    bool enabled_;
    Trace trace_;
    TraceWriter *writer_ = nullptr;
    /** With a writer: the block being filled. */
    std::unique_ptr<Event[]> block_;
    /** Without one: the chunks filled so far, the last one current. */
    std::vector<Event *> chunks_;
    /** Free slots of the current buffer. */
    Event *next_ = nullptr;
    Event *end_ = nullptr;
    VirtualAddressSpace vaspace_;
    std::vector<Frame> frames_;
    /** Objects installed for the whole run: globals + local statics. */
    std::vector<Placement> static_objects_;
    /** Interned local statics already installed (object id -> index). */
    std::unordered_map<ObjectId, std::size_t> static_index_;
    /** Live heap placements by object id. */
    std::unordered_map<ObjectId, Placement> live_heap_;
    std::unordered_map<std::string, std::uint32_t> site_ids_;
    std::uint64_t total_writes_ = 0;
    bool finished_ = false;
};

} // namespace edb::trace

#endif // EDB_TRACE_TRACER_H
