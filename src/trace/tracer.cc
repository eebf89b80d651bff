/**
 * @file
 * Implementation of the phase-1 tracer.
 */

#include "trace/tracer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <new>

#include <sys/mman.h>

#include "trace/trace_io.h"

namespace edb::trace {

namespace {

/** The transparent huge page size of x86-64, and of arm64 with 4 KiB
 *  base pages. */
constexpr std::uintptr_t hugePageBytes = std::uintptr_t{2} << 20;

/**
 * Ask for transparent huge pages over the whole huge pages inside
 * [p, p + bytes). Both callers write their buffer in full at once, so
 * a huge page costs no extra memory and one fault instead of 512; the
 * kernel zeroes the memory either way. A no-op where THP is off.
 */
void
adviseHugePages(void *p, std::size_t bytes)
{
#ifdef MADV_HUGEPAGE
    const auto begin =
        ((std::uintptr_t)p + hugePageBytes - 1) & ~(hugePageBytes - 1);
    const auto end = ((std::uintptr_t)p + bytes) & ~(hugePageBytes - 1);
    if (end > begin)
        madvise((void *)begin, end - begin, MADV_HUGEPAGE);
#else
    (void)p;
    (void)bytes;
#endif
}

} // namespace

Tracer::Tracer(std::string program, bool enabled)
    : program_(std::move(program)), enabled_(enabled)
{
    trace_.program = program_;
    frames_.reserve(64);
}

Tracer::Tracer(std::string program, TraceWriter &writer)
    : Tracer(std::move(program), true)
{
    writer_ = &writer;
    block_.reset(new Event[writer.blockEvents()]);
    next_ = block_.get();
    end_ = next_ + writer.blockEvents();
}

Tracer::~Tracer()
{
    // Only an unfinished Tracer still holds chunks.
    for (Event *chunk : chunks_) {
        if (chunk != nullptr)
            munmap(chunk, chunkBytes);
    }
}

void
Tracer::spill()
{
    if (writer_ != nullptr) {
        writer_->append(block_.get(), (std::size_t)(next_ - block_.get()));
        next_ = block_.get();
        return;
    }
    // Chunks are mapped directly rather than malloc'd: once one freed
    // chunk raised glibc's mmap threshold, malloc would carve the
    // rest from its heap, which keeps memory freed below its top.
    // Recent kernels place a mapping of whole huge pages on a huge
    // page boundary; elsewhere the advice finds no huge page to use.
    chunks_.push_back(nullptr);
    void *p = mmap(nullptr, chunkBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
        chunks_.pop_back();
        throw std::bad_alloc();
    }
    adviseHugePages(p, chunkBytes);
    chunks_.back() = (Event *)p;
    next_ = (Event *)p;
    end_ = next_ + chunkEvents;
}

void
Tracer::drain()
{
    if (writer_ != nullptr) {
        writer_->append(block_.get(), (std::size_t)(next_ - block_.get()));
        block_.reset();
    } else if (!chunks_.empty()) {
        const std::size_t last = (std::size_t)(next_ - chunks_.back());
        trace_.events.reserve((chunks_.size() - 1) * chunkEvents + last);
        adviseHugePages(trace_.events.data(),
                        trace_.events.capacity() * sizeof(Event));
        for (std::size_t k = 0; k < chunks_.size(); ++k) {
            Event *chunk = chunks_[k];
            const std::size_t n = k + 1 < chunks_.size() ? chunkEvents : last;
            trace_.events.insert(trace_.events.end(), chunk, chunk + n);
            munmap(chunk, chunkBytes);
            chunks_[k] = nullptr;
        }
        chunks_.clear();
    }
    next_ = end_ = nullptr;
}

void
Tracer::emitInstall(const Placement &p)
{
    if (enabled_)
        record(Event::install(p.object, p.range()));
}

void
Tracer::emitRemove(const Placement &p)
{
    if (enabled_)
        record(Event::remove(p.object, p.range()));
}

FunctionId
Tracer::enterFunction(std::string_view name)
{
    FunctionId id = trace_.registry.internFunction(name);
    vaspace_.pushFrame();
    frames_.push_back(Frame{id, {}});
    return id;
}

void
Tracer::exitFunction()
{
    EDB_ASSERT(!frames_.empty(), "exitFunction with no open frame");
    Frame &frame = frames_.back();
    // Locals are removed in reverse declaration order, mirroring
    // destruction order.
    for (auto it = frame.locals.rbegin(); it != frame.locals.rend(); ++it)
        emitRemove(*it);
    frames_.pop_back();
    vaspace_.popFrame();
}

FunctionId
Tracer::currentFunction() const
{
    return frames_.empty() ? invalidFunction : frames_.back().func;
}

Tracer::Placement
Tracer::declareLocal(std::string_view name, Addr size)
{
    EDB_ASSERT(!frames_.empty(), "local '%s' declared outside a function",
               std::string(name).c_str());
    ObjectId id = trace_.registry.internVariable(
        ObjectKind::LocalAuto, frames_.back().func, name, size);
    Placement p{id, vaspace_.allocLocal(size), size};
    frames_.back().locals.push_back(p);
    emitInstall(p);
    return p;
}

Tracer::Placement
Tracer::declareLocalStatic(std::string_view name, Addr size)
{
    EDB_ASSERT(!frames_.empty(),
               "local static '%s' declared outside a function",
               std::string(name).c_str());
    ObjectId id = trace_.registry.internVariable(
        ObjectKind::LocalStatic, frames_.back().func, name, size);
    auto it = static_index_.find(id);
    if (it != static_index_.end())
        return static_objects_[it->second];
    // First execution: allocate in the static segment and install for
    // the remainder of the run.
    Placement p{id, vaspace_.allocGlobal(size), size};
    static_index_.emplace(id, static_objects_.size());
    static_objects_.push_back(p);
    emitInstall(p);
    return p;
}

Tracer::Placement
Tracer::declareGlobal(std::string_view name, Addr size)
{
    ObjectId id = trace_.registry.internVariable(
        ObjectKind::GlobalStatic, invalidFunction, name, size);
    auto it = static_index_.find(id);
    if (it != static_index_.end())
        return static_objects_[it->second];
    Placement p{id, vaspace_.allocGlobal(size), size};
    static_index_.emplace(id, static_objects_.size());
    static_objects_.push_back(p);
    emitInstall(p);
    return p;
}

Tracer::Placement
Tracer::heapAlloc(std::string_view site, Addr size)
{
    std::vector<FunctionId> context;
    context.reserve(frames_.size());
    for (const Frame &f : frames_)
        context.push_back(f.func);
    ObjectId id =
        trace_.registry.addHeapObject(site, std::move(context), size);
    Placement p{id, vaspace_.allocHeap(size), size};
    live_heap_.emplace(id, p);
    emitInstall(p);
    return p;
}

Tracer::Placement
Tracer::heapRealloc(const Placement &p, Addr new_size)
{
    auto it = live_heap_.find(p.object);
    EDB_ASSERT(it != live_heap_.end(), "realloc of dead heap object %u",
               p.object);
    emitRemove(it->second);
    Addr addr = vaspace_.reallocHeap(p.addr, p.size, new_size);
    Placement np{p.object, addr, new_size};
    it->second = np;
    emitInstall(np);
    return np;
}

void
Tracer::heapFree(const Placement &p)
{
    auto it = live_heap_.find(p.object);
    EDB_ASSERT(it != live_heap_.end(), "double free of heap object %u",
               p.object);
    emitRemove(it->second);
    vaspace_.freeHeap(it->second.addr, it->second.size);
    live_heap_.erase(it);
}

std::uint32_t
Tracer::internWriteSite(std::string_view label)
{
    auto it = site_ids_.find(std::string(label));
    if (it != site_ids_.end())
        return it->second;
    auto id = (std::uint32_t)trace_.writeSites.size();
    trace_.writeSites.emplace_back(label);
    site_ids_.emplace(trace_.writeSites.back(), id);
    return id;
}

Trace
Tracer::finish()
{
    EDB_ASSERT(!finished_, "Tracer::finish called twice");
    finished_ = true;

    // Close any frames left open (abnormal termination paths).
    while (!frames_.empty())
        exitFunction();

    // Leaked heap objects stay monitored until program end. Removal
    // order is sorted by object id so traces are bit-reproducible.
    std::vector<Placement> leaked;
    leaked.reserve(live_heap_.size());
    for (auto &[id, p] : live_heap_)
        leaked.push_back(p);
    std::sort(leaked.begin(), leaked.end(),
              [](const Placement &a, const Placement &b) {
                  return a.object < b.object;
              });
    for (const Placement &p : leaked)
        emitRemove(p);
    live_heap_.clear();

    // Globals and local statics live to program end.
    for (auto it = static_objects_.rbegin(); it != static_objects_.rend();
         ++it) {
        emitRemove(*it);
    }
    static_objects_.clear();

    drain();
    trace_.totalWrites = total_writes_;
    trace_.estimatedInstructions = (std::uint64_t)std::llround(
        (double)total_writes_ / writeInstructionFraction);
    return std::move(trace_);
}

} // namespace edb::trace
