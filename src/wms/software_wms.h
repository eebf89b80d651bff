/**
 * @file
 * The CodePatch write monitor service (paper Section 3.3, Figure 6).
 *
 * "CodePatch, at compile time, patches the assembly code so that the
 * target of every write instruction is checked. The check is done in a
 * subroutine with the target address passed via an available register."
 *
 * In this library the "patched-in" check is the checkWrite() call that
 * the instrumentation layer (workload::Tracked and the EDB_WRITE
 * macros) inserts at every store to monitored-eligible state. The
 * per-write cost is one MonitorIndex lookup — the paper's
 * SoftwareLookup_tau — which Section 8 shows accounts for 98–99% of
 * CodePatch overhead.
 *
 * Also implemented here is the loop-invariant optimization the paper
 * proposes in Section 9: RangeGuard performs one preliminary check for
 * a write target range that is invariant across a loop, letting the
 * loop body skip per-write checks while the guard remains valid.
 */

#ifndef EDB_WMS_SOFTWARE_WMS_H
#define EDB_WMS_SOFTWARE_WMS_H

#include <cstdint>

#include "wms/monitor_index.h"
#include "wms/write_monitor_service.h"

namespace edb::wms {

/** Hit/miss/update counters kept by SoftwareWms. */
struct SoftwareWmsStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t installs = 0;
    std::uint64_t removes = 0;
};

/**
 * Software (CodePatch) WMS: every instrumented write calls
 * checkWrite(); hits produce a notification.
 *
 * Supports any number of simultaneous monitors. Because every write
 * is checked in the debuggee itself, the mapping lives safely in the
 * debuggee's address space with no extra protection mechanism (paper
 * Section 3.4).
 */
class SoftwareWms : public WriteMonitorService
{
  public:
    explicit SoftwareWms(Addr page_bytes = 4096);

    void installMonitor(const AddrRange &r) override;
    void removeMonitor(const AddrRange &r) override;
    void setNotificationHandler(NotificationHandler handler) override;

    /**
     * The per-write check: call with the byte range a store is about
     * to modify (or just modified) and the store's program counter.
     *
     * @return True when the write hit at least one monitor.
     */
    bool
    checkWrite(const AddrRange &written, Addr pc = 0)
    {
        if (!index_.lookup(written)) {
            ++stats_.misses;
            return false;
        }
        ++stats_.hits;
        if (handler_)
            handler_(Notification{written, pc});
        return true;
    }

    /** Convenience overload for a store of size bytes at addr. */
    bool
    checkWrite(Addr addr, Addr size, Addr pc = 0)
    {
        return checkWrite(AddrRange(addr, addr + size), pc);
    }

    /**
     * The per-write check over writes in column form: write i covers
     * [begin[i], begin[i] + size[i]) and was made at pc[i]. Screens
     * 64 writes per MonitorIndex::lookupRangesBatch() probe, then
     * notifies the hits in stream order from the screen's answer,
     * without a second lookup. Equivalent to n checkWrite() calls,
     * stats() included, provided the handler leaves the monitor set
     * alone.
     *
     * @return The number of writes that hit.
     */
    std::uint64_t checkWrites(const Addr *begin,
                              const std::uint32_t *size,
                              const std::uint32_t *pc, std::size_t n);

    /**
     * Count n writes as misses without looking them up, for a caller
     * that has proven none of them can hit (a block summary that
     * misses every monitored page). Keeps stats() equal to checking
     * them one by one.
     */
    void countMisses(std::uint64_t n) { stats_.misses += n; }

    /** Direct access to the underlying address->monitor index. */
    const MonitorIndex &index() const { return index_; }

    /** Lifetime hit/miss/install/remove counters. */
    const SoftwareWmsStats &stats() const { return stats_; }

    /** Reset the statistics counters (not the monitors). */
    void resetStats() { stats_ = SoftwareWmsStats{}; }

  private:
    friend class RangeGuard;

    MonitorIndex index_;
    NotificationHandler handler_;
    SoftwareWmsStats stats_;
};

/**
 * Loop-invariant preliminary check (paper Section 9).
 *
 * Construct with the loop's invariant target range before entering the
 * loop. While clear() returns true, no active monitor intersects the
 * range and the loop may perform raw (unchecked) writes within it.
 * Installing or removing any monitor invalidates the guard, after
 * which clear() re-evaluates — the analogue of the paper's "the loop
 * body can be dynamically patched" re-arming.
 */
class RangeGuard
{
  public:
    RangeGuard(SoftwareWms &wms, const AddrRange &range)
        : wms_(wms), range_(range)
    {
        revalidate();
    }

    /**
     * True when writes inside the guarded range are guaranteed to be
     * monitor misses and may skip per-write checks.
     */
    bool
    clear()
    {
        if (generation_ != wms_.index_.generation())
            revalidate();
        return clear_;
    }

    /** The guarded range. */
    const AddrRange &range() const { return range_; }

  private:
    void
    revalidate()
    {
        generation_ = wms_.index_.generation();
        clear_ = !wms_.index_.lookup(range_);
    }

    SoftwareWms &wms_;
    AddrRange range_;
    std::uint64_t generation_ = 0;
    bool clear_ = false;
};

} // namespace edb::wms

#endif // EDB_WMS_SOFTWARE_WMS_H
