/**
 * @file
 * The shared phase-2 replay engine (internal to src/sim).
 *
 * Both the sequential one-pass simulate() and the sharded
 * parallelSimulate() workers replay the same event-processing logic;
 * this header holds that logic in one ReplayEngine class so the two
 * front ends cannot drift apart (the differential tests then pin the
 * engine itself to the per-session oracle).
 *
 * The engine is built for the per-write fast path (DESIGN.md §9):
 *
 *  - page -> session tables are open-addressed FlatMaps (one indexed
 *    load per probe) instead of node-based unordered_maps;
 *  - each page entry carries its session set both as refcounted
 *    (session, count) pairs — the install/remove bookkeeping — and as
 *    64-bit bitset chunks, so the write path tests and enumerates
 *    whole 64-session words with AND-NOT/ctz instead of walking
 *    per-session epoch arrays;
 *  - per-object session membership comes precomputed from
 *    session::SessionMaskTable, so multi-object writes union bitset
 *    chunks rather than deduplicating id-by-id;
 *  - a probe of the finest-grained page table prefilters the
 *    interval-map walk: resolution only ever counts objects that
 *    carry a session, and those sit in the page tables, so a write
 *    that touches no monitored page of the finest size intersects
 *    nothing resolution would count, and pure misses never walk the
 *    ordered live map at all — on the full set and on any subset;
 *  - a small *replay cache* captures the dominant pattern of real
 *    traces, long runs of writes into the same object on the same
 *    page(s). A write's counter increments are a pure function of
 *    (the one object it intersects, the written page of each size,
 *    the tables' contents); the cache keys on exactly that and
 *    re-applies the recorded increment list directly, skipping
 *    resolution, hashing, masks and scrubbing entirely. Any
 *    install/remove invalidates the recorded signatures. Under a
 *    subset, a write inside an object with no session records a
 *    window-only *anchor* instead (page misses only), so writes into
 *    objects outside the subset keep the cache too.
 *
 * Scratch state (hit/miss masks) is cleared through touched-word
 * lists, so an engine instance is reusable across shards without
 * reallocation: reset() keeps every capacity.
 */

#ifndef EDB_SIM_REPLAY_CORE_H
#define EDB_SIM_REPLAY_CORE_H

#include <array>
#include <bit>
#include <map>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "session/session.h"
#include "sim/counters.h"
#include "trace/trace.h"
#include "trace/trace_io.h"
#include "util/arena_pool.h"
#include "util/flat_map.h"
#include "util/simd.h"
#include "util/small_vec.h"

#if EDB_SIMD_HAVE_AVX2
#include <immintrin.h>
#endif

namespace edb::sim::detail {

#if EDB_OBS_ENABLED
/**
 * Replay-engine instruments (DESIGN.md §10). The per-write path
 * stays atomic-free: each engine tallies into plain u64s
 * (ReplayEngine::ObsTally) and publishes them here once per replay()
 * call, so the global counters are exactly consistent with the
 * engines' own counting variables.
 */
namespace obs_instr {
inline obs::Counter replayWrites{"sim.replay.writes"};
inline obs::Counter replayCacheReplays{"sim.replay.cache_replays"};
inline obs::Counter replayObjCacheHits{"sim.replay.obj_cache_hits"};
inline obs::Counter replayRecordings{"sim.replay.recordings"};
inline obs::Counter replayMapWalks{"sim.replay.map_walks"};
inline obs::Counter replayScrubWords{"sim.replay.scrub_words"};
/** Replays settled per replay-cache flush (batch sizes). */
inline obs::Histogram replayPendingFlush{"sim.replay.pending_flush"};
} // namespace obs_instr
#endif

using session::SessionId;
using session::SessionMaskTable;
using session::SessionSet;
using trace::Event;
using trace::EventKind;
using trace::ObjectId;

/** Panic unless a replay's write count, skipped writes included,
 *  matches the trace header's. */
inline void
checkTotalWrites(const SimResult &result, std::uint64_t header)
{
    EDB_ASSERT(result.totalWrites == header,
               "trace totalWrites header (%llu) disagrees with events "
               "(%llu)",
               (unsigned long long)header,
               (unsigned long long)result.totalWrites);
}

/** A currently installed object instance. */
struct LiveObj
{
    Addr end;
    ObjectId obj;
};

/** One live monitor in a shard-boundary snapshot. */
struct LiveMonitor
{
    Addr begin;
    Addr end;
    ObjectId obj;
};

/**
 * Per-page session state: exact active-monitor counts (the
 * install/remove slow path owns these) plus the same set as bitset
 * chunks (the write path reads only these). Both live inline in the
 * page-table slot for the typical page with a handful of sessions.
 */
struct PageSessions
{
    /** One session's active-monitor count on the page. */
    struct SessionCount
    {
        SessionId id;
        std::uint32_t count;
    };

    /** One live object overlapping the page (finest table only). */
    struct ObjSpan
    {
        Addr begin;
        Addr end;
        ObjectId obj;
    };

    /** List size beyond which a page stops tracking objects. */
    static constexpr std::size_t objCap = 8;

    /**
     * The page's session set as (word, mask) bitset chunks — the
     * only member the per-write miss pass reads, kept first so it
     * shares the table slot's leading cache line with the key.
     */
    util::SmallVec<SessionMaskTable::Chunk, 1> words;
    /** Exact per-session counts; entries leave on count 0. */
    util::SmallVec<SessionCount, 2> counts;
    /**
     * The live objects overlapping this page — exact while
     * !overflow, so a write inside the page resolves its objects
     * here in a few compares instead of walking the ordered live
     * map. Pages denser than objCap set the overflow flag and drop
     * the list: maintaining hundred-entry lists per install/remove
     * costs more than their lookups save. While overflowed the page
     * only counts its objects; once removes bring that count back to
     * objCap, removeObj() asks the engine to rebuild the list.
     */
    util::SmallVec<ObjSpan, 1> objs;
    bool overflow = false;
    /** Objects overlapping the page while overflow is set. */
    std::uint32_t overflowObjs = 0;

    /** Track an object newly overlapping the page. */
    void
    addObj(Addr begin, Addr end, ObjectId obj)
    {
        if (overflow) {
            ++overflowObjs;
        } else if (objs.size() == objCap) {
            overflow = true;
            overflowObjs = objCap + 1;
            objs.clear();
        } else {
            objs.push_back({begin, end, obj});
        }
    }

    /**
     * Forget an object leaving the page.
     * @return True when an overflowed page is back to at most objCap
     * objects: the caller must refill objs from the live map and
     * clear overflow.
     */
    bool
    removeObj(Addr begin)
    {
        if (overflow) {
            EDB_ASSERT(overflowObjs > objCap,
                       "overflowed page lost count of its objects");
            return --overflowObjs <= objCap;
        }
        for (std::size_t i = 0; i < objs.size(); ++i) {
            if (objs[i].begin == begin) {
                objs.swapErase(i);
                return false;
            }
        }
        EDB_PANIC("page object list missing a live object");
    }

    /** Count one more active monitor for s. @return True on 0 -> 1. */
    bool
    addSession(SessionId s)
    {
        for (auto &kv : counts) {
            if (kv.id == s) {
                ++kv.count;
                return false;
            }
        }
        counts.push_back({s, 1});
        const std::uint32_t w = s / 64;
        const std::uint64_t bit = 1ull << (s % 64);
        for (auto &c : words) {
            if (c.word == w) {
                c.mask |= bit;
                return true;
            }
        }
        words.push_back(SessionMaskTable::Chunk{w, bit});
        return true;
    }

    /**
     * Drop one active monitor for s, which must be present.
     * @return True on 1 -> 0 (the session left the page).
     */
    bool
    removeSession(SessionId s)
    {
        for (std::size_t i = 0; i < counts.size(); ++i) {
            if (counts[i].id != s)
                continue;
            if (--counts[i].count != 0)
                return false;
            counts.swapErase(i);
            const std::uint32_t w = s / 64;
            const std::uint64_t bit = 1ull << (s % 64);
            for (std::size_t j = 0; j < words.size(); ++j) {
                if (words[j].word != w)
                    continue;
                if ((words[j].mask &= ~bit) == 0)
                    words.swapErase(j);
                return true;
            }
            EDB_PANIC("page bitset missing session %u", s);
        }
        EDB_PANIC("page table corrupt on remove");
    }
};

/**
 * Replays event streams into a SimResult. One instance per worker;
 * every container is pre-sized at construction and kept across
 * reset() calls, so steady-state replay performs no allocation and no
 * rehashing.
 */
class ReplayEngine
{
  public:
    /**
     * @param sessions The session set counters are attributed to.
     * @param masks    Per-object membership bitsets for `sessions`.
     */
    ReplayEngine(const SessionSet &sessions,
                 const SessionMaskTable &masks)
        : sessions_(sessions), masks_(masks)
    {
        // Only objects with a session enter the page tables, and live
        // objects bound monitored pages, so reserving for those keeps
        // the tables from rehashing mid-replay without sizing a
        // subset's tables to the whole registry.
        std::size_t relevant = 0;
        for (std::size_t o = 0; o < sessions.objectCount(); ++o)
            relevant += masks.chunkCount((ObjectId)o) != 0;
        anchors_ = relevant < sessions.objectCount();
        result_.counters.resize(sessions.size());
        hit_mask_.assign(masks.maskWords(), 0);
        for (std::size_t i = 0; i < vmPageSizeCount; ++i) {
            miss_mask_[i].assign(masks.maskWords(), 0);
            pages_[i].reserve(relevant);
            page_filter_[i].assign(filterSlots, 0);
        }
        isa_ = util::simdIsa();
    }

    /** Forget all replay state, keeping every container's capacity. */
    void
    reset()
    {
        live_.clear();
        for (std::size_t i = 0; i < vmPageSizeCount; ++i) {
            pages_[i].clear();
            std::fill(page_filter_[i].begin(), page_filter_[i].end(),
                      0u);
        }
        for (std::size_t k = 0; k < cache_.size(); ++k)
            drop(k);
        rr_ = 0;
        std::fill(result_.counters.begin(), result_.counters.end(),
                  SessionCounters{});
        result_.totalWrites = 0;
    }

    /**
     * Seed the live set and page tables from a shard-boundary
     * snapshot *without counting*: the installs that produced this
     * state belong to earlier shards (DESIGN.md §7).
     */
    void
    seed(const LiveMonitor *snap, std::size_t n)
    {
        for (std::size_t k = 0; k < n; ++k) {
            const LiveMonitor &m = snap[k];
            live_.emplace(m.begin, LiveObj{m.end, m.obj});
            addToPages<false>(AddrRange(m.begin, m.end), m.obj);
        }
    }

    /** Replay a contiguous run of events. */
    void
    replay(const Event *events, std::size_t n)
    {
        for (std::size_t idx = 0; idx < n; ++idx) {
            const Event &e = events[idx];
            switch (e.kind) {
              case EventKind::InstallMonitor: install(e); break;
              case EventKind::RemoveMonitor: remove(e); break;
              case EventKind::Write: write(e); break;
            }
        }
        settleAll();
    }

    /**
     * Replay one decoded block in batched form — bit-identical to
     * replay() over the scattered event array, counters and obs
     * tallies both (DESIGN.md §14).
     *
     * Controls interleave by position: control c sits at block index
     * ctlPos[c], so exactly ctlPos[c] - c writes precede it. The
     * write spans in between go through a vectorized *screen*: a lane
     * is provably pure — its whole effect is the write count — when
     * it stays inside one finest page and the direct-mapped page
     * filter shows no monitored page of any size at its address.
     * Screened lanes retire without touching the per-write machinery;
     * the rest take the scalar write() in stream order.
     */
    void
    replayBlock(const trace::WriteBatch &wb)
    {
        std::size_t w = 0;
        const std::size_t nc = wb.ctl.size();
        for (std::size_t c = 0; c < nc; ++c) {
            writeSpan(wb, w, (std::size_t)wb.ctlPos[c] - c);
            const Event &e = wb.ctl[c];
            if (e.kind == EventKind::InstallMonitor)
                install(e);
            else
                remove(e);
        }
        writeSpan(wb, w, (std::size_t)wb.writes);
        // Same per-call settle points as replay(), so the pending
        // flush histogram sees identical batch boundaries.
        settleAll();
    }

    const SimResult &result() const { return result_; }

  private:
    /**
     * One replay-cache entry: a live object plus the recorded counter
     * increments of one write into it. `incs` replays verbatim for
     * any write that (a) lies fully inside [begin, end) — live
     * objects never overlap, so such a write intersects exactly this
     * object — and (b) touches the same single page of every size
     * while no install/remove has intervened: hit counters depend
     * only on the object's sessions, miss counters only on the
     * written pages' session sets. A window-only *anchor* caches no
     * object (begin == end == 0) and replays only through its
     * window (see write()).
     */
    struct CacheEntry
    {
        Addr begin = 0;
        Addr end = 0; /**< begin == end encodes "no object cached". */
        const SessionMaskTable::Chunk *chunks = nullptr;
        std::size_t nchunks = 0;
        /** The recorded increments (pointers into result_.counters). */
        std::vector<std::uint64_t *> incs;
        /**
         * Replays not yet applied to the counters. Increments are
         * additive and order-independent, so a replayed write only
         * bumps this; settle() pays the debt before the entry's
         * increment list is dropped or rewritten, and at end of
         * replay.
         */
        std::uint64_t pending = 0;
    };

    /** Apply an entry's pending replays to the counters. */
    void
    settle(CacheEntry &c)
    {
        if (c.pending == 0)
            return;
        EDB_OBS_ONLY(tally_.pending_flush.observe(c.pending);)
        for (std::uint64_t *p : c.incs)
            *p += c.pending;
        c.pending = 0;
    }

    /** Settle entry k, then forget its object, recording and
     *  window. */
    void
    drop(std::size_t k)
    {
        CacheEntry &c = cache_[k];
        settle(c);
        c.begin = 0;
        c.end = 0;
        c.incs.clear();
        rlo_[k] = 0;
        rhi_[k] = 0;
    }

    /** Settle every debt so result() sees exact counters, then
     *  publish this call's obs tallies. */
    void
    settleAll()
    {
        for (CacheEntry &c : cache_)
            settle(c);
        EDB_OBS_ONLY(publishTally();)
    }

    // The replay window of entry k lives outside the entry, in the
    // compact rlo_/rhi_ arrays the per-write probe scans: a write
    // replays entry k's increments iff rlo_[k] <= begin and
    // end <= rhi_[k]. The window is the cached object's range clipped
    // to the recorded write's finest-size page; page sizes nest (each
    // divides the next, checked below), so staying inside that page
    // pins the written page of *every* size, and staying inside the
    // object pins the hit set. An empty window (rlo == rhi == 0)
    // encodes "no recording".
    static_assert([] {
        for (std::size_t i = 1; i < vmPageSizeCount; ++i) {
            if (vmPageSizes[i] % vmPageSizes[i - 1] != 0 ||
                vmPageSizes[i] <= vmPageSizes[i - 1])
                return false;
        }
        return true;
    }(), "replay windows need nested, ascending page sizes");

    void
    install(const Event &e)
    {
        const AddrRange r = e.range();
        auto [it, inserted] =
            live_.emplace(r.begin, LiveObj{r.end, e.aux});
        EDB_ASSERT(inserted, "overlapping install at %s",
                   r.str().c_str());
        if (it != live_.begin()) {
            auto prev = std::prev(it);
            EDB_ASSERT(prev->second.end <= r.begin,
                       "install %s overlaps a live object",
                       r.str().c_str());
        }
        if (auto next = std::next(it); next != live_.end()) {
            EDB_ASSERT(r.end <= next->first,
                       "install %s overlaps a live object",
                       r.str().c_str());
        }

        // Replay windows on pages this range touches may see their
        // session sets change; windows elsewhere stay valid, and so
        // do the cached object ranges (no overlap possible).
        invalidateWindowsTouching(r);

        addToPages<true>(r, e.aux);
    }

    /**
     * Enter a live object onto every page table, counting its
     * installs and protect transitions when `Count` (install()) but
     * not when seeding a shard boundary (seed()). A session-less
     * object (possible under SessionSet::subset) keeps only its live_
     * entry, so install() and remove() still check it against every
     * other control event. It affects no counter, so resolution never
     * counts it, and it stays off the page tables: remove() reclaims
     * a page entry once its session counts drain, which would strand
     * a stale page under a still-live session-less object.
     */
    template <bool Count>
    void
    addToPages(const AddrRange &r, ObjectId obj)
    {
        const auto &sess = sessions_.sessionsOf(obj);
        if (sess.empty())
            return;
        if constexpr (Count) {
            for (SessionId s : sess)
                ++result_.counters[s].installs;
        }
        for (std::size_t i = 0; i < vmPageSizeCount; ++i) {
            auto [first, last] = pageSpan(r, vmPageSizes[i]);
            for (Addr p = first; p <= last; ++p) {
                auto [slot, fresh] = pages_[i].try_emplace(p);
                if (fresh)
                    ++page_filter_[i][p & (filterSlots - 1)];
                PageSessions &ps = *slot;
                if (i == 0)
                    ps.addObj(r.begin, r.end, obj);
                for (SessionId s : sess) {
                    if (ps.addSession(s) && Count)
                        ++result_.counters[s].vm[i].protects;
                }
            }
        }
    }

    void
    remove(const Event &e)
    {
        const AddrRange r = e.range();
        auto it = live_.find(r.begin);
        EDB_ASSERT(it != live_.end() && it->second.end == r.end &&
                       it->second.obj == e.aux,
                   "remove %s does not match a live install",
                   r.str().c_str());
        live_.erase(it);

        for (std::size_t k = 0; k < cache_.size(); ++k) {
            if (r.begin == cache_[k].begin)
                drop(k); // the cached object died
        }
        invalidateWindowsTouching(r);

        const auto &sess = sessions_.sessionsOf(e.aux);
        // Mirrors install(): session-less objects never entered the
        // page tables.
        if (sess.empty())
            return;
        for (SessionId s : sess)
            ++result_.counters[s].removes;
        for (std::size_t i = 0; i < vmPageSizeCount; ++i) {
            auto [first, last] = pageSpan(r, vmPageSizes[i]);
            for (Addr p = first; p <= last; ++p) {
                PageSessions *ps = pages_[i].find(p);
                EDB_ASSERT(ps != nullptr,
                           "page table corrupt on remove");
                if (i == 0 && ps->removeObj(r.begin))
                    refillObjs(*ps, p);
                for (SessionId s : sess) {
                    if (ps->removeSession(s))
                        ++result_.counters[s].vm[i].unprotects;
                }
                if (ps->counts.empty()) {
                    // Only objects with a session enter the lists, so
                    // an empty session set means none of them still
                    // overlaps the page.
                    EDB_ASSERT(ps->overflow || ps->objs.empty(),
                               "page object list leaked an object");
                    pages_[i].erase(p);
                    --page_filter_[i][p & (filterSlots - 1)];
                }
            }
        }
    }

    /**
     * Rebuild the exact object list of finest page p from one walk of
     * the live map over the page, and clear its overflow. The list
     * holds the objects addToPages() entered: those with a session.
     */
    void
    refillObjs(PageSessions &ps, Addr p)
    {
        const Addr lo = p * vmPageSizes[0];
        const Addr last = lo + (vmPageSizes[0] - 1);
        ps.objs.clear();
        for (auto it = firstFrom(lo);
             it != live_.end() && it->first <= last; ++it) {
            if (it->second.end > lo &&
                !sessions_.sessionsOf(it->second.obj).empty())
                ps.objs.push_back({it->first, it->second.end,
                                   it->second.obj});
        }
        EDB_ASSERT(ps.objs.size() == ps.overflowObjs,
                   "overflowed page count disagrees with the live map");
        ps.overflow = false;
        ps.overflowObjs = 0;
    }

    /** log2 of the coarsest page size, for window invalidation. */
    static constexpr unsigned coarseShift =
        (unsigned)std::countr_zero(vmPageSizes[vmPageSizeCount - 1]);

    /**
     * Kill the replay windows whose pages the range touches. A
     * window spans one page of every size; page sizes nest, so a
     * range touching any of those pages also touches the coarsest
     * one — a single containment test covers them all. Windows on
     * untouched pages keep replaying: their page session sets are
     * unchanged.
     */
    void
    invalidateWindowsTouching(const AddrRange &r)
    {
        const Addr c_first = r.begin >> coarseShift;
        const Addr c_last = (r.end - 1) >> coarseShift;
        for (std::size_t k = 0; k < cache_.size(); ++k) {
            const Addr pc = rlo_[k] >> coarseShift;
            if (pc >= c_first && pc <= c_last) {
                rlo_[k] = 0;
                rhi_[k] = 0;
            }
        }
    }

    /** Installed objects by begin address, on a pooled allocator. */
    using LiveAlloc =
        util::PoolAllocator<std::pair<const Addr, LiveObj>>;
    using LiveMap = std::map<Addr, LiveObj, std::less<Addr>, LiveAlloc>;

    /**
     * Resolve the objects a write touches by walking the ordered
     * live map: the predecessor (if it extends into the write) plus
     * every live object starting inside the write. Counts hits and
     * reports the first object found for the replay cache. Objects
     * with no session are skipped, exactly as the page-object lists
     * leave them out: the prefilters rely on resolution counting
     * only objects that sit in the page tables.
     * @return firstFrom(w.begin), where the walk started.
     */
    LiveMap::iterator
    resolveViaMap(const AddrRange &w, std::size_t &nobjs,
                  Addr &obj_begin, Addr &obj_end,
                  const SessionMaskTable::Chunk *&obj_chunks,
                  std::size_t &obj_nchunks)
    {
        EDB_OBS_ONLY(++tally_.map_walks;)
        const auto first = firstFrom(w.begin);
        for (auto it = first; it != live_.end() && it->first < w.end;
             ++it) {
            if (it->second.end <= w.begin ||
                masks_.chunkCount(it->second.obj) == 0)
                continue;
            if (++nobjs == 1) {
                obj_begin = it->first;
                obj_end = it->second.end;
                obj_chunks = masks_.chunksOf(it->second.obj);
                obj_nchunks = masks_.chunkCount(it->second.obj);
            }
            countHits(masks_.chunksOf(it->second.obj),
                      masks_.chunkCount(it->second.obj));
        }
        return first;
    }

    /** The first live object that can intersect a range starting at
     *  a: the one holding a, else the first one after it. */
    LiveMap::iterator
    firstFrom(Addr a)
    {
        auto it = live_.upper_bound(a);
        if (it != live_.begin()) {
            auto prev = std::prev(it);
            if (prev->second.end > a)
                return prev;
        }
        return it;
    }

    /** Count hits for every session of one object not yet hit this
     *  write (dedup across objects via hit_mask_). */
    void
    countHits(const SessionMaskTable::Chunk *c, std::size_t n)
    {
        for (const auto *end = c + n; c != end; ++c) {
            std::uint64_t m = c->mask & ~hit_mask_[c->word];
            if (!m)
                continue;
            hit_mask_[c->word] |= m;
            touched_hit_.push_back(c->word);
            const SessionId base = c->word * 64;
            do {
                const int b = std::countr_zero(m);
                std::uint64_t *ctr =
                    &result_.counters[base + (SessionId)b].hits;
                ++*ctr;
                if (recording_)
                    rec_incs_.push_back(ctr);
                m &= m - 1;
            } while (m);
        }
    }

    /** Count active-page misses for page-size i from one page entry:
     *  its sessions minus anything already hit or already missed. */
    void
    missChunks(std::size_t i, const PageSessions &ps)
    {
        for (const auto &c : ps.words) {
            std::uint64_t m = c.mask & ~hit_mask_[c.word] &
                              ~miss_mask_[i][c.word];
            if (!m)
                continue;
            miss_mask_[i][c.word] |= m;
            touched_miss_[i].push_back(c.word);
            const SessionId base = c.word * 64;
            do {
                const int b = std::countr_zero(m);
                std::uint64_t *ctr =
                    &result_.counters[base + (SessionId)b]
                         .vm[i]
                         .activePageMisses;
                ++*ctr;
                if (recording_)
                    rec_incs_.push_back(ctr);
                m &= m - 1;
            } while (m);
        }
    }

    void
    write(const Event &e)
    {
        ++result_.totalWrites;
        EDB_OBS_ONLY(++tally_.writes;)
        const AddrRange w = e.range();

        // Replay probe: a write inside an entry's window intersects
        // the same session objects (the cached one, or none for an
        // anchor) on the same page of every size as the recorded
        // write, so its effect is exactly the recorded one. Settled
        // lazily by settle().
        for (std::size_t k = 0; k < cache_.size(); ++k) {
            if (w.begin >= rlo_[k] && w.end <= rhi_[k]) {
                ++cache_[k].pending;
                EDB_OBS_ONLY(++tally_.cache_replays;)
                return;
            }
        }

        std::array<Addr, vmPageSizeCount> pg_first;
        std::array<Addr, vmPageSizeCount> pg_last;
        bool single = true;
        for (std::size_t i = 0; i < vmPageSizeCount; ++i) {
            auto [f, l] = pageSpan(w, vmPageSizes[i]);
            pg_first[i] = f;
            pg_last[i] = l;
            single &= f == l;
        }

        // Object-containment probe: the first entry whose object
        // contains the write. Live objects never overlap, so at most
        // one matches; the cached object info then short-circuits
        // resolution even though the recording itself is stale.
        CacheEntry *hit = nullptr;
        for (CacheEntry &c : cache_) {
            if (w.begin >= c.begin && w.end <= c.end) {
                hit = &c;
                break;
            }
        }

        // Full path, recording the increments for the cache.
        rec_incs_.clear();
        recording_ = true;

        std::size_t nobjs = 0;
        // Where a map walk started, if one ran (the anchor reuses it).
        auto walked = live_.end();
        Addr obj_begin = 0, obj_end = 0;
        const SessionMaskTable::Chunk *obj_chunks = nullptr;
        std::size_t obj_nchunks = 0;

        if (hit != nullptr) {
            // The write intersects exactly the cached object.
            EDB_OBS_ONLY(++tally_.obj_cache_hits;)
            nobjs = 1;
            obj_begin = hit->begin;
            obj_end = hit->end;
            obj_chunks = hit->chunks;
            obj_nchunks = hit->nchunks;
            countHits(obj_chunks, obj_nchunks);
        } else if (pg_first[0] == pg_last[0]) {
            // The write lies inside one finest-size page, so every
            // intersecting object touches that page: no entry means
            // no object with a session (whose pages are all in the
            // table) intersects it, an exact list resolves in a few
            // compares, and only an overflowed page walks the live
            // map.
            if (const PageSessions *ps =
                    pages_[0].find(pg_first[0])) {
                if (!ps->overflow) {
                    for (const auto &o : ps->objs) {
                        if (o.begin < w.end && o.end > w.begin) {
                            if (++nobjs == 1) {
                                obj_begin = o.begin;
                                obj_end = o.end;
                                obj_chunks = masks_.chunksOf(o.obj);
                                obj_nchunks =
                                    masks_.chunkCount(o.obj);
                            }
                            countHits(masks_.chunksOf(o.obj),
                                      masks_.chunkCount(o.obj));
                        }
                    }
                } else {
                    walked = resolveViaMap(w, nobjs, obj_begin, obj_end,
                                           obj_chunks, obj_nchunks);
                }
            }
        } else {
            // Prefilter on the finest page table: a write landing on
            // no monitored finest-size page cannot intersect a live
            // object with a session (any shared byte's page would
            // carry that object's sessions), so pure misses skip the
            // map walk.
            bool may_hit = false;
            for (Addr p = pg_first[0]; p <= pg_last[0] && !may_hit;
                 ++p) {
                may_hit = pages_[0].find(p) != nullptr;
            }
            if (may_hit) {
                walked = resolveViaMap(w, nobjs, obj_begin, obj_end,
                                       obj_chunks, obj_nchunks);
            }
        }

        // VirtualMemory active-page misses: sessions with a monitor
        // on a written page that this write did not hit, deduplicated
        // across the pages of one size by the miss mask. Hits are all
        // counted by now, as the exclusion requires.
        for (std::size_t i = 0; i < vmPageSizeCount; ++i) {
            for (Addr p = pg_first[i]; p <= pg_last[i]; ++p) {
                if (const PageSessions *ps = pages_[i].find(p))
                    missChunks(i, *ps);
            }
        }

        // Scrub only the words this write dirtied; the masks are
        // all-zero between events by this invariant.
        EDB_OBS_ONLY(tally_.scrub_words += touched_hit_.size();)
        for (std::uint32_t word : touched_hit_)
            hit_mask_[word] = 0;
        touched_hit_.clear();
        for (std::size_t i = 0; i < vmPageSizeCount; ++i) {
            EDB_OBS_ONLY(tally_.scrub_words += touched_miss_[i].size();)
            for (std::uint32_t word : touched_miss_[i])
                miss_mask_[i][word] = 0;
            touched_miss_[i].clear();
        }
        recording_ = false;

        if (!single)
            return;
        const Addr page_lo = pg_first[0] * vmPageSizes[0];
        if (nobjs == 1) {
            // Commit to the cache: the increments are a function of
            // (single intersected object, one page per size).
            // Re-record in place on a window mismatch; otherwise
            // evict round-robin.
            const std::size_t k =
                hit != nullptr
                    ? (std::size_t)(hit - cache_.data())
                    : rr_++ % cache_.size();
            record(k, obj_begin, obj_end, page_lo);
            CacheEntry &c = cache_[k];
            c.begin = obj_begin;
            c.end = obj_end;
            c.chunks = obj_chunks;
            c.nchunks = obj_nchunks;
        } else if (nobjs == 0 && anchors_ && !rec_incs_.empty()) {
            // Window-only anchor: the write missed every object with
            // a session but counted page misses. If it lies inside a
            // live object (which then has no session), any write
            // inside that object clipped to this page also intersects
            // no session object and touches the same pages, so it
            // has exactly these increments. No object range is
            // stored, so the containment probe never matches; the
            // window dies like any other on an install or remove
            // touching its page, the object's own remove included.
            const auto it =
                walked != live_.end() ? walked : firstFrom(w.begin);
            if (it == live_.end() || it->first > w.begin ||
                it->second.end < w.end)
                return;
            const std::size_t k = rr_++ % cache_.size();
            record(k, it->first, it->second.end, page_lo);
            CacheEntry &c = cache_[k];
            c.begin = 0;
            c.end = 0;
            c.chunks = nullptr;
            c.nchunks = 0;
        }
    }

    /**
     * Store the write just resolved as entry k's recording: its
     * increment list, and the window [begin, end) clipped to the
     * finest page at page_lo.
     */
    void
    record(std::size_t k, Addr begin, Addr end, Addr page_lo)
    {
        EDB_OBS_ONLY(++tally_.recordings;)
        CacheEntry &c = cache_[k];
        settle(c); // pay the old increment list's debt first
        c.incs.swap(rec_incs_);
        rlo_[k] = std::max(begin, page_lo);
        rhi_[k] = std::min(end, page_lo + vmPageSizes[0]);
    }

    /** log2 of each simulated page size, for the write screen. */
    static constexpr std::array<unsigned, vmPageSizeCount> pageShifts =
        [] {
            std::array<unsigned, vmPageSizeCount> a{};
            for (std::size_t i = 0; i < vmPageSizeCount; ++i)
                a[i] = (unsigned)std::countr_zero(vmPageSizes[i]);
            return a;
        }();

    /** Slots of each per-size page filter (u32 counts, ~128KB). */
    static constexpr std::size_t filterSlots = std::size_t{1} << 14;

    /**
     * True when the write (b, s) is provably *pure* — its complete
     * effect on the engine is ++totalWrites (plus the obs write
     * tally). Every live object that resolution counts (one with a
     * session) has its pages in pages_[0], so
     *
     *  - a zero filter slot for every size means no monitored page of
     *    any size at this address: no hits (no counted object shares
     *    a byte), no active-page misses, and the single-page
     *    prefilter path of write() would find no page entry — no map
     *    walk, no tallies, no recording (nobjs == 0, and no anchor
     *    either: nothing was incremented);
     *  - replay windows only ever sit on a page monitored at some
     *    size (a session object or a window-only anchor clipped to
     *    a finest page whose increments were not empty), and cached
     *    object ranges only on session objects, so a screened write
     *    can match neither (its filter slots are empty) — no
     *    cache_replays, no obj_cache_hits; the no-wrap guard also
     *    rejects end == 0, which a zeroed window [0, 0] would
     *    otherwise "contain";
     *  - staying inside one finest page keeps it on one page of every
     *    size (sizes nest), the exact shape write() short-circuits.
     *
     * Everything else — straddles, wraps, size-0 writes, any nonzero
     * filter slot — takes the scalar write() verbatim.
     */
    bool
    screenOne(Addr b, std::uint32_t s) const
    {
        if (s == 0)
            return false;
        const Addr end = b + s;
        if (end < b)
            return false;
        if ((b >> pageShifts[0]) != ((end - 1) >> pageShifts[0]))
            return false;
        for (std::size_t i = 0; i < vmPageSizeCount; ++i) {
            if (page_filter_[i][(b >> pageShifts[i]) &
                                (filterSlots - 1)] != 0)
                return false;
        }
        return true;
    }

#if EDB_SIMD_HAVE_AVX2
    /** screenOne() over 4 lanes at a time: vector page math plus one
     *  filter gather per page size; bit i of the result marks lane i
     *  pure. */
    __attribute__((target("avx2"))) std::uint64_t
    screenWritesAvx2(const Addr *b, const std::uint32_t *sz,
                     std::size_t n) const
    {
        std::uint64_t pure = 0;
        const __m256i zero = _mm256_setzero_si256();
        const __m256i ones = _mm256_set1_epi64x(-1);
        const __m256i bias =
            _mm256_set1_epi64x((long long)0x8000000000000000ull);
        const __m256i fmask =
            _mm256_set1_epi64x((long long)(filterSlots - 1));
        const __m128i finest =
            _mm_cvtsi32_si128((int)pageShifts[0]);
        std::size_t i = 0;
        for (; i + 4 <= n; i += 4) {
            const __m256i beg =
                _mm256_loadu_si256((const __m256i *)(b + i));
            const __m256i size = _mm256_cvtepu32_epi64(
                _mm_loadu_si128((const __m128i *)(sz + i)));
            const __m256i end = _mm256_add_epi64(beg, size);
            const __m256i nzSize = _mm256_andnot_si256(
                _mm256_cmpeq_epi64(size, zero), ones);
            const __m256i noWrap = _mm256_cmpgt_epi64(
                _mm256_xor_si256(end, bias),
                _mm256_xor_si256(beg, bias));
            const __m256i last =
                _mm256_sub_epi64(end, _mm256_set1_epi64x(1));
            __m256i ok = _mm256_and_si256(nzSize, noWrap);
            ok = _mm256_and_si256(
                ok, _mm256_cmpeq_epi64(_mm256_srl_epi64(beg, finest),
                                       _mm256_srl_epi64(last,
                                                        finest)));
            for (std::size_t s = 0; s < vmPageSizeCount; ++s) {
                const __m128i sh =
                    _mm_cvtsi32_si128((int)pageShifts[s]);
                const __m256i slot = _mm256_and_si256(
                    _mm256_srl_epi64(beg, sh), fmask);
                const __m256i counts = _mm256_cvtepu32_epi64(
                    _mm256_i64gather_epi32(
                        (const int *)page_filter_[s].data(), slot,
                        4));
                ok = _mm256_and_si256(
                    ok, _mm256_cmpeq_epi64(counts, zero));
            }
            pure |= (std::uint64_t)(unsigned)_mm256_movemask_pd(
                        _mm256_castsi256_pd(ok))
                    << i;
        }
        for (; i < n; ++i)
            pure |= (std::uint64_t)screenOne(b[i], sz[i]) << i;
        return pure;
    }
#endif // EDB_SIMD_HAVE_AVX2

    /**
     * Replay the writes [w, upto) of the batch: screen up to 64
     * lanes at a shot, retire pure lanes as counts, and hand every
     * other lane to write() in stream order. NEON has no gather, so
     * non-AVX2 ISAs screen with the scalar predicate — same lanes,
     * same result, still skipping the per-write machinery.
     */
    void
    writeSpan(const trace::WriteBatch &wb, std::size_t &w,
              std::size_t upto)
    {
        const Addr *b = wb.wrBegin.data();
        const std::uint32_t *sz = wb.wrSize.data();
        const std::uint32_t *aux = wb.wrAux.data();
        while (w < upto) {
            const std::size_t n =
                std::min<std::size_t>(upto - w, 64);
            std::uint64_t pure = 0;
#if EDB_SIMD_HAVE_AVX2
            if (isa_ == util::SimdIsa::Avx2) {
                pure = screenWritesAvx2(b + w, sz + w, n);
            } else
#endif
            {
                for (std::size_t k = 0; k < n; ++k) {
                    pure |= (std::uint64_t)screenOne(b[w + k], sz[w + k])
                            << k;
                }
            }
            const std::uint64_t all =
                n == 64 ? ~0ull : ((1ull << n) - 1);
            if (pure == all) {
                // The common case: the whole span misses everything.
                result_.totalWrites += n;
                EDB_OBS_ONLY(tally_.writes += (std::uint64_t)n;)
            } else {
                for (std::size_t k = 0; k < n; ++k) {
                    if ((pure >> k) & 1) {
                        ++result_.totalWrites;
                        EDB_OBS_ONLY(++tally_.writes;)
                    } else {
                        write(Event{b[w + k], sz[w + k], aux[w + k],
                                    EventKind::Write});
                    }
                }
            }
            w += n;
        }
    }

#if EDB_OBS_ENABLED
    /**
     * Per-engine counting variables, plain u64s (and a plain
     * histogram) so the write path performs no atomic ops; published
     * to the process-wide obs_instr instruments at the end of every
     * replay() and replayBlock() call.
     */
    struct ObsTally
    {
        std::uint64_t writes = 0;
        std::uint64_t cache_replays = 0;
        std::uint64_t obj_cache_hits = 0;
        std::uint64_t recordings = 0;
        std::uint64_t map_walks = 0;
        std::uint64_t scrub_words = 0;
        obs::HistTally pending_flush;
    };

    void
    publishTally()
    {
        obs_instr::replayWrites.add(tally_.writes);
        obs_instr::replayCacheReplays.add(tally_.cache_replays);
        obs_instr::replayObjCacheHits.add(tally_.obj_cache_hits);
        obs_instr::replayRecordings.add(tally_.recordings);
        obs_instr::replayMapWalks.add(tally_.map_walks);
        obs_instr::replayScrubWords.add(tally_.scrub_words);
        obs_instr::replayPendingFlush.merge(tally_.pending_flush);
        tally_ = ObsTally{};
    }

    ObsTally tally_;
#endif

    const SessionSet &sessions_;
    const SessionMaskTable &masks_;
    /** Some object has no session under this set (a subset), so
     *  write() looks for window-only anchors. */
    bool anchors_ = false;
    /** Kernel ISA, cached at construction (one ReplayEngine never
     *  spans a simdOverride()). */
    util::SimdIsa isa_ = util::SimdIsa::Scalar;
    /**
     * Per-size direct-mapped monitored-page presence counters, the
     * write screen's probe target: slot p & (filterSlots-1) counts
     * the pages_[i] entries mapping to it, maintained at the three
     * places entries are created or erased. A zero slot proves the
     * page is absent; collisions only cost screening opportunities,
     * never correctness.
     */
    std::array<std::vector<std::uint32_t>, vmPageSizeCount>
        page_filter_;

    /** Node pool for live_: one tree node per install, recycled
     *  across removes and reset() without touching the heap. */
    util::ArenaPool live_pool_;
    /** Installed objects by begin address (ordered: the overlap
     *  asserts and predecessor queries need neighbors). */
    LiveMap live_{LiveAlloc(&live_pool_)};
    std::array<util::FlatMap<Addr, PageSessions>, vmPageSizeCount>
        pages_;
    /** The replay cache, round-robin replacement. */
    std::array<CacheEntry, 4> cache_;
    /** Replay windows of cache_ (kept compact for the probe). */
    std::array<Addr, 4> rlo_{};
    std::array<Addr, 4> rhi_{};
    unsigned rr_ = 0;
    /** Increment collector for the write being recorded. */
    std::vector<std::uint64_t *> rec_incs_;
    bool recording_ = false;

    /** Per-write session dedup masks + their dirty-word lists. */
    std::vector<std::uint64_t> hit_mask_;
    std::array<std::vector<std::uint64_t>, vmPageSizeCount> miss_mask_;
    std::vector<std::uint32_t> touched_hit_;
    std::array<std::vector<std::uint32_t>, vmPageSizeCount>
        touched_miss_;

    SimResult result_;
};

} // namespace edb::sim::detail

#endif // EDB_SIM_REPLAY_CORE_H
