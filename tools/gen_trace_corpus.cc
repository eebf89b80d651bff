/**
 * @file
 * Generator for the committed v2 mini-corpus (bench/corpus/).
 *
 * The corpus pins the on-disk EDBT container: CI's perf-smoke job and
 * the tier-1 corpus test decode the committed bytes, so any change to
 * the wire format that cannot read yesterday's artifacts fails loudly
 * instead of silently orphaning saved traces. The traces here are
 * deterministic (fixed Rng seeds, fixed layout) — re-running this tool
 * reproduces the corpus byte for byte; regenerate and re-commit only
 * on a deliberate format revision, together with the expected counts
 * in tests/test_trace_corpus.cc.
 *
 * Usage: gen_trace_corpus [--write-locality clustered|scattered]
 *                         <output-dir>
 *
 * Writes:
 *   mini_mixed.v2.trc   installs/removes interleaved with writes, so
 *                       most blocks carry both column groups
 *   mini_writes.v2.trc  long pure-write phases against few monitored
 *                       objects — the block-skip fast path's shape
 *   mini_straddle.v2.trc
 *                       writes and objects deliberately straddling
 *                       8 KiB summary-page boundaries — the query
 *                       pushdown's page-attribution edge cases
 *   mini_ghost.v2.trc   blocks whose page summaries match a target
 *                       predicate while containing zero matching
 *                       rows — a summary may only ever over-approximate
 *   mini_scatter.v2.trc writes sprayed (or, with --write-locality
 *                       clustered, packed) across a wide arena — wide
 *                       page summaries for the address pushdown; the
 *                       committed artifact is the scattered default
 *
 * bench/corpus/mini_mixed.v1.trc is not written here: it is the mixed
 * trace in the retired v1 flat container, kept as frozen bytes so
 * every reader's rejection of that format stays tested.
 */

#include <cstdio>
#include <string>

#include "trace/trace_io.h"
#include "trace/tracer.h"
#include "util/rng.h"

namespace {

using namespace edb;

/** Call-tree churn with interleaved writes: mixed blocks. */
trace::Trace
mixedTrace()
{
    Rng rng(0xED6701);
    trace::Tracer tracer("mini_mixed");
    auto g = tracer.declareGlobal("table", 4096);
    tracer.enterFunction("main");
    for (int outer = 0; outer < 40; ++outer) {
        tracer.enterFunction(outer % 2 ? "pack" : "scan");
        // A re-interned local must keep its declared size, so the size
        // is part of the name.
        const Addr vsize = 8 + 8 * (Addr)(outer % 4);
        auto v = tracer.declareLocal(
            ("v" + std::to_string(vsize)).c_str(), vsize);
        auto h = tracer.heapAlloc("node", 16 + rng.below(96));
        for (int i = 0; i < 30; ++i) {
            switch (rng.below(3)) {
              case 0:
                tracer.write(g.addr + rng.below(4088), 4,
                             tracer.internWriteSite("scan.c:12"));
                break;
              case 1:
                tracer.write(v.addr, 8,
                             tracer.internWriteSite("scan.c:19"));
                break;
              default:
                tracer.write(h.addr + rng.below(16), 4,
                             tracer.internWriteSite("pack.c:7"));
                break;
            }
        }
        if (outer % 3 != 0)
            tracer.heapFree(h);
        tracer.exitFunction();
    }
    tracer.exitFunction();
    return tracer.finish();
}

/** Few long-lived monitors, long write-only phases: pure blocks. */
trace::Trace
writesTrace()
{
    Rng rng(0xED6702);
    trace::Tracer tracer("mini_writes");
    auto state = tracer.declareGlobal("state", 256);
    auto arena = tracer.declareGlobal("arena", 1 << 16);
    tracer.enterFunction("main");
    for (int phase = 0; phase < 8; ++phase) {
        for (int i = 0; i < 400; ++i) {
            // The hot loop stays in the arena's upper region, past
            // any summary page `state` could share with the arena's
            // first bytes, so pure-write blocks summarize to pages no
            // OneGlobalStatic(state) session monitors.
            tracer.write(arena.addr + 16384 + rng.below((1 << 16) - 16384 - 8),
                         1 + rng.below(8),
                         tracer.internWriteSite("loop.c:4"));
        }
        tracer.write(state.addr + 8 * (Addr)(phase % 16), 8,
                     tracer.internWriteSite("loop.c:9"));
    }
    tracer.exitFunction();
    return tracer.finish();
}

/**
 * Writes that straddle 8 KiB summary-page boundaries, from a global
 * spanning three summary pages and short-lived heap objects, with
 * installs/removes interleaved. Exercises the multi-page attribution
 * paths: a straddling write belongs to every page it touches, in both
 * the block summaries and the query per-page aggregations.
 */
trace::Trace
straddleTrace()
{
    Rng rng(0xED6703);
    trace::Tracer tracer("mini_straddle");
    auto span = tracer.declareGlobal("span", 3 * 8192);
    tracer.enterFunction("main");
    for (int outer = 0; outer < 24; ++outer) {
        tracer.enterFunction("cross");
        auto h = tracer.heapAlloc("straddler", 64 + rng.below(128));
        for (int i = 0; i < 40; ++i) {
            // Start just below one of span's two interior page
            // boundaries and write across it.
            const Addr boundary = 8192 * (1 + rng.below(2));
            const Addr off = boundary - 1 - rng.below(8);
            tracer.write(span.addr + off, 2 + rng.below(14),
                         tracer.internWriteSite("straddle.c:5"));
            tracer.write(h.addr + rng.below(32), 4,
                         tracer.internWriteSite("straddle.c:9"));
        }
        if (outer % 2)
            tracer.heapFree(h);
        tracer.exitFunction();
    }
    tracer.exitFunction();
    return tracer.finish();
}

/**
 * The ghost: long pure-write runs into the *same summary page* as a
 * monitored 256-byte global, never touching a byte of it. Every such
 * block's summary matches an address or session predicate on the
 * target, so a sound planner must decode it — and then find zero
 * matching rows. Distinguishes "summary says maybe" from "rows say
 * yes" in the property harness.
 */
trace::Trace
ghostTrace()
{
    Rng rng(0xED6704);
    trace::Tracer tracer("mini_ghost");
    auto target = tracer.declareGlobal("target", 256);
    auto far = tracer.declareGlobal("far_arena", 1 << 15);
    tracer.enterFunction("main");

    // The decoy region: the larger free span of the target's own
    // summary page, whichever side of the object it falls on.
    const Addr page_start = target.addr & ~(Addr)8191;
    const Addr page_end = page_start + 8192;
    const Addr target_end = target.addr + 256;
    Addr decoy_begin;
    Addr decoy_size;
    if (target.addr - page_start > page_end - target_end) {
        decoy_begin = page_start;
        decoy_size = target.addr - page_start;
    } else {
        decoy_begin = target_end;
        decoy_size = page_end - target_end;
    }

    for (int phase = 0; phase < 6; ++phase) {
        for (int i = 0; i < 300; ++i) {
            tracer.write(decoy_begin + rng.below(decoy_size - 8),
                         1 + rng.below(8),
                         tracer.internWriteSite("ghost.c:3"));
        }
        for (int i = 0; i < 200; ++i) {
            // Skip the arena's first summary page: consecutive
            // globals can share a page, and a far write landing on
            // the target's page would defeat the far blocks' prune.
            tracer.write(far.addr + 8192 +
                             rng.below((1 << 15) - 8192 - 8),
                         4, tracer.internWriteSite("ghost.c:7"));
        }
    }
    // The one write that really touches the target, at the very end.
    tracer.write(target.addr + 16, 8,
                 tracer.internWriteSite("ghost.c:11"));
    tracer.exitFunction();
    return tracer.finish();
}

/**
 * Page-locality shapes for the block summaries and the sidecar trace
 * index (trace/index_format.h). Scattered sprays single writes across
 * a 4 MiB arena — hundreds of distinct summary pages, wide per-block
 * summaries. Clustered packs each phase's writes into one page pair —
 * long summary runs. Both interleave short-lived heap objects so the
 * per-object session extents stay non-trivial.
 */
trace::Trace
localityTrace(bool clustered)
{
    Rng rng(0xED6705);
    trace::Tracer tracer(clustered ? "mini_cluster" : "mini_scatter");
    auto arena = tracer.declareGlobal("wide_arena", 1 << 22);
    tracer.enterFunction("main");
    for (int phase = 0; phase < 12; ++phase) {
        auto h = tracer.heapAlloc("probe", 32 + rng.below(64));
        // Clustered phases camp on one 16 KiB page pair; scattered
        // ones pick a fresh page for every write.
        const Addr camp = 16384 * (Addr)rng.below(256);
        for (int i = 0; i < 160; ++i) {
            const Addr off =
                clustered
                    ? camp + rng.below(16384 - 8)
                    : 8192 * (Addr)rng.below(512) + rng.below(8184);
            tracer.write(arena.addr + off, 1 + rng.below(8),
                         tracer.internWriteSite("spray.c:6"));
        }
        tracer.write(h.addr + rng.below(24), 4,
                     tracer.internWriteSite("spray.c:9"));
        if (phase % 3 != 2)
            tracer.heapFree(h);
    }
    tracer.exitFunction();
    return tracer.finish();
}

} // namespace

int
main(int argc, char **argv)
{
    bool clustered = false;
    int argi = 1;
    if (argc >= 3 &&
        std::string(argv[1]) == "--write-locality") {
        const std::string v = argv[2];
        if (v == "clustered") {
            clustered = true;
        } else if (v != "scattered") {
            std::fprintf(stderr,
                         "unknown --write-locality '%s' (expected "
                         "clustered or scattered)\n",
                         v.c_str());
            return 2;
        }
        argi = 3;
    }
    if (argc - argi != 1) {
        std::fprintf(stderr,
                     "usage: gen_trace_corpus [--write-locality "
                     "clustered|scattered] <output-dir>\n");
        return 2;
    }
    const std::string dir = argv[argi];

    trace::Trace mixed = mixedTrace();
    trace::Trace writes = writesTrace();
    trace::Trace straddle = straddleTrace();
    trace::Trace ghost = ghostTrace();
    trace::Trace scatter = localityTrace(clustered);

    // Small blocks so even mini traces span many of them.
    trace::WriteOptions v2;
    v2.blockEvents = 128;

    trace::saveTrace(mixed, dir + "/mini_mixed.v2.trc", v2);
    trace::saveTrace(writes, dir + "/mini_writes.v2.trc", v2);
    trace::saveTrace(straddle, dir + "/mini_straddle.v2.trc", v2);
    trace::saveTrace(ghost, dir + "/mini_ghost.v2.trc", v2);
    trace::saveTrace(scatter, dir + "/mini_scatter.v2.trc", v2);

    std::printf("mini_mixed:    %zu events, %llu writes, %zu objects\n",
                mixed.events.size(),
                (unsigned long long)mixed.totalWrites,
                mixed.registry.objectCount());
    std::printf("mini_writes:   %zu events, %llu writes, %zu objects\n",
                writes.events.size(),
                (unsigned long long)writes.totalWrites,
                writes.registry.objectCount());
    std::printf("mini_straddle: %zu events, %llu writes, %zu objects\n",
                straddle.events.size(),
                (unsigned long long)straddle.totalWrites,
                straddle.registry.objectCount());
    std::printf("mini_ghost:    %zu events, %llu writes, %zu objects\n",
                ghost.events.size(),
                (unsigned long long)ghost.totalWrites,
                ghost.registry.objectCount());
    std::printf("mini_scatter:  %zu events, %llu writes, %zu objects "
                "(%s)\n",
                scatter.events.size(),
                (unsigned long long)scatter.totalWrites,
                scatter.registry.objectCount(),
                clustered ? "clustered" : "scattered");
    return 0;
}
