#!/usr/bin/env python3
"""Order-of-magnitude perf-smoke gate for the CI benchmark job.

Reads the machine-readable JSON the benchmark binaries emit
(BENCH_micro_index.json / BENCH_micro_runtime.json in Google-benchmark
format, BENCH_parallel.json / BENCH_trace_v2.json / BENCH_query.json
/ BENCH_served.json / BENCH_decode.json in the repo's shared
envelope: top-level `name`, `repetitions`, `meta`, `results`) and
fails ONLY on order-of-magnitude regressions or correctness-flag
failures. CI runners are noisy shared machines, so the ceilings below
carry 20-100x headroom over measured medians; a threshold trip means
a fast path fell off a cliff (an accidental O(n) scan, a lost inline,
a debug-build slip), not scheduler jitter.

With --require-obs the script also checks OBS_*.json snapshots
(edb::obs, schema edb-obs-snapshot-v1 or -v2, taken from `edb-trace
analyze`) for counter sanity: the replay cache must have actually run.

With --wms-obs it checks one snapshot of a process that monitored live
writes (the daemon's, after a live RUN): the MonitorIndex shadow
directory must have actually run, and its fast/fallback split must add
up to the lookup count. analyze replays through the simulator and
never probes a MonitorIndex, so these floors cannot sit on its
snapshots.

Usage: perf_smoke_check.py [--require-obs] [directory-with-json-files]
       perf_smoke_check.py --wms-obs snapshot.json
"""

import json
import pathlib
import sys

# Ceilings in nanoseconds for `_median` entries of the two
# Google-benchmark binaries. Measured medians (2026, one modest core)
# are noted for calibration; every ceiling is >= 25x that.
MEDIAN_CEILINGS_NS = {
    # bench_micro_index (measured ~1.3-3.6 ns lookups)
    "BM_ByteLookup": 100,
    "BM_LookupHit": 200,
    "BM_LookupMiss/100": 200,
    "BM_LookupMiss/1000": 200,
    "BM_LookupMiss/10000": 200,
    "BM_LookupMixed/100": 200,
    "BM_LookupMixed/1000": 200,
    # bench_micro_runtime (measured ~1.5-3.3 ns checks, ~67 ns cycle)
    "BM_CodePatch_CheckMiss": 100,
    "BM_CodePatch_CheckHit": 200,
    "BM_CodePatch_InstallRemove": 5_000,
}


def fail(msg):
    print(f"PERF-SMOKE FAIL: {msg}")
    return 1


def load_envelope(path):
    """Validate the shared BENCH_*.json envelope; return (rc, results)."""
    data = json.loads(path.read_text())
    rc = 0
    for key in ("name", "repetitions", "results", "meta"):
        if key not in data:
            rc |= fail(f"{path.name}: envelope missing key {key!r}")
    meta = data.get("meta", {})
    for key in ("git_sha", "build_type"):
        if key not in meta:
            rc |= fail(f"{path.name}: meta missing key {key!r}")
    return rc, data.get("results", {})


def check_gbench(path):
    """Check one Google-benchmark JSON against the median ceilings."""
    rc = 0
    data = json.loads(path.read_text())
    seen = {}
    for bench in data.get("benchmarks", []):
        name = bench["name"]
        if not name.endswith("_median"):
            continue
        base = name[: -len("_median")]
        value = bench["real_time"]
        unit = bench.get("time_unit", "ns")
        scale = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
        seen[base] = value * scale
    for base, ceiling in MEDIAN_CEILINGS_NS.items():
        if base not in seen:
            continue  # filtered run or renamed benchmark: not a gate
        value = seen[base]
        status = "ok" if value <= ceiling else "FAIL"
        print(f"  {base}: {value:.1f} ns (ceiling {ceiling} ns) {status}")
        if value > ceiling:
            rc |= fail(
                f"{path.name}: {base} median {value:.1f} ns exceeds "
                f"order-of-magnitude ceiling {ceiling} ns"
            )
    return rc


def check_parallel(path):
    """BENCH_parallel.json: correctness flag plus a collapse guard."""
    rc, data = load_envelope(path)
    if not data.get("identical_to_sequential", False):
        rc |= fail(f"{path.name}: parallel result diverged from sequential")
    for row in data.get("parallel", []):
        # Not a scaling assertion (CI runners may have one core); only
        # a sharded run running 10x slower than sequential is a bug.
        if row["speedup"] < 0.1:
            rc |= fail(
                f"{path.name}: jobs={row['jobs']} speedup "
                f"{row['speedup']} collapsed below 0.1x"
            )
    if rc == 0:
        print(f"  {path.name}: identical, no collapse")
    return rc


# Bytes-per-event ceilings of the trace container, one per paper
# workload: v1_bytes / 1.5 / events from the last BENCH_trace_v2.json
# that measured the retired v1 flat encoding. That is the old "v2 is
# >= 1.5x smaller than v1" floor restated without a v1 writer, on the
# same deterministic traces. The writer measures 2.26-2.68x under v1,
# so a trip means the encoder lost its predictors or run-length coding.
BYTES_PER_EVENT_CEILINGS = {
    "gcc": 4.52,
    "ctex": 3.00,
    "spice": 4.37,
    "qcd": 2.82,
    "bps": 3.88,
}

SKIP_SPEEDUP_FLOOR = 1.3


def check_trace_v2(path):
    """BENCH_trace_v2.json: bit-identity, size ceilings, skip floors.

    Encoded size is deterministic (same encoder, same workloads), so
    it carries the real per-program bytes-per-event ceiling. This is
    the only skip-speedup floor: bench_trace_v2 itself fails only on
    a bit-identity break. The speedup is measured against loading the
    whole trace and replaying every event; gcc, ctex and qcd skip or
    control-decode nearly every block and measure 4-100x, spice and
    bps skip nothing and measure ~1x, so 1.3x on >=3 workloads trips
    when skipping stops working on any of the three. Decode measures
    ~1500+ MB/s against a 50 MB/s floor.
    """
    rc, data = load_envelope(path)
    if not data.get("identical", False):
        rc |= fail(f"{path.name}: block-skip replay diverged from full replay")
    fast = 0
    for row in data.get("workloads", []):
        prog = row["program"]
        ceiling = BYTES_PER_EVENT_CEILINGS.get(prog)
        if ceiling is None:
            rc |= fail(f"{path.name}: no bytes-per-event ceiling for {prog}")
        elif row["bytes_per_event"] > ceiling:
            rc |= fail(
                f"{path.name}: {prog} {row['bytes_per_event']} B/event "
                f"exceeds the {ceiling} B/event ceiling"
            )
        if row["decode_mbps"] < 50:
            rc |= fail(
                f"{path.name}: {prog} decode {row['decode_mbps']} "
                f"MB/s below 50 MB/s floor"
            )
        if row["skip_speedup"] >= SKIP_SPEEDUP_FLOOR:
            fast += 1
    if fast < 3:
        rc |= fail(
            f"{path.name}: skip replay >= {SKIP_SPEEDUP_FLOOR}x on only "
            f"{fast} workloads (floor 3)"
        )
    if rc == 0:
        print(
            f"  {path.name}: identical, sizes under their B/event "
            f"ceilings, {fast} workload(s) >= {SKIP_SPEEDUP_FLOOR}x "
            f"skip speedup"
        )
    return rc


def check_index(path, data):
    """The sidecar-index block inside BENCH_query.json.

    The acceptance run measures ~10x planner speedup on gcc's sparse
    OneHeap session (and 11-42x across the workloads), so the 5x gcc
    floor — the ISSUE 10 acceptance target — carries ~2x headroom;
    min-of-reps timing of a microseconds-scale loop is stable even on
    shared runners. Identity and elision are deterministic: a single
    elided-block count of zero across all five workloads means the
    index stopped attaching or the planner stopped consulting it. A
    run with EDB_TRACE_INDEX pinned off records enabled=false and is
    waived (the pin exists exactly so CI can prove the linear path).
    """
    rc = 0
    idx = data.get("index")
    if idx is None:
        return fail(f"{path.name}: no index block (stale bench binary?)")
    if not idx.get("enabled", False):
        print(f"  {path.name}: index phase pinned off, floors waived")
        return 0
    if not idx.get("identical", False):
        rc |= fail(f"{path.name}: indexed planner diverged from linear")
    gcc = idx.get("gcc_plan_speedup", 0.0)
    if gcc < 5.0:
        rc |= fail(
            f"{path.name}: gcc planner only {gcc}x faster with the "
            f"sidecar index (floor 5x)"
        )
    elided = sum(
        row["blocks_index_elided"] for row in idx.get("workloads", [])
    )
    if elided == 0:
        rc |= fail(f"{path.name}: index elided zero blocks everywhere")
    if rc == 0:
        print(
            f"  {path.name}: index identical, gcc planner {gcc}x, "
            f"{elided} blocks elided"
        )
    return rc


def check_query(path):
    """BENCH_query.json: oracle identity plus pushdown floors.

    The acceptance run measures 10-400x pushdown-vs-brute-force on
    every workload, so the 2x floor on >=3 workloads only trips when
    block pruning stops firing (every block decoding is exactly the
    brute-force work plus overhead). Pruning itself is deterministic
    — same planner, same traces — so zero writes pruned across all
    five workloads is a planner bug, not noise.
    """
    rc, data = load_envelope(path)
    if not data.get("identical", False):
        rc |= fail(f"{path.name}: pushdown result diverged from scanAll")
    fast = 0
    pruned = 0
    for row in data.get("workloads", []):
        if row["speedup"] >= 2.0:
            fast += 1
        pruned += row["writes_pruned"]
    if fast < 3:
        rc |= fail(
            f"{path.name}: query pushdown >= 2x on only {fast} "
            f"workloads (floor 3)"
        )
    if pruned == 0:
        rc |= fail(f"{path.name}: planner pruned zero writes everywhere")
    rc |= check_index(path, data)
    if rc == 0:
        print(
            f"  {path.name}: identical, {fast} workload(s) >= 2x, "
            f"{pruned} writes pruned"
        )
    return rc


def check_served(path):
    """BENCH_served.json: oracle identity plus throughput floors.

    The acceptance run measures thousands of connection cycles and
    hundreds of thousands of streamed notifications per second over
    the Unix socket, so the floors (20 conns/s, 1000 notifications/s)
    carry multiple orders of magnitude of CI headroom; a trip means
    the daemon serialized behind a lock or stopped streaming, not
    scheduler jitter.

    The sampler block (when present) compares the same notify phase
    with the telemetry sampler off vs ticking at 100 ms; acceptance
    is <= 5% overhead, but median-of-reps timing on a shared runner
    is noisier than that, so the gate is the 1.5x cliff — tripping
    it means the sampler serialized the request path (took a lock
    the dispatch envelope contends on), not that a tick cost a few
    microseconds.
    """
    rc, data = load_envelope(path)
    if not data.get("identical", False):
        rc |= fail(f"{path.name}: served counters diverged from oracle")
    conns = data.get("conns_per_sec", 0.0)
    notify = data.get("notifications_per_sec", 0.0)
    streamed = data.get("notifications", 0)
    if conns < 20:
        rc |= fail(
            f"{path.name}: connection churn {conns}/s below 20/s floor"
        )
    if streamed <= 0:
        rc |= fail(f"{path.name}: no notifications streamed")
    if notify < 1000:
        rc |= fail(
            f"{path.name}: notification stream {notify}/s below "
            f"1000/s floor"
        )
    sampler = data.get("sampler", {})
    ratio = sampler.get("notify_ratio")
    if ratio is not None and ratio > 1.5:
        rc |= fail(
            f"{path.name}: notify phase {ratio}x slower with the "
            f"telemetry sampler at {sampler.get('interval_ms')} ms "
            f"(ceiling 1.5x)"
        )
    if rc == 0:
        extra = f", sampler ratio {ratio}x" if ratio is not None else ""
        print(
            f"  {path.name}: identical, {conns} conns/s, "
            f"{notify} notifications/s ({streamed} streamed){extra}"
        )
    return rc


def check_decode(path):
    """BENCH_decode.json: SIMD decode identity plus the 2x floor.

    The scalar/vector identity flags are deterministic (same blocks,
    both ISAs decoded in-process) and always gate. The 2.0x decode
    floor against the committed per-event reference decoder is this
    feature's acceptance floor; the bench measures ~2.2x with
    reference, scalar, and vectorized passes interleaved per
    repetition, so drifting CI load biases all three alike. On hosts
    whose selected ISA is "scalar" the floor is waived — there is no
    vector unit to hold to it. Replay and probe numbers only carry
    collapse guards (0.7x / 0.5x): the batched path must never make
    replay meaningfully slower than the scalar batch path.
    """
    rc, results = load_envelope(path)
    meta = json.loads(path.read_text()).get("meta", {})
    isa = meta.get("simd_isa", "scalar")
    if not results.get("identical", False):
        rc |= fail(f"{path.name}: vectorized decode diverged from scalar")
    if not results.get("corpus_identical", False):
        rc |= fail(f"{path.name}: pinned corpus decode diverged across ISAs")
    probe = results.get("probe", {})
    if not probe.get("identical", False):
        rc |= fail(f"{path.name}: batched probe masks diverged from scalar")
    for row in results.get("replay", []):
        if not row.get("identical", False):
            rc |= fail(
                f"{path.name}: {row['program']} vectorized replay "
                f"counters diverged"
            )
    if isa != "scalar":
        overall = results.get("decode_speedup_overall", 0.0)
        if overall < 2.0:
            rc |= fail(
                f"{path.name}: {isa} decode only {overall}x over the "
                f"reference decoder (floor 2x)"
            )
        if probe.get("speedup", 0.0) < 0.5:
            rc |= fail(
                f"{path.name}: batched probe {probe.get('speedup')}x "
                f"collapsed below 0.5x"
            )
        for row in results.get("replay", []):
            if row["speedup"] < 0.7:
                rc |= fail(
                    f"{path.name}: {row['program']} batched replay "
                    f"{row['speedup']}x collapsed below 0.7x"
                )
    if rc == 0:
        overall = results.get("decode_speedup_overall", 0.0)
        print(
            f"  {path.name}: identical on {isa}, decode "
            f"{overall}x vs reference"
        )
    return rc


def load_counters(path):
    """(rc, counters) of an edb::obs snapshot."""
    data = json.loads(path.read_text())
    if data.get("schema") not in ("edb-obs-snapshot-v1",
                                  "edb-obs-snapshot-v2"):
        return fail(f"{path.name}: unexpected schema "
                    f"{data.get('schema')!r}"), {}
    return 0, data.get("counters", {})


def check_obs(path):
    """OBS_*.json analyze snapshot: the replay hot path actually ran.

    Floors, not ceilings: every paper workload writes memory and
    installs monitors, so a zero here means the counter wiring (or
    the EDB_OBS build flag) silently fell out.
    """
    rc, c = load_counters(path)
    if rc:
        return rc
    writes = c.get("sim.replay.writes", 0)
    replays = c.get("sim.replay.cache_replays", 0)
    if writes <= 0:
        rc |= fail(f"{path.name}: sim.replay.writes is {writes}")
    if not 0 < replays <= writes:
        rc |= fail(
            f"{path.name}: sim.replay.cache_replays {replays} not in "
            f"(0, writes={writes}]"
        )
    if rc == 0:
        print(f"  {path.name}: writes={writes} cache_replays={replays}")
    return rc


def check_wms(path):
    """Live-monitoring snapshot: the MonitorIndex shadow directory ran.

    Floors, not ceilings: a live RUN with an installed monitor looks
    every write up in the tenant's MonitorIndex, which publishes its
    tallies when it is destroyed, so a zero here means the counter
    wiring (or the EDB_OBS build flag) silently fell out.
    """
    rc, c = load_counters(path)
    if rc:
        return rc
    lookups = c.get("wms.index.lookups", 0)
    fast = c.get("wms.shadow.fast", 0)
    fallback = c.get("wms.shadow.fallback", 0)
    if lookups <= 0:
        rc |= fail(f"{path.name}: wms.index.lookups is {lookups}")
    if fast <= 0:
        rc |= fail(f"{path.name}: wms.shadow.fast is {fast}")
    if fast + fallback != lookups:
        rc |= fail(
            f"{path.name}: shadow fast {fast} + fallback {fallback} "
            f"!= lookups {lookups}"
        )
    if rc == 0:
        print(
            f"  {path.name}: lookups={lookups} (fast={fast}, "
            f"fallback={fallback})"
        )
    return rc


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["--wms-obs"]:
        if len(argv) != 2:
            return fail("usage: perf_smoke_check.py --wms-obs snapshot.json")
        path = pathlib.Path(argv[1])
        print(f"checking {path}")
        return check_wms(path)
    require_obs = "--require-obs" in argv
    argv = [a for a in argv if a != "--require-obs"]
    root = pathlib.Path(argv[0] if argv else ".")
    checks = {
        "BENCH_micro_index.json": check_gbench,
        "BENCH_micro_runtime.json": check_gbench,
        "BENCH_parallel.json": check_parallel,
        "BENCH_trace_v2.json": check_trace_v2,
        "BENCH_query.json": check_query,
        "BENCH_served.json": check_served,
        "BENCH_decode.json": check_decode,
    }
    rc = 0
    found = 0
    for name, checker in checks.items():
        for path in sorted(root.rglob(name)):
            print(f"checking {path}")
            rc |= checker(path)
            found += 1
    obs_found = 0
    for path in sorted(root.rglob("OBS_*.json")):
        print(f"checking {path}")
        rc |= check_obs(path)
        obs_found += 1
    if require_obs and obs_found == 0:
        rc |= fail(f"--require-obs set but no OBS_*.json found under {root}")
    if found == 0:
        return fail(f"no BENCH_*.json files found under {root}")
    if rc == 0:
        print(f"perf smoke: {found + obs_found} file(s) ok")
    return rc


if __name__ == "__main__":
    sys.exit(main())
