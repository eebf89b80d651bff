#!/usr/bin/env python3
"""Build the edb benchmark binary and run one of its workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload batch|query|served \
        --seed N --seconds S --trace 0|1

The binary (perfbench/*.cc) is built in Release from the checkout's own
src/ tree into $CARGO_TARGET_DIR (default .bench_build); later runs
reuse the build. Each run works in a fresh directory under the build
directory and removes it when done. A traced run (--trace 1) keeps its
spans as Chrome trace-event JSON in <build dir>/spans-<workload>.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: every end-to-end metric of
BENCHMARK.json when untraced, every per-layer metric when traced, on
every workload. A run whose metrics are not exactly that list, in the
listed units, fails without printing a result. perfbench/layers.json
says which op fills each end-to-end role on each workload, and maps
each per-layer metric to the end-to-end metric it should move.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no edb source tree (src/CMakeLists.txt) in " + root)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", src, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=False)
    r = subprocess.run(["cmake", "--build", build_dir, "--target",
                        "edb_perfbench", "-j", jobs],
                       stdout=sys.stderr, check=False)
    exe = os.path.join(build_dir, "edb_perfbench")
    if r.returncode != 0 or not os.path.isfile(exe):
        fail("build failed", 1)
    return exe


def expected_metrics(root, traced):
    """{name: unit} of the metrics BENCHMARK.json asks a run for."""
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            manifest = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return {m["name"]: m["unit"]
            for m in manifest["per_layer" if traced else "end_to_end"]}


def check_result(line, expected):
    """Why the result line does not report exactly `expected`, or
    None when it does."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    got = {k: m.get("unit") for k, m in result.get("metrics", {}).items()}
    missing = sorted(set(expected) - set(got))
    extra = sorted(set(got) - set(expected))
    units = sorted(k for k in expected if k in got and got[k] != expected[k])
    if missing or extra or units:
        return "metrics missing %s, unexpected %s, wrong unit %s" % (
            missing, extra, units)
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["batch", "query", "served"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    root = os.getcwd()
    expected = expected_metrics(root, a.trace)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.relpath(os.path.join(root, build_dir), root)
    exe = build(root, build_dir)

    work = os.path.join(build_dir, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--work-dir", work]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    if a.trace and os.path.isfile(os.path.join(work, "spans.json")):
        os.replace(os.path.join(work, "spans.json"),
                   os.path.join(build_dir, "spans-%s.json" % a.workload))
    shutil.rmtree(work, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        fail("edb_perfbench exited with code %d" % proc.returncode, 1)
    why = check_result(lines[-1], expected)
    if why:
        sys.stderr.write(out)
        fail(why, 1)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
