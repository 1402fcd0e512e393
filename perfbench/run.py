#!/usr/bin/env python3
"""Run one workload of the ldx benchmark and print its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds perfbench/ (a CMake package
that compiles the library from src/) into .bench_build/ on first use,
runs the ldxbench binary for one workload in its own process, checks
the determinism guard, and prints the driver's detail line followed by
the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170
WORKLOADS = ("dual-lockstep", "campaign-cold", "serve-mixed")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(root):
    """Configure (once) and build ldxbench; returns its path."""
    src = os.path.join(root, "src", "CMakeLists.txt")
    if not os.path.isfile(src):
        fail("no library sources at src/ (run from the repository root)")
    pkg = os.path.join(root, "perfbench")
    out = os.path.join(root, BUILD_DIR)
    jobs = str(min(4, os.cpu_count() or 1))
    log = sys.stderr
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", pkg, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", out, "--target", "ldxbench",
                    "-j", jobs], check=True, stdout=log, stderr=log)
    return os.path.join(out, "ldxbench")


def metric_units(root, section):
    """{name: unit} of one BENCHMARK.json section (None without one)."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def determinism_guard(root, binary, args, det):
    """Fail when an earlier run of this binary with the same seed
    disagrees (a rebuilt binary starts a fresh record)."""
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    state = os.path.join(root, BUILD_DIR, "determinism", build_id)
    os.makedirs(state, exist_ok=True)
    path = os.path.join(state, "%s-seed%d-s%d.json" %
                        (args.workload, args.seed, args.seconds))
    if os.path.isfile(path):
        with open(path) as f:
            before = json.load(f)
        if before != det:
            fail("determinism guard: seed %d gave %s, an earlier run gave %s"
                 % (args.seed, json.dumps(det), json.dumps(before)))
    else:
        with open(path, "w") as f:
            json.dump(det, f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    try:
        binary = build(root)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--corpus-dir", os.path.join("src", "workloads", "corpus"),
           "--run-dir", BUILD_DIR]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            BUILD_DIR, "trace-%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        fail("ldxbench exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("ldxbench printed nothing")
    out = json.loads(lines[-1])

    determinism_guard(root, binary, args, out["determinism"])

    section = "per_layer" if args.trace else "end_to_end"
    measured = out[section]
    units = metric_units(root, section) or {
        k: v["unit"] for k, v in measured.items()}
    metrics = {}
    for name, unit in units.items():
        if name in measured:
            metrics[name] = measured[name]
        elif args.trace:
            # A layer this workload never loads reads zero.
            metrics[name] = {"value": 0.0, "unit": unit}
        else:
            fail("ldxbench did not report %s" % name)

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "determinism": out["determinism"],
                      "detail": out["detail"],
                      "other_metrics": {k: v for k, v in measured.items()
                                        if k not in metrics}}))
    print(json.dumps({"correct": bool(out["correct"]),
                      "attempted": int(out["attempted"]),
                      "failed": int(out["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
