#!/usr/bin/env python3
"""Builds and runs the ACTOR end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n>
        --seconds <s> --trace <0|1>

The first call builds perfbench/ (which compiles the library from src/) into
.bench_build/perfbench; later calls reuse the build. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. Build logs go to standard error.

A traced run also needs the untraced result of the same build, workload, seed
and length to report trace.overhead_ratio; it runs that first when no earlier
run left it. Spans of traced runs are written to .bench_build/perfbench/traces.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "actor_perfbench")
# Each workload's headline metric, and whether higher is better; the traced
# run's slowdown on it is trace.overhead_ratio.
PRIMARY = {
    "ingest_catchup": ("ingest_records_per_s", True),
    "serve_mixed": ("query_p50_ms", False),
    "offline_train": ("train_s", False),
}
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources at", os.path.join(ROOT, "src"))
        return False
    os.makedirs(BUILD, exist_ok=True)
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    make = ["cmake", "--build", BUILD, "--target", "actor_perfbench",
            "-j", str(os.cpu_count() or 1)]
    run = lambda cmd: subprocess.run(cmd, stdout=sys.stderr).returncode == 0
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # An existing build re-runs its own configure step when needed.
        if os.path.exists(os.path.join(BUILD, "CMakeCache.txt")) and run(make):
            return True
        # No build yet, or one left by a checkout at another path.
        shutil.rmtree(BUILD + "/CMakeFiles", ignore_errors=True)
        if os.path.exists(BUILD + "/CMakeCache.txt"):
            os.remove(BUILD + "/CMakeCache.txt")
        return run(configure) and run(make)


def build_id():
    digest = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def run_binary(args, trace, detail, state_dir, spans=None, quiet=False):
    cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % trace,
           "--detail_out=" + detail, "--state_dir=" + state_dir]
    if spans:
        cmd.append("--spans_out=" + spans)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line, file=sys.stderr if quiet else sys.stdout)
    if proc.returncode != 0:
        log("perfbench: benchmark exited with", proc.returncode)
        return None
    return json.loads(lines[-1])


def check_names(result, trace):
    """The metrics must be exactly those BENCHMARK.json declares."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return True
    with open(spec_path) as f:
        spec = json.load(f)
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    have = set(result["metrics"])
    if want != have:
        log("perfbench: metrics differ from BENCHMARK.json:",
            sorted(want ^ have))
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PRIMARY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not build():
        return 2

    bid = build_id()
    state_dir = os.path.join(BUILD, "state", bid)
    results = os.path.join(BUILD, "results", bid)
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-%d-%d" % (args.workload, args.seed,
                                               args.seconds))
    untraced_detail = stem + "-t0.json"
    if args.trace == 0:
        result = run_binary(args, 0, untraced_detail, state_dir)
    else:
        if not os.path.exists(untraced_detail):
            log("perfbench: untraced run for trace.overhead_ratio")
            if run_binary(args, 0, untraced_detail, state_dir,
                          quiet=True) is None:
                return 1
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        result = run_binary(
            args, 1, stem + "-t1.json", state_dir,
            spans=os.path.join(traces, "%s-%d.tsv" % (args.workload,
                                                      args.seed)))
        if result is not None:
            with open(untraced_detail) as f:
                untraced = json.load(f)
            with open(stem + "-t1.json") as f:
                traced = json.load(f)
            name, higher = PRIMARY[args.workload]
            off, on = untraced[name]["value"], traced[name]["value"]
            ratio = (off / on if higher else on / off) if off and on else 0.0
            result["metrics"]["trace.overhead_ratio"] = {"value": ratio,
                                                         "unit": "ratio"}
            print("%-36s %16.6g %-6s (%s traced / untraced)" % (
                "trace.overhead_ratio", ratio, "ratio", name))
    if result is None or not check_names(result, args.trace):
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
