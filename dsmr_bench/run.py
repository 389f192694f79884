#!/usr/bin/env python3
"""Builds and runs the dsmr benchmark for one workload, and reports it as JSON.

    python3 dsmr_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 dsmr_bench/run.py --smoke

The first form builds the benchmark from the sources in this checkout
(CMake, into .bench_build at the repository root), runs the dsmr_bench
binary on one workload, passes its lines through, and prints as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}. The
metrics are the end_to_end metrics of BENCHMARK.json with --trace 0, and its
per_layer metrics with --trace 1 (the run then also writes a Chrome trace to
.bench_build/trace-<workload>-seed<N>.json and checks it). Exit status: 0
when every check passed, 1 when one failed, 2 (and no JSON line) when the
build or the run could not produce a result.

--smoke runs all workloads at tiny sizes with tracing on and checks the
benchmark itself: every metric BENCHMARK.json names prints exactly once per
workload with its unit, and the trace parses, every span lies inside its
parent, and each traced run's op histograms hold exactly its op count.

Python standard library only.
"""
import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "dsmr_bench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def run_command(cmd, timeout, capture):
    """Runs cmd in its own process group; kills the whole group on timeout.

    Returns (exit code or None on timeout, captured stdout or "")."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, ""
    return proc.returncode, out or ""


def build():
    steps = [["cmake", "--build", BUILD, "--target", "dsmr_bench", "-j", "4"]]
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        code, _ = run_command(step, BUILD_TIMEOUT_S, capture=False)
        if code != 0:
            die(f"build step failed ({'timeout' if code is None else code}): {' '.join(step)}")


def parse_lines(stdout):
    """{workload: {metric: [(value, unit), ...]}} from the binary's metric lines."""
    out = {}
    for line in stdout.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split()
        try:
            workload, name, value, unit = parts[0], parts[1], float(parts[2]), parts[3]
        except (IndexError, ValueError):
            die(f"malformed line: {line!r}")
        out.setdefault(workload, {}).setdefault(name, []).append((value, unit))
    return out


def check_trace(path):
    """Failure messages for the trace file at `path` (empty when it is sound)."""
    try:
        with open(path) as f:
            trace = json.load(f)
        spans = {(e["pid"], e["args"]["id"]): e for e in trace["traceEvents"] if e.get("ph") == "X"}
        runs = trace["otherData"]["runs"]
    except (OSError, ValueError, KeyError, TypeError) as error:
        return [f"trace {path} does not parse: {error!r}"]
    failures = []
    for (pid, _), event in spans.items():
        args = event["args"]
        if args["end_ns"] < args["start_ns"]:
            failures.append(f"span {event['name']} ends before it starts")
        if args["parent"] == 0:
            continue
        parent = spans.get((pid, args["parent"]))
        if parent is None:
            failures.append(f"span {event['name']} names a missing parent")
        elif not (parent["args"]["start_ns"] <= args["start_ns"]
                  and args["end_ns"] <= parent["args"]["end_ns"]):
            failures.append(f"span {event['name']} is not inside its parent {parent['name']}")
    for run in runs:
        if run["op_hist_count"] != run["ops"]:
            failures.append(f"{run['workload']} (pid {run['pid']}): op histograms hold "
                            f"{run['op_hist_count']} samples for {run['ops']} ops")
    return failures[:20]


def smoke(spec):
    build()
    trace_path = os.path.join(BUILD, "trace-smoke.json")
    code, stdout = run_command([BINARY, "--workload", "all", "--seed", "1", "--smoke",
                                "--trace", trace_path], RUN_TIMEOUT_S, capture=True)
    sys.stdout.write(stdout)
    failures = [] if code == 0 else [f"dsmr_bench --smoke exited {code}"]
    lines = parse_lines(stdout)
    names = [w["name"] for w in spec["workloads"]]
    if sorted(lines) != sorted(names):
        failures.append(f"workloads printed {sorted(lines)}, BENCHMARK.json has {sorted(names)}")
    for workload in names:
        printed = lines.get(workload, {})
        for metric in spec["end_to_end"] + spec["per_layer"]:
            seen = printed.get(metric["name"], [])
            if len(seen) != 1:
                failures.append(f"{workload} {metric['name']} printed {len(seen)} times")
            elif seen[0][1] != metric["unit"]:
                failures.append(f"{workload} {metric['name']} has unit {seen[0][1]}, "
                                f"BENCHMARK.json says {metric['unit']}")
            elif not math.isfinite(seen[0][0]):
                failures.append(f"{workload} {metric['name']} is not finite")
        failed = printed.get("checks.failed", [(1, "")])[0][0]
        if failed != 0:
            failures.append(f"{workload}: {failed:g} check(s) failed")
    failures += check_trace(trace_path)
    for failure in failures:
        print(f"SMOKE FAILED: {failure}")
    print("smoke OK" if not failures else f"smoke: {len(failures)} failure(s)")
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        die(f"cannot read BENCHMARK.json: {error}")
    if args.smoke:
        return smoke(spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown --workload {args.workload!r}")
    if args.seed < 0:
        die("--seed must be non-negative")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(float(seconds))]
    trace_path = os.path.join(BUILD, f"trace-{args.workload}-seed{args.seed}.json")
    if args.trace:
        cmd += ["--trace", trace_path]
    code, stdout = run_command(cmd, RUN_TIMEOUT_S, capture=True)
    sys.stdout.write(stdout)
    if code not in (0, 1):
        die(f"dsmr_bench exited {'on timeout' if code is None else code}")
    printed = parse_lines(stdout).get(args.workload, {})

    def value(name):
        seen = printed.get(name, [])
        if len(seen) != 1 or not math.isfinite(seen[0][0]):
            die(f"dsmr_bench printed {name} {len(seen)} times or not as a finite number")
        return seen[0]

    attempted = int(value("checks.attempted")[0])
    failed = int(value("checks.failed")[0])
    if args.trace:
        trace_failures = check_trace(trace_path)
        for failure in trace_failures:
            print(f"# FAILED {failure}")
        attempted += 1
        failed += 1 if trace_failures else 0
    metrics = {}
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        number, unit = value(metric["name"])
        if unit != metric["unit"]:
            die(f"{metric['name']} printed in {unit}, BENCHMARK.json says {metric['unit']}")
        metrics[metric["name"]] = {"value": number, "unit": unit}
    correct = code == 0 and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
