#!/usr/bin/env python3
"""Bench regression gate: compare fresh BENCH_*.json output against the
checked-in bench/baseline.json.

Five classes of metric, treated differently:

* wall-clock (``detector_check_ordered``) — the epoch fast-path kernel
  cost, the headline perf claim. Absolute ns/op depends on the machine, so
  the gate scores the *speedup* of the epoch path over the full-VC oracle
  measured in the same run (machine speed cancels) and fails when the mean
  speedup across clock widths drops more than the threshold (default 25%)
  below the baseline's.
* recording overhead (``record_op_wall``) — same machine-cancelling trick:
  the gated quantity is the ratio of the recorded config's ns/op to the
  matching unrecorded config's ns/op from the same run. Fails when the
  fresh record/off ratio exceeds the baseline ratio by more than
  --record-threshold (default 50% — threaded wall clock is noisy).
* virtual-time / wire metrics (entries named ``*_virtual`` and every
  ``bytes_per_op``) — pure simulator outputs, deterministic per seed, so
  ANY drift is a semantic change (protocol message count, clock wire
  format, event-log encoding) and fails exactly. Refresh the baseline when
  the change is intentional. ``piggyback_clock_bytes`` falls in this
  class: the delta-compressed dual-clock wire cost is a function of the
  codec alone, so its bytes/op must match the baseline exactly.
* shard scaling (``detect_shard_scaling``) — 8-thread contended ns/op at
  1, 2 and 8 shards from the same run. Fails when 8 shards is slower than
  2 shards by more than the slack allows (default: 8-shard throughput
  must stay >= 85% of 2-shard). Absolute within-run gate, no baseline
  needed; on few-core CI boxes more shards cannot help much, but they
  must not hurt.
* registration scaling (``detect_registration``) — amortized ns/area for
  the full registration path (PublicSegment index insert + detector
  register_area) at 16k vs 10^6 areas, same run. Fails when the large/small
  ratio exceeds the ceiling (default 10.0): a return to the O(n) sorted-
  vector insert shows up as a ratio in the hundreds, while cache effects
  on a healthy amortized path stay single-digit.

Both commands accept several JSON files (one per bench binary); their
entries are merged before comparing or refreshing.

Usage:
  tools/bench_gate.py compare build/BENCH_overhead.json build/BENCH_record_overhead.json
                              build/BENCH_detect_scale.json
                              [--baseline bench/baseline.json] [--threshold 0.25]
                              [--record-threshold 0.5]
                              [--shard-slack 0.85] [--registration-ceiling 10.0]
  tools/bench_gate.py refresh build/BENCH_overhead.json build/BENCH_record_overhead.json
                              build/BENCH_detect_scale.json
                              [--baseline bench/baseline.json]

Exit status: 0 pass, 1 regression, 2 usage/IO error.
"""

import argparse
import json
import sys


def entry_key(entry):
    return (entry["name"], tuple(sorted(entry["params"].items())))


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_gate: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    if "entries" not in data or not data["entries"]:
        print(f"bench_gate: {path} has no bench entries", file=sys.stderr)
        sys.exit(2)
    return {entry_key(e): e for e in data["entries"]}


def load_merged(paths):
    merged = {}
    for path in paths:
        for key, entry in load(path).items():
            if key in merged:
                print(f"bench_gate: duplicate entry {key[0]} {dict(key[1])} "
                      f"in {path}", file=sys.stderr)
                sys.exit(2)
            merged[key] = entry
    return merged


def is_deterministic_virtual(key):
    name, _ = key
    return name.endswith("_virtual")


def epoch_speedups(entries):
    """Per clock width n: oracle ns/op ÷ epoch ns/op from the same run."""
    by_path = {}
    for (name, params), entry in entries.items():
        if name != "detector_check_ordered":
            continue
        p = dict(params)
        by_path.setdefault(p["n"], {})[p["path"]] = entry["ns_per_op"]
    return {n: paths["oracle"] / paths["epoch"]
            for n, paths in by_path.items()
            if "oracle" in paths and "epoch" in paths and paths["epoch"] > 0}


def shard_scaling_ns(entries):
    """Contended ns/op keyed by shard count (int), from detect_shard_scaling."""
    return {int(dict(params)["shards"]): entry["ns_per_op"]
            for (name, params), entry in entries.items()
            if name == "detect_shard_scaling"}


def registration_ns(entries):
    """Registration ns/area keyed by area count (int), from detect_registration."""
    return {int(dict(params)["areas"]): entry["ns_per_op"]
            for (name, params), entry in entries.items()
            if name == "detect_registration"}


def record_ratios(entries):
    """Recorded ns/op ÷ unrecorded ns/op, per base config, from the same run."""
    by_config = {}
    for (name, params), entry in entries.items():
        if name != "record_op_wall":
            continue
        by_config[dict(params)["config"]] = entry["ns_per_op"]
    return {base: by_config[f"{base}+record"] / by_config[base]
            for base in ("off", "dual-clock")
            if by_config.get(base, 0) > 0 and f"{base}+record" in by_config}


def compare(args):
    fresh = load_merged(args.json)
    baseline = load(args.baseline)
    failures = []

    missing = [k for k in baseline if k not in fresh]
    if missing:
        for k in missing:
            failures.append(f"baseline entry disappeared: {k[0]} {dict(k[1])}")

    for key, base in baseline.items():
        if key not in fresh:
            continue
        now = fresh[key]
        name, params = key
        if is_deterministic_virtual(key):
            if now["ns_per_op"] != base["ns_per_op"]:
                failures.append(
                    f"{name} {dict(params)}: virtual ns drifted "
                    f"{base['ns_per_op']} -> {now['ns_per_op']} (deterministic metric; "
                    f"refresh the baseline if intentional)")
        if now.get("bytes_per_op", 0) != base.get("bytes_per_op", 0):
            failures.append(
                f"{name} {dict(params)}: bytes/op drifted "
                f"{base.get('bytes_per_op')} -> {now.get('bytes_per_op')} "
                f"(wire-format metric; refresh the baseline if intentional)")

    base_speedups = epoch_speedups(baseline)
    fresh_speedups = epoch_speedups(fresh)
    shared = sorted(set(base_speedups) & set(fresh_speedups), key=int)
    if not shared:
        failures.append("no epoch-vs-oracle entry pairs found to gate on")
    else:
        for n in shared:
            print(f"epoch speedup at n={n}: baseline x{base_speedups[n]:.1f}, "
                  f"now x{fresh_speedups[n]:.1f}")
        base_mean = sum(base_speedups[n] for n in shared) / len(shared)
        fresh_mean = sum(fresh_speedups[n] for n in shared) / len(shared)
        floor = base_mean * (1.0 - args.threshold)
        print(f"epoch fast path mean speedup: baseline x{base_mean:.1f}, "
              f"now x{fresh_mean:.1f} (floor x{floor:.1f})")
        if fresh_mean < floor:
            failures.append(
                f"epoch fast path regressed: mean speedup x{fresh_mean:.1f} "
                f"fell below x{floor:.1f} (-{args.threshold:.0%} of baseline)")

    base_ratios = record_ratios(baseline)
    fresh_ratios = record_ratios(fresh)
    if base_ratios:
        shared = sorted(set(base_ratios) & set(fresh_ratios))
        if not shared:
            failures.append("baseline has record_op_wall entries but no "
                            "record/plain ratio pairs found in fresh output")
        for config in shared:
            ceiling = base_ratios[config] * (1.0 + args.record_threshold)
            print(f"recording overhead on {config}: baseline "
                  f"x{base_ratios[config]:.2f}, now x{fresh_ratios[config]:.2f} "
                  f"(ceiling x{ceiling:.2f})")
            if fresh_ratios[config] > ceiling:
                failures.append(
                    f"recording overhead regressed on {config}: "
                    f"x{fresh_ratios[config]:.2f} exceeds x{ceiling:.2f} "
                    f"(+{args.record_threshold:.0%} of baseline)")

    shards = shard_scaling_ns(fresh)
    if shards:
        if shards.get(2, 0) > 0 and 8 in shards:
            ceiling = shards[2] / args.shard_slack
            print(f"shard scaling, 8 threads contended: 2 shards "
                  f"{shards[2]:.1f} ns/op, 8 shards {shards[8]:.1f} ns/op "
                  f"(ceiling {ceiling:.1f})")
            if shards[8] > ceiling:
                failures.append(
                    f"8-shard contended throughput fell below "
                    f"{args.shard_slack:.0%} of 2-shard: {shards[8]:.1f} ns/op "
                    f"exceeds {ceiling:.1f} ns/op")
        else:
            failures.append("detect_shard_scaling entries present but the "
                            "2- and 8-shard pair needed to gate is missing")

    reg = registration_ns(fresh)
    if reg:
        small, large = min(reg), max(reg)
        if small != large and reg[small] > 0:
            ratio = reg[large] / reg[small]
            print(f"registration amortization: {small} areas "
                  f"{reg[small]:.1f} ns/area, {large} areas {reg[large]:.1f} "
                  f"ns/area (ratio x{ratio:.1f}, ceiling "
                  f"x{args.registration_ceiling:.1f})")
            if ratio > args.registration_ceiling:
                failures.append(
                    f"registration stopped amortizing: {large}-area cost is "
                    f"x{ratio:.1f} the {small}-area cost (ceiling "
                    f"x{args.registration_ceiling:.1f})")
        else:
            failures.append("detect_registration needs two distinct area "
                            "counts to gate on")

    for failure in failures:
        print(f"BENCH GATE FAILURE: {failure}", file=sys.stderr)
    if failures:
        print("(refresh with: tools/bench_gate.py refresh <json>)", file=sys.stderr)
        return 1
    print("bench gate: OK")
    return 0


def refresh(args):
    merged = load_merged(args.json)  # validate before overwriting the baseline.
    data = {"bench": "baseline",
            "entries": [merged[key] for key in sorted(merged)]}
    try:
        with open(args.baseline, "w") as f:
            json.dump(data, f, indent=1)
            f.write("\n")
    except OSError as err:
        print(f"bench_gate: cannot write {args.baseline}: {err}", file=sys.stderr)
        sys.exit(2)
    print(f"bench_gate: baseline refreshed from {' '.join(args.json)} "
          f"-> {args.baseline}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("command", choices=["compare", "refresh"])
    parser.add_argument("json", nargs="+",
                        help="fresh BENCH_*.json file(s) to evaluate, merged")
    parser.add_argument("--baseline", default="bench/baseline.json")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional regression of the epoch fast path")
    parser.add_argument("--record-threshold", type=float, default=0.5,
                        help="allowed fractional growth of the record/plain "
                             "wall-clock ratio")
    parser.add_argument("--shard-slack", type=float, default=0.85,
                        help="minimum fraction of 2-shard contended "
                             "throughput that 8 shards must retain")
    parser.add_argument("--registration-ceiling", type=float, default=10.0,
                        help="maximum large/small ns-per-area ratio for "
                             "detect_registration")
    args = parser.parse_args()
    sys.exit(compare(args) if args.command == "compare" else refresh(args))


if __name__ == "__main__":
    main()
