#!/usr/bin/env python3
"""Compares two sets of dsmr_bench results, metric by metric.

    python3 dsmr_bench/compare.py --base a/*.txt --change b/*.txt [--bench BENCHMARK.json]

Each result file is the standard output of one run (`run.py ...` or
`dsmr_bench ...`): its `<workload> <metric> <value> <unit>` lines, the
`# dsmr_bench workload=... seed=...` header, anything else ignored. A file
may hold several workloads. A directory stands for the files in it.

For every (workload, metric) both sets report, it prints each side's median
and quartiles, the share of pairs the change wins (runs are paired by seed,
then by order; ties count for neither side), and a verdict:

  better      the change wins at least 9 of 10 pairs and its median beats
              the base median by more than the base's own quartile spread;
  worse       the change's median is worse than the base's by more than the
              metric's bound (end-to-end metrics); for per-layer metrics,
              which have no bound, the mirror image of "better";
  unresolved  either side's quartile spread, as a share of its median,
              exceeds the bound, unless every change run beats every base
              run (then "better");
  same        otherwise.

It also flags any exact count (a metric that repeats exactly for a given
seed, listed in EXACT below) that differs between the sets on the same seed.
Exit status: 0, or 1 when a metric is worse or an exact count differs.
Python standard library only.
"""
import argparse
import json
import os
import statistics
import sys

# Metrics that repeat exactly for a given (workload, seed) on one commit.
EXACT = {
    "runtime.checks_per_op", "net.messages_per_op", "detect.resident_clock_bytes",
    "record.events_per_op", "record.bytes_per_event",
    "sim.events_per_world", "sim.races_per_world", "nic.data_path_messages_per_world",
    "explore.interleavings", "explore.transitions", "explore.sleep_blocked",
    "explore.pruned_branches", "explore.useful_frac",
}


def files_of(paths):
    out = []
    for path in paths:
        if os.path.isdir(path):
            out += sorted(os.path.join(path, name) for name in os.listdir(path))
        else:
            out.append(path)
    return out


def read_runs(paths):
    """[(workload, seed, {metric: value})], one entry per workload per file."""
    runs = []
    for path in files_of(paths):
        current = {}
        seeds = {}
        with open(path) as f:
            for line in f:
                if line.startswith("# dsmr_bench "):
                    fields = dict(kv.split("=", 1) for kv in line.split()[2:] if "=" in kv)
                    seeds[fields.get("workload")] = int(fields.get("seed", -1))
                    continue
                parts = line.split()
                if not parts or line.startswith("#") or line.startswith("{") or len(parts) < 4:
                    continue
                try:
                    current.setdefault(parts[0], {})[parts[1]] = float(parts[2])
                except ValueError:
                    continue
        for workload, metrics in current.items():
            runs.append((workload, seeds.get(workload, -1), metrics))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair_up(base, change):
    """Pairs (base value, change value) by seed, then by order within a seed."""
    by_seed = {}
    for seed, value in base:
        by_seed.setdefault(seed, [[], []])[0].append(value)
    for seed, value in change:
        by_seed.setdefault(seed, [[], []])[1].append(value)
    pairs = []
    for seed in sorted(by_seed):
        a, b = by_seed[seed]
        pairs += list(zip(a, b))
    if not pairs:  # no common seeds: pair by order
        pairs = list(zip([v for _, v in base], [v for _, v in change]))
    return pairs


def verdict(a, b, pairs, lower_is_better, bound):
    """One of better / worse / same / unresolved (see the module docstring)."""
    sign = -1 if lower_is_better else 1
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    base_iqr = a_q3 - a_q1
    gain = sign * (b_med - a_med)
    all_better = min(sign * v for v in b) > max(sign * v for v in a)
    if bound is not None:
        spread = max((a_q3 - a_q1) / abs(a_med) if a_med else 0,
                     (b_q3 - b_q1) / abs(b_med) if b_med else 0)
        if spread > bound:
            return wins, "better" if all_better else "unresolved"
    if pairs and wins >= 0.9 * len(pairs) and gain > base_iqr:
        return wins, "better"
    if bound is not None:
        return wins, "worse" if -gain > bound * abs(a_med) else "same"
    if pairs and losses >= 0.9 * len(pairs) and -gain > base_iqr:
        return wins, "worse"
    return wins, "same"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    here = os.path.dirname(os.path.abspath(__file__))
    parser.add_argument("--bench", default=os.path.join(os.path.dirname(here), "BENCHMARK.json"))
    parser.add_argument("--base", nargs="+", required=True, help="result files of the parent")
    parser.add_argument("--change", nargs="+", required=True, help="result files of the change")
    args = parser.parse_args()
    with open(args.bench) as f:
        spec = json.load(f)
    metrics = [(m, m.get("bound")) for m in spec["end_to_end"]] + \
              [(m, None) for m in spec["per_layer"]]
    base, change = read_runs(args.base), read_runs(args.change)

    bad = 0
    print(f"{'workload':17} {'metric':32} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>6}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric, bound in metrics:
            name = metric["name"]
            a = [(seed, m[name]) for w, seed, m in base if w == workload and name in m]
            b = [(seed, m[name]) for w, seed, m in change if w == workload and name in m]
            if not a or not b:
                continue
            pairs = pair_up(a, b)
            wins, word = verdict([v for _, v in a], [v for _, v in b], pairs,
                                 metric["better"] == "lower", bound)
            aq, bq = quartiles([v for _, v in a]), quartiles([v for _, v in b])
            if name in EXACT:
                a_by_seed = {}
                for seed, v in a:
                    a_by_seed.setdefault(seed, set()).add(v)
                if any(v not in a_by_seed.get(seed, {v}) for seed, v in b):
                    word += "  EXACT COUNT DIFFERS"
            bad += word.startswith("worse") or "DIFFERS" in word
            print(f"{workload:17} {name:32} {aq[1]:>12.6g} [{aq[0]:.4g}, {aq[2]:.4g}]"
                  f"{'':>2}{bq[1]:>12.6g} [{bq[0]:.4g}, {bq[2]:.4g}]"
                  f" {wins:>2}/{len(pairs):<3}  {word}")
    print(f"{bad} metric(s) worse or with a differing exact count")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
