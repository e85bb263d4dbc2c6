#!/usr/bin/env python3
"""Compare nnnbench results from two commits against BENCHMARK.json bounds.

    python3 bench/e2e/compare.py --base base/*.json --head head/*.json

Each input is a file written by `nnnbench --json FILE`, or a captured
standard output of nnnbench (its header names the workload and seed,
its last line holds the metrics). For every workload x metric found on
both sides it prints the median and quartiles of each side, the change
of the median, the win fraction over runs paired by seed (by order when
seeds do not match), and a verdict against the metric's bound:

  improved    the head wins >= 90% of pairs and the medians differ by
              more than the base's quartile spread (or the spread is
              wider than the bound but every head run beats every base
              run)
  ok          the head's median is not worse by more than the bound
  regressed   the head's median is worse by more than the bound
  unresolved  the run-to-run spread (IQR / median, either side) is wider
              than the bound, so "no worse" cannot be told from noise

Metrics without a bound (per-layer metrics) are reported with verdict
"info". Exit status is 1 when any pair is regressed or unresolved.
Python standard library only.
"""

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

HEADER = re.compile(r"^== nnnbench (\S+)\s+seed (\d+)")


def load(path):
    """(workload, seed, {metric: (value, unit)}) from one result file."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
        workload = doc["workload"]
        seed = doc.get("provenance", {}).get("seed")
    except (json.JSONDecodeError, KeyError, TypeError):
        lines = [line for line in text.splitlines() if line.strip()]
        match = next((HEADER.match(l) for l in lines if HEADER.match(l)), None)
        if match is None or not lines:
            raise ValueError(f"{path}: not an nnnbench result")
        workload, seed = match.group(1), int(match.group(2))
        doc = json.loads(lines[-1])
    metrics = {name: (m["value"], m["unit"])
               for name, m in doc["metrics"].items()}
    return workload, seed, metrics


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def paired(base, head):
    """Index pairs matched by seed when the seed sets agree, else by order."""
    base_seeds = [seed for seed, _ in base]
    head_seeds = [seed for seed, _ in head]
    if None not in base_seeds and sorted(base_seeds) == sorted(head_seeds):
        by_seed = {seed: value for seed, value in head}
        return [(value, by_seed[seed]) for seed, value in base]
    return list(zip([v for _, v in base], [v for _, v in head]))


def verdict(base, head, bound, lower_better):
    """Classify one workload x metric; returns (verdict, fields)."""
    b = [v for _, v in base]
    h = [v for _, v in head]
    b_med, h_med = statistics.median(b), statistics.median(h)
    b_q1, b_q3 = quartiles(b)
    h_q1, h_q3 = quartiles(h)
    better = (lambda x, y: x < y) if lower_better else (lambda x, y: x > y)
    pairs = paired(base, head)
    wins = sum(1 for bv, hv in pairs if better(hv, bv))
    win_frac = wins / len(pairs) if pairs else 0.0
    change = (h_med - b_med) / b_med if b_med else 0.0
    worse = change if lower_better else -change
    spread = max((b_q3 - b_q1) / b_med if b_med else 0.0,
                 (h_q3 - h_q1) / h_med if h_med else 0.0)
    all_better = all(better(hv, bv) for hv in h for bv in b)
    fields = dict(base=(b_med, b_q1, b_q3), head=(h_med, h_q1, h_q3),
                  change=change, win_frac=win_frac, spread=spread)
    if bound is None:
        return "info", fields
    if spread > bound:
        return ("improved" if all_better else "unresolved"), fields
    if worse > bound:
        return "regressed", fields
    if win_frac >= 0.9 and abs(h_med - b_med) > (b_q3 - b_q1) and worse < 0:
        return "improved", fields
    return "ok", fields


def main():
    here = Path(__file__).resolve().parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True,
                        help="result files of the parent commit")
    parser.add_argument("--head", nargs="+", required=True,
                        help="result files of the change")
    parser.add_argument("--benchmark", default=str(here.parents[1] /
                                                   "BENCHMARK.json"),
                        help="bounds and directions (default: repo root)")
    args = parser.parse_args()

    spec = json.loads(Path(args.benchmark).read_text())
    bounds = {m["name"]: m for m in spec.get("end_to_end", [])}
    directions = {m["name"]: m["better"] for m in
                  spec.get("end_to_end", []) + spec.get("per_layer", [])}

    sides = {}
    for side, paths in (("base", args.base), ("head", args.head)):
        for path in paths:
            workload, seed, metrics = load(path)
            for name, (value, unit) in metrics.items():
                key = (workload, name)
                sides.setdefault(key, {"unit": unit, "base": [], "head": []})
                sides[key][side].append((seed, value))

    print(f"{'workload':<14} {'metric':<26} {'unit':<6} {'base median [q1, q3]':>32} "
          f"{'head median [q1, q3]':>32} {'change':>8} {'wins':>5} "
          f"{'spread':>7} {'bound':>6}  verdict")
    failing = 0
    for (workload, name), data in sorted(sides.items()):
        if not data["base"] or not data["head"] or name not in directions:
            continue
        bound = bounds[name]["bound"] if name in bounds else None
        result, f = verdict(data["base"], data["head"], bound,
                            directions[name] == "lower")
        failing += result in ("regressed", "unresolved")
        fmt = lambda t: f"{t[0]:.5g} [{t[1]:.5g}, {t[2]:.5g}]"
        print(f"{workload:<14} {name:<26} {data['unit']:<6} "
              f"{fmt(f['base']):>32} {fmt(f['head']):>32} "
              f"{100 * f['change']:>+7.2f}% {f['win_frac']:>5.2f} "
              f"{100 * f['spread']:>6.2f}% "
              f"{'-' if bound is None else f'{100 * bound:.1f}%':>6}  {result}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
