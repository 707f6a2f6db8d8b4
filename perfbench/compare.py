#!/usr/bin/env python3
"""Diff two benchmark results files workload by workload, metric by metric.

    python3 perfbench/compare.py perfbench/results/bench-parent.json \\
                                 perfbench/results/bench-change.json

Both files come from `perfbench/run.py --repeats N --label ...` run with the
same seeds and run length.  Each (workload, metric) pair gets one row and a
label:

- worse:      the change's median is worse than the parent's by more than the
              metric's bound;
- improved:   better by more than the parent's own quartile spread, and the
              change wins at least nine in ten seed-paired runs;
- unchanged:  neither;
- unresolved: the run-to-run spread (quartile distance over median) of either
              side is wider than the bound, and the runs do not all order one
              way;
- differs:    a deterministic output (loss_final, delta_psnr_db) moved by more
              than its tolerance on some seed both files ran.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# reported beside the gated metrics of BENCHMARK.json: name -> (unit, better, bound);
# "same" marks a deterministic output, its bound a tolerance
# time bounds match the gated ones: the host noise is the same
EXTRA = {
    "step_ms_5f.p50": ("ms", "lower", 0.25),
    "step_ms_17f.p50": ("ms", "lower", 0.25),
    "clip_ms.p50": ("ms", "lower", 0.25),
    "encode_ms.p50": ("ms", "lower", 0.25),
    "decode_cond_ms.p50": ("ms", "lower", 0.25),
    "loss_final": ("1", "same", 2e-3),  # = workloads.TOLERANCE
    "delta_psnr_db": ("dB", "same", 1e-6),
    "failed_frac": ("ratio", "lower", 0.0),
}


def bounds() -> dict[str, tuple[str, str, float]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {**{m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}, **EXTRA}


def rel_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def label(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    """Label one metric over seed-paired runs; also return the median shift as a share of the parent's."""
    a, b = statistics.median(parent), statistics.median(change)
    shift = (b - a) / abs(a) if a else (0.0 if b == a else float("inf"))
    if better == "same":
        same = all(abs(y - x) <= bound * max(abs(x), 1.0) for x, y in zip(parent, change))
        return ("unchanged" if same else "differs"), shift
    worse_by = shift if better == "lower" else -shift  # > 0 means worse
    sign = 1 if better == "lower" else -1
    all_better = all(sign * (y - x) < 0 for x in parent for y in change)
    all_worse = all(sign * (y - x) > 0 for x in parent for y in change)
    if max(rel_spread(parent), rel_spread(change)) > bound:
        return ("improved" if all_better else "worse" if all_worse else "unresolved"), shift
    if worse_by > bound:
        return "worse", shift
    pairs = list(zip(parent, change))
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    if -worse_by > rel_spread(parent) and wins >= 0.9 * len(pairs) and -worse_by > 0:
        return "improved", shift
    return "unchanged", shift


def compare(parent: dict, change: dict) -> list[tuple]:
    rows = []
    spec = bounds()
    for wl in parent["workloads"]:
        if wl not in change["workloads"]:
            continue
        runs_a = {r["seed"]: r["end_to_end"] for r in parent["workloads"][wl]["runs"]}
        runs_b = {r["seed"]: r["end_to_end"] for r in change["workloads"][wl]["runs"]}
        seeds = sorted(set(runs_a) & set(runs_b))  # pair runs by seed; unpaired runs are left out
        for metric, (unit, better, bound) in spec.items():
            pairs = [(runs_a[s][metric], runs_b[s][metric]) for s in seeds
                     if runs_a[s].get(metric) is not None and runs_b[s].get(metric) is not None]
            a, b = [x for x, _ in pairs], [y for _, y in pairs]
            if pairs:
                verdict, shift = label(a, b, better, bound)
                rows.append((wl, metric, unit, statistics.median(a), statistics.median(b), shift,
                             max(rel_spread(a), rel_spread(b)), bound, verdict))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    parent, change = (json.loads(p.read_text()) for p in (args.parent, args.change))
    print(f"{'workload':<10} {'metric':<20} {'parent':>12} {'change':>12} {'shift':>8} "
          f"{'spread':>7} {'bound':>6}  label")
    rows = compare(parent, change)
    if not rows:
        print("no workload has a seed that both files ran")
    for wl, metric, unit, a, b, shift, spread, bound, verdict in rows:
        print(f"{wl:<10} {metric:<20} {a:>12.5g} {b:>12.5g} {shift:>+8.2%} {spread:>7.2%} "
              f"{bound:>6.1%}  {verdict}  [{unit}]")
    return 1 if any(r[-1] in ("worse", "differs") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
