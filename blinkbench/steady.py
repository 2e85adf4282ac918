"""Steadiness check: run one workload over several seeds, print the spread.

    python3 blinkbench/steady.py --workload clip-verify --seeds 1-10
    python3 blinkbench/steady.py --workload train --seeds 11-20 \\
        --save a.json
    python3 blinkbench/steady.py --workload train --seeds 11-20 \\
        --against a.json

Runs ``BENCHMARK.json``'s command once per seed, one run at a time, from
the checkout root. For every end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, their
distance as a share of the median, next to the metric's bound: "steady"
below a third of the bound, "within" up to the bound, "OVER" beyond.
``--against`` compares the medians with a saved set: a median worse than
the saved one by more than the bound is marked "WORSE".
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(command, workload, seed, seconds, trace) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values) -> tuple[float, float, float, float]:
    """(q1, median, q3, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def worse_by(new: float, old: float, better: str) -> float:
    """Share by which ``new`` is worse than ``old`` (negative: better)."""
    change = (new - old) / old
    return -change if better == "higher" else change


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10",
                   help="seeds, e.g. 1-10 or 1,5,9 (default 1-10)")
    p.add_argument("--save", help="write the per-seed values to this file")
    p.add_argument("--against", help="compare medians with a saved file")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    values = {name: [] for name in metrics}
    attempted = failed = 0
    for seed in seed_list(args.seeds):
        start = time.perf_counter()
        result = run_once(bench["command"], args.workload, seed, seconds, 0)
        attempted += result["attempted"]
        failed += result["failed"]
        got = result["metrics"]
        for name in metrics:
            if name in got:
                values[name].append(got[name]["value"])
        print(f"seed {seed}: {time.perf_counter() - start:.1f} s, "
              f"correct={result['correct']} " + " ".join(
                  f"{k}={v['value']:.5g}" for k, v in sorted(got.items())),
              flush=True)

    saved = {}
    if args.against:
        with open(args.against) as f:
            saved = json.load(f)["values"]
    print(f"\n{args.workload}: {attempted} operations attempted, "
          f"{failed} failed, run_seconds={seconds}")
    print(f"{'metric':14s} {'unit':8s} {'n':>3s} {'q1':>10s} {'median':>10s}"
          f" {'q3':>10s} {'spread':>7s} {'bound':>6s}  verdict")
    ok = failed == 0
    for name, m in metrics.items():
        vals = values[name]
        if len(vals) < 2:
            print(f"{name:14s} {m['unit']:8s} {len(vals):3d}  too few values")
            ok = False
            continue
        q1, med, q3, s = spread(vals)
        verdict = ("steady" if s < m["bound"] / 3 else
                   "within" if s <= m["bound"] else "OVER")
        ok = ok and verdict != "OVER"
        line = (f"{name:14s} {m['unit']:8s} {len(vals):3d} {q1:10.5g} "
                f"{med:10.5g} {q3:10.5g} {s:7.3f} {m['bound']:6.2f}  "
                f"{verdict}")
        if name in saved and len(saved[name]) >= 2:
            drift = worse_by(med, statistics.median(saved[name]), m["better"])
            worse = drift > m["bound"]
            ok = ok and not worse
            line += f"  vs saved: {drift:+.3f} {'WORSE' if worse else 'ok'}"
        print(line)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "values": values}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
