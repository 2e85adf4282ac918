"""Run benchmark workloads and fail any run whose result is not clean.

For each ``WORKLOAD:SEEDS`` argument it runs the command ``BENCHMARK.json``
names (``python3 blinkbench/run.py``) with ``--workload``, ``--seed`` and
``--seconds`` set to the file's ``run_seconds``, one run at a time, from
the root of this checkout. A run passes only if all of these hold:

- it exits 0 and writes nothing to standard error;
- its last line of standard output is strict JSON (``NaN`` and
  ``Infinity`` are rejected);
- that object has ``correct`` true;
- every ``end_to_end`` metric of ``BENCHMARK.json`` is in its ``metrics``
  with a finite ``value``.

    python3 tools/benchcheck.py train:1-10 stream-detect:1-3 clip-verify:1-3

Prints one line per run and exits 1 if any run failed. It reads
``blinkbench/`` and ``BENCHMARK.json`` and writes neither, apart from the
work directory the benchmark itself uses.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def run_problems(returncode: int, stdout: str, stderr: str,
                 metric_names) -> list[str]:
    """What is wrong with one run's outcome; empty when it passes."""
    problems = []
    if returncode != 0:
        problems.append(f"exit status {returncode}")
    if stderr:
        problems.append(f"standard error not empty: {stderr[-200:]!r}")
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1] if lines else "",
                            parse_constant=_reject_constant)
    except ValueError as exc:
        last = lines[-1][:200] if lines else ""
        return problems + [f"last line is not a strict JSON result ({exc}): "
                           f"{last!r}"]
    if not isinstance(result, dict):
        return problems + ["last line is not a JSON object"]
    if result.get("correct") is not True:
        problems.append(f"correct is {result.get('correct')!r}")
    metrics = result.get("metrics")
    metrics = metrics if isinstance(metrics, dict) else {}
    for name in metric_names:
        entry = metrics.get(name)
        value = entry.get("value") if isinstance(entry, dict) else None
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            problems.append(f"metric {name} missing or not finite: "
                            f"{entry!r}")
    return problems


def _seeds(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="+", metavar="WORKLOAD:SEEDS",
                        help="e.g. train:1-10 or clip-verify:1,3")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [m["name"] for m in bench["end_to_end"]]
    failed = total = 0
    for spec in args.runs:
        workload, _, seeds = spec.partition(":")
        for seed in _seeds(seeds):
            proc = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed",
                 str(seed), "--seconds", str(bench["run_seconds"])],
                cwd=ROOT, capture_output=True, text=True)
            problems = run_problems(proc.returncode, proc.stdout,
                                    proc.stderr, names)
            total += 1
            failed += bool(problems)
            if problems:
                print(f"FAIL {workload} seed {seed}: " + "; ".join(problems),
                      flush=True)
            else:
                metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
                print(f"ok   {workload} seed {seed}: " + " ".join(
                    f"{name}={metrics[name]['value']:.4g}" for name in names),
                    flush=True)
    print(f"{total - failed} of {total} runs passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
