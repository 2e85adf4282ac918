"""Run one benchmark workload for one seed and print its metrics.

    python3 blinkbench/run.py --workload stream-detect --seed 1 \\
        --seconds 15 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
environment. See README.md in this directory for workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "blinkbench", "work")

# One thread for BLAS and for blinkwild's pool: load comes from one process
# and one core, which the 2-CPU machine can give steadily.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLINKWILD_THREADS")
SETUP_SAMPLES = 3           # set-ups per run, spread across it
CHECK_SEED_OFFSET = 1_000_003
CAL_REF_S = 0.025           # calibration time that defines reference speed


def metric_units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["end_to_end"] + bench["per_layer"]}


class Calibrator:
    """A fixed unit of numpy and interpreter work, timed between operations.

    The machine's speed drifts by tens of percent over seconds (CPU time
    tracks wall time, so it is the CPU that slows). Times are rescaled by
    the calibration time around them to what they would be on a machine
    where one unit takes ``CAL_REF_S``. The unit mixes the program's kinds
    of work: small 2-D FFTs, a small GEMM with tanh, and a Python loop.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.patch = rng.standard_normal((40, 40))
        self.w = rng.standard_normal((118, 256))
        self.x = rng.standard_normal((32, 118))
        self.samples: list[float] = []

    def measure(self) -> float:
        np = self.np
        start = time.perf_counter()
        acc = 0.0
        for _ in range(120):
            f = np.fft.fft2(self.patch)
            acc += float(np.fft.ifft2(f * np.conj(f)).real[0, 0])
            acc += float(np.tanh(self.x @ self.w).sum())
            acc += sum(j * 0.5 for j in range(60))
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed


class Runner:
    """Runs operations, checks them, and counts attempts and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first_outputs: dict[tuple, str] = {}

    def _fail(self, op, message: str):
        self.failed += 1
        self.problems.append(f"{op.kind}: {message}")

    def run(self, op, tracer=None):
        """Run ``op``; returns (wall seconds, check values or None, span)."""
        from spans import OP_NAME
        from workloads import CheckError, digest
        self.attempted += 1
        sink = io.StringIO()
        span = None
        if tracer is not None:
            tracer.install()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                start = time.perf_counter()
                try:
                    if tracer is not None:
                        with tracer.span(OP_NAME) as span:
                            rc = op.run()
                    else:
                        rc = op.run()
                except SystemExit as exc:  # argparse rejected the argv
                    rc = exc.code
                except Exception as exc:
                    rc = f"{type(exc).__name__}: {exc}"
                wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        if rc != 0:
            self._fail(op, f"exit {rc} {sink.getvalue().strip()[-300:]}")
            return wall, None, span
        try:
            values = op.check()
            if op.outputs:
                key = (op.kind, op.outputs)
                got = digest(*op.outputs)
                if self._first_outputs.setdefault(key, got) != got:
                    raise CheckError("output differs from its first run")
        except Exception as exc:
            self._fail(op, f"{type(exc).__name__}: {exc}")
            return wall, None, span
        return wall, values, span

    def each(self, ops):
        """Run a generator of operations, yielding (op, wall, values); stop
        at the first that cannot be built (an earlier one failed to write
        its inputs)."""
        while True:
            try:
                op = next(ops)
            except StopIteration:
                return
            except Exception as exc:
                self.attempted += 1
                self.failed += 1
                self.problems.append(f"build: {type(exc).__name__}: {exc}")
                return
            yield (op, *self.run(op)[:2])


def new_tracer(spans):
    import blinkwild
    from blinkwild import (cli, dataset, evaluation, features, mslstm,
                           pipeline, tracker)
    return spans.Tracer({"cli": cli, "dataset": dataset,
                         "features": features, "tracker": tracker,
                         "pipeline": pipeline, "mslstm": mslstm,
                         "evaluation": evaluation}, others=[blinkwild])


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    src_lines = 0
    for dirpath, _, filenames in os.walk(SRC):
        for name in filenames:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as f:
                    src_lines += f.read().count(b"\n")
    return {"nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "blinkwild_threads": int(os.environ["BLINKWILD_THREADS"]),
            "src_lines": src_lines}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="timed operation time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "blinkwild")):
        print(f"error: no blinkwild package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, SRC)
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    run_dir = os.path.join(WORK, f"{w.name}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        result, lines = measure(w, args, run_dir, workloads, spans)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps({"environment": environment()}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


def median_or_none(values):
    return statistics.median(values) if values else None


def throughput(walls: dict[int, list[float]], items: list[int]):
    """Items per second of one pass over the workload's inputs, each input
    taking the median of its operation times; None unless every input has
    a timed operation that passed its checks."""
    if not items or len(walls) < len(items):
        return None
    return sum(items) / sum(statistics.median(walls[i])
                            for i in range(len(items)))


def measure(w, args, run_dir, workloads, spans):
    """One run: set-ups spread across the timed operations, then the
    checks on the second seed's inputs. Returns (result, report lines)."""
    cal = Calibrator()
    runner = Runner()
    tracer = new_tracer(spans) if args.trace else None
    samples = 1 if args.trace else SETUP_SAMPLES
    roots = [os.path.join(run_dir, f"setup{k}") for k in range(samples)]
    setup_s, digests = [], []

    def timed_setup(k):
        # each step is rescaled by the calibrations on either side of it
        total = 0.0
        before = cal.measure()
        for _, wall, _ in runner.each(workloads.setup(w, roots[k],
                                                      args.seed)):
            after = cal.measure()
            total += wall * CAL_REF_S / ((before + after) / 2)
            before = after
        setup_s.append(total)
        digests.append(workloads.setup_digest(roots[k]))
        if digests[k] != digests[0]:
            runner.failed += 1
            runner.problems.append(f"set-up {k} differs from set-up 0")

    # traced -> input index -> normalized op wall times
    walls = {True: {}, False: {}}
    scale = {}                     # op span id -> duration factor
    traced_items = []
    items = []

    def timed_ops(seconds):
        try:
            ops = w.timed_ops(roots[0], args.seed)
        except Exception as exc:  # set-up failed to leave its inputs
            runner.attempted += 1
            runner.failed += 1
            runner.problems.append(f"timed ops: {exc}")
            return
        items[:] = [op.items for op in ops]
        deadline = time.perf_counter() + seconds
        before = cal.measure()
        n = 0
        while n == 0 or time.perf_counter() < deadline:
            op = ops[n % len(ops)]
            # traced and untraced runs alternate by whole passes over inputs
            traced = tracer is not None and (n // len(ops)) % 2 == 0
            wall, values, span = runner.run(op, tracer if traced else None)
            after = cal.measure()
            factor = (before + after) / 2 / CAL_REF_S
            if values is not None:
                walls[traced].setdefault(n % len(ops), []).append(
                    wall / factor)
            if span is not None:
                scale[span.id] = 1.0 / factor
                traced_items.append(op.items)
            before = after
            n += 1

    timed_setup(0)
    blocks = max(1, samples - 1)
    for k in range(1, samples):
        timed_ops(args.seconds / blocks)
        timed_setup(k)
    if samples == 1:
        timed_ops(args.seconds)

    probe_root = os.path.join(run_dir, "check")
    probe = list(runner.each(workloads.probe(
        w, probe_root, workloads.reference_model(roots[0]),
        args.seed + CHECK_SEED_OFFSET)))
    verified = [v for op, _, v in probe if op.kind == "verify" and v]
    losses = [v["final_loss"] for op, _, v in probe
              if op.kind == "train" and v]
    detected = [v for op, _, v in probe if op.kind == "detect" and v]
    n_detect = sum(1 for op, _, _ in probe if op.kind == "detect")

    lines = []
    if args.trace:
        metrics = spans.layer_metrics(tracer.spans, sum(traced_items),
                                      tracer.defined, scale)
        traced = throughput(walls[True], items)
        untraced = throughput(walls[False], items)
        if traced and untraced:
            metrics["trace.overhead_ratio"] = untraced / traced
        metrics["machine.cal_ms"] = statistics.median(cal.samples) * 1e3
        missing = spans.absent(tracer.defined)
        if missing:
            lines.append("absent per-layer metrics: " + ", ".join(missing))
        path = os.path.join(WORK, f"spans-{w.name}.jsonl")
        with open(path, "w") as f:
            for record in spans.to_jsonable(tracer.spans):
                f.write(json.dumps(record) + "\n")
        lines.append(f"spans: {len(tracer.spans)} written to {path}")
    else:
        metrics = {
            "items_per_s": throughput(walls[False], items),
            "setup_s": median_or_none(setup_s),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if len(detected) == n_detect and detected:
            metrics["ap"] = workloads.pooled_ap(detected)
        if verified:
            metrics["f1"] = verified[0]["f1"]
            metrics["loc_rate"] = 1.0 - verified[0]["fr"]
    metrics = {k: v for k, v in metrics.items() if v is not None}
    units = metric_units()
    result_metrics = {k: {"value": v, "unit": units[k]}
                      for k, v in metrics.items()}
    n_timed = sum(len(v) for d in walls.values() for v in d.values())
    lines.append(f"workload {w.name}: {n_timed} timed operations passed "
                 f"(1 item = 1 {w.item}), {len(setup_s)} set-ups, "
                 f"calibration median "
                 f"{statistics.median(cal.samples) * 1e3:.1f} ms "
                 f"(reference {CAL_REF_S * 1e3:.0f} ms)")
    for k, m in sorted(result_metrics.items()):
        lines.append(f"  {k} = {m['value']:.6g} {m['unit']}")
    if losses:
        lines.append(f"  final_loss = {losses[0]:.6g} nats (information only: "
                     "second-seed training, mean of the last quarter)")
    for problem in runner.problems[:20]:
        lines.append(f"FAILED {problem}")
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": result_metrics}
    return result, lines


if __name__ == "__main__":
    sys.exit(main())
