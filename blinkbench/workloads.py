"""Workloads: seeded inputs, the argv of every operation, and its checks.

Every operation is one ``blinkwild.cli.main`` call with the argv a user
would type. The program reads only the files ``make_inputs`` writes; the
ground truth it must not see (blink intervals of the streams) lives in a
file of the benchmark's own, ``truth.json``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from blinkwild import cli, dataset, evaluation, mslstm, pipeline

REF_STEPS = 50         # training steps: 25 left false events, 50 does not
TRAIN_PER_CLASS = 30   # train-split clips per class
TEST_PER_CLASS = 20    # test-split clips per class
TRAIN_OP_PER_CLASS = 10  # train workload: split per class and steps per
TRAIN_OP_STEPS = 20      # operation, about 0.5 s of featurization and BPTT
SHARDS = 4             # clip-verify's test split, one manifest per shard
STREAMS = 4            # stream-detect's streams; even ones hold one blink
STREAM_LEN = 100       # frames per untrimmed stream
WINDOW = 10            # detect's default window
# acceptance-gate levels of tests/test_acceptance.py
MIN_AP = 0.9
MIN_F1 = 0.95


class CheckError(Exception):
    """An operation's output failed its check."""


@dataclass(frozen=True)
class InputSpec:
    train: int = 0          # clips per class in the train split
    test: int = 0           # clips per class in the test split
    shards: int = 0         # test-split manifests data/test_<k>.tsv
    streams: int = 0        # untrimmed streams; even indices hold one blink


@dataclass
class Op:
    """One program operation: what to run, how many items, how to check."""
    kind: str
    run: Callable[[], int]                 # returns the exit code
    items: int
    check: Callable[[], dict]              # raises CheckError, or values
    outputs: tuple[str, ...] = ()          # files a rerun must reproduce


# ---------------------------------------------------------------------------
# inputs


def cli_call(argv: list[str]) -> Callable[[], int]:
    return lambda: cli.main(list(argv))


def make_inputs(out: str, seed: int, spec: InputSpec) -> int:
    """Write the seeded inputs of ``spec`` under ``out``; returns exit code.

    Clips come from ``blinkwild synth``; streams from
    ``dataset.synth_stream`` written as clip directories. The same seed
    gives byte-identical files.
    """
    os.makedirs(out, exist_ok=True)
    if spec.train or spec.test:
        rc = cli.main(["--seed", str(seed), "synth",
                       "--out", os.path.join(out, "data"),
                       "--train-blink", str(spec.train),
                       "--train-nonblink", str(spec.train),
                       "--test-blink", str(spec.test),
                       "--test-nonblink", str(spec.test)])
        if rc != 0:
            return rc
    if spec.shards:
        write_shards(os.path.join(out, "data"), spec.shards)
    rng = np.random.default_rng(seed)
    truth = {}
    for i in range(spec.streams):
        center = (int(rng.integers(20, STREAM_LEN - 20))
                  if i % 2 == 0 else None)
        clip, gt = dataset.synth_stream(seed * 1000 + i, STREAM_LEN,
                                        blink_center=center)
        dataset.save_clip(os.path.join(out, f"stream_{i}"), clip)
        truth[f"stream_{i}"] = list(gt) if gt else None
    with open(os.path.join(out, "truth.json"), "w") as f:
        json.dump(truth, f, sort_keys=True)
    return 0


def write_shards(data: str, shards: int) -> None:
    """Split manifest.tsv's test split into ``shards`` manifests beside it,
    each with an equal share of both labels."""
    with open(os.path.join(data, "manifest.tsv")) as f:
        rows = [line for line in f if line.split("\t")[2] == "test"]
    by_label = {}
    for line in rows:
        by_label.setdefault(line.split("\t")[1], []).append(line)
    for k in range(shards):
        with open(os.path.join(data, f"test_{k}.tsv"), "w") as f:
            for label in sorted(by_label):
                lines = by_label[label]
                n = len(lines) // shards
                f.writelines(lines[k * n:(k + 1) * n])


def digest(*roots: str) -> str:
    """sha256 over the bytes of the files ``roots`` names and of every file
    under the directories it names, with their relative paths."""
    h = hashlib.sha256()
    for root in roots:
        if os.path.isfile(root):
            with open(root, "rb") as f:
                h.update(f.read())
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def synth_op(out: str, seed: int, spec: InputSpec) -> Op:
    def check():
        if spec.train or spec.test:
            manifest = dataset.load_manifest(
                os.path.join(out, "data", "manifest.tsv"))
            if len(manifest.entries) != 2 * (spec.train + spec.test):
                raise CheckError(f"manifest has {len(manifest.entries)} "
                                 "entries")
        return {}
    return Op("synth", lambda: make_inputs(out, seed, spec), 1, check)


# ---------------------------------------------------------------------------
# operations and their checks


def train_op(manifest: str, model: str, seed: int,
             steps: int = REF_STEPS) -> Op:
    argv = ["--seed", str(seed), "train", "--manifest", manifest,
            "--model", model, "--steps", str(steps)]
    loss_csv = os.path.splitext(model)[0] + "_loss.csv"

    def check():
        with open(loss_csv, newline="") as f:
            losses = [float(r["loss"]) for r in csv.DictReader(f)]
        if len(losses) != steps or not all(map(math.isfinite, losses)):
            raise CheckError(f"{loss_csv}: want {steps} finite losses")
        _, conf = mslstm.predict(mslstm.load_model(model),
                                 np.zeros((WINDOW - 1, 118)))
        if not math.isfinite(conf):
            raise CheckError(f"{model}: non-finite prediction")
        return {"final_loss": float(np.mean(losses[-max(1, steps // 4):]))}
    return Op("train", cli_call(argv), steps, check, (model, loss_csv))


def verify_op(manifest: str, model: str, out: str, seed: int) -> Op:
    argv = ["--seed", str(seed), "verify", "--manifest", manifest,
            "--model", model, "--out", out]
    clips = [e.source_id for e in dataset.load_manifest(manifest).split("test")]

    def check():
        with open(os.path.join(out, "predictions.csv"), newline="") as f:
            rows = list(csv.DictReader(f))
        keys = sorted((r["clip"], r["eye"]) for r in rows)
        if keys != sorted((c, e) for c in clips for e in cli.EYES):
            raise CheckError("predictions: not one row per clip per eye")
        report = evaluation.load_report(os.path.join(out, "report"))
        f1 = [report["per_eye"][e]["f1"] for e in cli.EYES]
        fr = [report["per_eye"][e]["fr"] for e in cli.EYES]
        if min(f1) < MIN_F1:
            raise CheckError(f"verify F1 {f1} below {MIN_F1}")
        return {"f1": float(np.mean(f1)), "fr": float(np.mean(fr))}
    return Op("verify", cli_call(argv), len(clips), check,
              (os.path.join(out, "predictions.csv"),
               os.path.join(out, "report.json")))


def read_events(path: str, n_frames: int) -> list:
    """Parse detect's event CSV, checking that every row is well formed."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        if next(reader, None) != ["eye", "start", "end", "confidence"]:
            raise CheckError(f"{path}: bad header")
        events = []
        for row in reader:
            if len(row) != 4 or row[0] not in cli.EYES:
                raise CheckError(f"{path}: malformed row {row}")
            start, end, conf = int(row[1]), int(row[2]), float(row[3])
            if not (0 <= start <= end < n_frames
                    and end - start + 1 == WINDOW and 0.0 <= conf <= 1.0):
                raise CheckError(f"{path}: bad event {row}")
            events.append(pipeline.BlinkEvent(start, end, conf, row[0]))
    return events


def detect_op(stream_dir: str, gt, n_frames: int, model: str,
              out_csv: str) -> Op:
    argv = ["detect", "--frames", stream_dir, "--model", model,
            "--out", out_csv]

    def check():
        events = read_events(out_csv, n_frames)
        if gt is None:
            if events:
                raise CheckError(f"{len(events)} false events on "
                                 f"blink-free {stream_dir}")
        else:
            for eye in cli.EYES:
                ap = evaluation.average_precision(
                    [e for e in events if e.eye == eye], [tuple(gt)])
                if ap < MIN_AP:
                    raise CheckError(f"{eye} AP {ap:.3f} on {stream_dir}")
        return {"events": events, "gt": gt}
    return Op("detect", cli_call(argv), n_frames, check, (out_csv,))


def stream_ops(inputs: str, model: str, out: str) -> list[Op]:
    with open(os.path.join(inputs, "truth.json")) as f:
        truth = json.load(f)
    ops = []
    for name in sorted(truth):
        n = len(dataset.load_annotations(
            os.path.join(inputs, name, "annotations.csv")))
        ops.append(detect_op(os.path.join(inputs, name), truth[name], n,
                             model, os.path.join(out, f"{name}.csv")))
    return ops


def pooled_ap(detections: list[dict]) -> float:
    """Mean per-eye AP at tIoU 0.5 pooled over the blink streams."""
    per_eye = {eye: [] for eye in cli.EYES}
    gts = []
    for k, d in enumerate(d for d in detections if d["gt"] is not None):
        offset = 100_000 * k  # disjoint streams on one timeline
        gts.append((d["gt"][0] + offset, d["gt"][1] + offset))
        for e in d["events"]:
            per_eye[e.eye].append(pipeline.BlinkEvent(
                e.start + offset, e.end + offset, e.confidence, e.eye))
    return float(np.mean([evaluation.average_precision(per_eye[eye], gts)
                          for eye in cli.EYES]))


# ---------------------------------------------------------------------------
# workloads (BENCHMARK.json and README.md say why each was chosen)


@dataclass(frozen=True)
class Workload:
    name: str
    item: str                # what items_per_s counts
    inputs: InputSpec        # what set-up synthesizes
    reference: bool          # set-up trains a reference model

    def timed_ops(self, root: str, seed: int) -> list[Op]:
        """The operations timed in a run, over the set-up under ``root``."""
        inputs, out = os.path.join(root, "inputs"), os.path.join(root, "out")
        manifest = os.path.join(inputs, "data", "manifest.tsv")
        if self.name == "stream-detect":
            return stream_ops(inputs, reference_model(root), out)
        if self.name == "clip-verify":
            return [verify_op(os.path.join(inputs, "data", f"test_{k}.tsv"),
                              reference_model(root),
                              os.path.join(out, f"verify_{k}"), seed)
                    for k in range(self.inputs.shards)]
        return [train_op(manifest, output_model(root), seed, TRAIN_OP_STEPS)]


def reference_model(root: str) -> str:
    return os.path.join(root, "ref", "model.bin")


def output_model(root: str) -> str:
    return os.path.join(root, "out", "model.bin")


WORKLOADS = {w.name: w for w in (
    Workload("stream-detect", "frame",
             InputSpec(train=TRAIN_PER_CLASS, streams=STREAMS), True),
    Workload("clip-verify", "clip",
             InputSpec(train=TRAIN_PER_CLASS, test=TEST_PER_CLASS,
                       shards=SHARDS), True),
    Workload("train", "step", InputSpec(train=TRAIN_OP_PER_CLASS), False),
)}


def setup(w: Workload, root: str, seed: int):
    """Set-up as a sequence of operations: synthesize the inputs, train the
    reference model if the workload needs one, then one warm-up operation.
    A generator, so each operation is built after the previous one ran."""
    inputs = os.path.join(root, "inputs")
    for sub in ("ref", "out"):
        os.makedirs(os.path.join(root, sub), exist_ok=True)
    yield synth_op(inputs, seed, w.inputs)
    if w.reference:
        yield train_op(os.path.join(inputs, "data", "manifest.tsv"),
                       reference_model(root), seed)
    yield w.timed_ops(root, seed)[0]


def setup_digest(root: str) -> str:
    """Fingerprint of what set-up produced, compared across samples."""
    return digest(os.path.join(root, "inputs"), os.path.join(root, "ref"))


def probe(w: Workload, root: str, model: str, seed: int):
    """Checks on a second seed's inputs, which also give the quality
    metrics: verify on a test split and detect on one blink and one
    blink-free stream, with the reference model ``model``. The train
    workload instead trains on the second seed's train split with the
    reference step count and scores the model it makes."""
    inputs, out = os.path.join(root, "inputs"), os.path.join(root, "out")
    os.makedirs(out, exist_ok=True)
    spec = InputSpec(train=TRAIN_PER_CLASS if w.name == "train" else 0,
                     test=TEST_PER_CLASS, streams=2)
    yield synth_op(inputs, seed, spec)
    manifest = os.path.join(inputs, "data", "manifest.tsv")
    if w.name == "train":
        model = output_model(root)
        yield train_op(manifest, model, seed)
    yield verify_op(manifest, model, os.path.join(out, "verify"), seed)
    yield from stream_ops(inputs, model, out)
