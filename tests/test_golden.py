"""Golden outputs: one seeded tiny run through ``cli.main``, compared with
``tests/golden/seed1.json``.

The run is ``synth`` (10+10 train, 5+5 test clips), two saved 100-frame
``synth_stream``s (one with a blink), ``train --steps 60 --batch-size 8
--hidden 16``, ``verify`` and ``eval`` of its predictions, and ``detect
--conf-thresh 0.3`` on both streams. It is compared in three tiers:

- exact: every ``track_clips`` box, ``reloc_indices`` and ``lost_from``; the
  clip, eye, label and lost columns of ``predictions.csv``; the eye, start
  and end of every event; and the work counts (rows located, learned and
  adapted, locator calls, ``predict`` calls and windows scored), counted by
  wrapping the library's functions here;
- within ``TOL``: the tracking scores, and the losses, confidences and
  ``per_eye`` values, which training's rounding reaches;
- not compared: model bytes and wall times.

The JSON also records the smallest |confidence - 0.5| and the smallest
margin by which a kept tracking score clears ``TRACK_THRESH``, so a reader
can tell a rounding flip from a defect. A change that moves outputs on
purpose rewrites the JSON with ``python3 tools/golden.py``.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from unittest import mock

from blinkwild import cli, dataset, evaluation, mslstm, pipeline, tracker

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "seed1.json")
TOL = 1e-6
STREAM_LEN = 100


@contextlib.contextmanager
def _recording():
    """Wrap the tracking, locating and scoring calls; yield the record that
    the wrappers fill: ``tracks`` and ``track_scores`` (one entry per
    ``track_clips`` call) and ``counts`` (work done)."""
    record = {"tracks": [], "track_scores": [], "counts": dict.fromkeys(
        ("rows_located", "rows_learned", "rows_adapted", "locator_calls",
         "predict_calls", "windows_scored"), 0)}
    counts = record["counts"]
    track_clips, annotation_locator = (pipeline.track_clips,
                                       pipeline.annotation_locator)
    stack_locate, stack_learn = tracker.stack_locate, tracker.stack_learn
    predict = mslstm.predict

    def tracking(clips):
        out = track_clips(clips)
        record["tracks"].append([
            {eye: {"boxes": [None if box is None else list(box)
                             for box in s.boxes],
                   "reloc_indices": s.reloc_indices,
                   "lost_from": s.lost_from}
             for eye, s in streams.items()} for streams in out])
        record["track_scores"].append([
            {eye: s.scores for eye, s in streams.items()}
            for streams in out])
        return out

    def locator(clip):
        locate = annotation_locator(clip)

        def counted(frame, index):
            counts["locator_calls"] += 1
            return locate(frame, index)
        return counted

    def locating(stack, frames):
        counts["rows_located"] += len(stack.keys)
        return stack_locate(stack, frames)

    def learning(size, *kept, rows=(), fresh=()):
        counts["rows_adapted"] += len(rows)
        counts["rows_learned"] += len(fresh)
        return stack_learn(size, *kept, rows=rows, fresh=fresh)

    def predicting(model, seq):
        counts["predict_calls"] += 1
        counts["windows_scored"] += 1 if seq.ndim == 2 else len(seq)
        return predict(model, seq)

    with contextlib.ExitStack() as stack:
        for module, name, wrapper in (
                (pipeline, "track_clips", tracking),
                (pipeline, "annotation_locator", locator),
                (tracker, "stack_locate", locating),
                (tracker, "stack_learn", learning),
                (mslstm, "predict", predicting)):
            stack.enter_context(mock.patch.object(module, name, wrapper))
        yield record


def _cli(*args) -> None:
    code = cli.main([str(a) for a in args])
    assert code == 0, f"{args[2]} exited {code}"


def _rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def golden_run(tmp: str, seed: int = 1) -> dict:
    """Run the golden commands with ``--seed seed`` under ``tmp`` and
    return what the golden file holds."""
    data = os.path.join(tmp, "data")
    model = os.path.join(tmp, "model.bin")
    _cli("--seed", seed, "synth", "--out", data, "--train-blink", 10,
         "--train-nonblink", 10, "--test-blink", 5, "--test-nonblink", 5)
    streams = {}
    for name, blink_center in (("blink", STREAM_LEN // 2), ("plain", None)):
        clip, _ = dataset.synth_stream(seed * 100 + len(streams), STREAM_LEN,
                                       blink_center=blink_center)
        streams[name] = os.path.join(tmp, f"stream_{name}")
        dataset.save_clip(streams[name], clip)
    manifest = os.path.join(data, "manifest.tsv")
    _cli("--seed", seed, "train", "--manifest", manifest, "--model", model,
         "--steps", 60, "--batch-size", 8, "--hidden", 16)
    out = {"seed": seed, "tracks": {}, "track_scores": {}, "counts": {},
           "events": {}}
    out["loss"] = [float(row["loss"]) for row in
                   _rows(os.path.splitext(model)[0] + "_loss.csv")]

    with _recording() as record:
        _cli("--seed", seed, "verify", "--manifest", manifest, "--model",
             model, "--out", os.path.join(tmp, "verify"))
    for key in ("tracks", "track_scores", "counts"):
        out[key]["verify"] = record[key]
    predictions = os.path.join(tmp, "verify", "predictions.csv")
    rows = _rows(predictions)
    out["predictions"] = [[r["clip"], r["eye"], r["label"], r["lost"]]
                          for r in rows]
    out["confidences"] = [float(r["confidence"]) for r in rows]
    _cli("--seed", seed, "eval", "--predictions", predictions, "--manifest",
         manifest, "--out", os.path.join(tmp, "eval"))
    out["per_eye"] = {
        name: evaluation.load_report(path)["per_eye"] for name, path in
        (("verify", os.path.join(tmp, "verify", "report")),
         ("eval", os.path.join(tmp, "eval")))}

    for name, frames in streams.items():
        events = os.path.join(tmp, f"events_{name}.csv")
        with _recording() as record:
            _cli("--seed", seed, "detect", "--frames", frames, "--model",
                 model, "--out", events, "--conf-thresh", 0.3)
        for key in ("tracks", "track_scores", "counts"):
            out[key][f"detect_{name}"] = record[key]
        out["events"][name] = [[r["eye"], int(r["start"]), int(r["end"]),
                                float(r["confidence"])]
                               for r in _rows(events)]

    confidences = out["confidences"] + [
        ev[3] for evs in out["events"].values() for ev in evs]
    kept = [score for calls in out["track_scores"].values()
            for clips in calls for per_clip in clips
            for scores in per_clip.values() for score in scores
            if score >= pipeline.TRACK_THRESH]
    out["margins"] = {
        "confidence_from_half": min(abs(c - 0.5) for c in confidences),
        "kept_score_over_track_thresh": min(kept) - pipeline.TRACK_THRESH}
    return out


def _close(got, want, where):
    """``got`` equals ``want`` with every float within ``TOL`` and every
    other value exact."""
    if isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= TOL, (
            f"{where}: {got!r} != {want!r}")
    elif isinstance(want, (dict, list)):
        assert type(got) is type(want) and len(got) == len(want), where
        for k in (want if isinstance(want, dict) else range(len(want))):
            _close(got[k], want[k], f"{where}[{k!r}]")
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def test_golden_outputs_seed1(tmp_path):
    with open(GOLDEN) as f:
        want = json.load(f)
    got = json.loads(json.dumps(golden_run(str(tmp_path), want["seed"])))
    for key in ("tracks", "predictions", "counts"):
        assert got[key] == want[key], key
    # an event's eye, start and end are exact, its confidence within TOL
    for key in ("events", "track_scores", "loss", "confidences", "per_eye"):
        _close(got[key], want[key], key)
