"""Command-line entry point.

Subcommands wire the library into reproducible runs: synth, polish, train,
verify, detect, eval and bench. All randomness flows from --seed; outputs
embed a config hash so runs can be traced back to their flags.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import itertools
import json
import math
import os
import statistics
import sys
import time

import numpy as np

from . import dataset, evaluation, features, mslstm, pipeline
from .errors import BlinkwildError, InvalidDatasetError, PredictionsError

EYES = pipeline.EYES
PREDICTION_COLUMNS = ("clip", "eye", "label", "confidence", "lost")
BENCH_STREAM_LEN = 50  # frames per synthetic stream that bench times
# bench reports these as the process sees them; it does not set them
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# test clips that verify loads, tracks in lockstep and scores together; the
# time per clip stops falling at about 8 clips, and a group holds its
# clips' frames in memory at once
CLIP_BATCH = 16


def _config_hash(args: argparse.Namespace) -> str:
    """Hash of the command and its flags, except where the outputs go."""
    payload = json.dumps({k: v for k, v in vars(args).items()
                          if k not in ("func", "out")}, default=str,
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@contextlib.contextmanager
def written_whole():
    """Yield ``output``, which maps a path to the temporary name beside it
    that a command writes it to. Once the block completes, every path asked
    for is renamed from its temporary, in the order first asked for; if the
    block or a rename fails, the temporaries and the paths renamed so far
    are removed: a failed command commits none of its files."""
    temps = {}  # path -> its temporary name
    renamed = []
    try:
        yield lambda path: temps.setdefault(path, path + ".tmp")
        for path, temp in temps.items():
            os.replace(temp, path)
            renamed.append(path)
    finally:
        if len(renamed) < len(temps):  # the block or a rename failed
            for path in filter(os.path.exists, [*temps.values(), *renamed]):
                os.remove(path)


# ---------------------------------------------------------------------------
# subcommands


def _write_dataset(output, out: str, clips) -> None:
    """Save each ``(split, name, clip)`` as ``clips`` yields it, then write
    ``out``/manifest.tsv through ``output``. The first save creates
    ``out``."""
    entries = []
    for split, name, clip in clips:
        path = os.path.join(out, name)
        dataset.save_clip(path, clip)
        entries.append(dataset.ManifestEntry(path, clip.label, split, name))
    os.makedirs(out, exist_ok=True)
    dataset.write_manifest(output(os.path.join(out, "manifest.tsv")), entries)


def cmd_synth(args, output) -> int:
    kinds = []  # (split, label) of each clip, in seed order
    for split in ("train", "test"):
        for label in (dataset.LABEL_BLINK, dataset.LABEL_NONBLINK):
            count = getattr(args, f"{split}_{label}")
            if count < 0:
                raise ValueError(f"--{split}-{label} must be >= 0, got "
                                 f"{count}")
            kinds += [(split, label)] * count
    for label in dict.fromkeys(label for _, label in kinds):
        dataset.check_synth(label, args.length)
    _write_dataset(output, args.out, (
        (split, f"{split}_{label}_{seed}",
         dataset.synth_clip(seed, label, args.length))
        for seed, (split, label) in enumerate(kinds, args.seed * 1_000_003)))
    print(f"wrote {len(kinds)} clips and "
          f"{os.path.join(args.out, 'manifest.tsv')}")
    return 0


def cmd_polish(args, output) -> int:
    manifest = dataset.load_manifest(args.manifest)

    def polished():
        for entry in manifest.entries:
            clip = dataset.load_clip(entry.clip_dir, entry.label,
                                     entry.source_id)
            yield entry.split, entry.source_id, dataset.polish_clip(
                clip, args.target_len)

    _write_dataset(output, args.out, polished())
    print(f"polished {len(manifest.entries)} clips to {args.target_len} "
          f"frames")
    return 0


def _load_split_features(path: str, split: str):
    """(sequence, label) per eye annotated as visible in every frame of the
    ``split`` clips of the manifest at ``path``; the clips share a length."""
    samples, length = [], None
    for entry in dataset.load_manifest(path).split(split):
        clip = dataset.load_clip(entry.clip_dir, entry.label, entry.source_id)
        length = length or len(clip)
        if len(clip) != length:
            raise InvalidDatasetError(
                f"{path}: {split} clip {entry.source_id!r} has {len(clip)} "
                f"frames, the first has {length}; run polish first")
        label = (mslstm.CLASS_BLINK if entry.label == dataset.LABEL_BLINK
                 else mslstm.CLASS_NONBLINK)
        for eye in EYES:
            regions = [dataset.eye_box(rec, eye) for rec in clip.annotations]
            if None not in regions:
                samples.append((features.featurize_frames(clip.frames,
                                                          regions), label))
    return samples


def cmd_train(args, output) -> int:
    train_set = _load_split_features(args.manifest, "train")
    model = mslstm.init_model(hidden=args.hidden, layers=args.layers,
                              scales=args.scales, margin=args.margin,
                              seed=args.seed)
    config = mslstm.TrainConfig(max_steps=args.steps,
                                batch_size=args.batch_size, seed=args.seed,
                                loss=args.loss)
    model, history = mslstm.train(model, train_set, config)
    if not (np.all(np.isfinite(history))
            and np.all(np.isfinite(model.params))):
        raise ValueError(f"{args.model}: not written: training reached a "
                         f"non-finite loss or parameter")
    loss_csv = os.path.splitext(args.model)[0] + "_loss.csv"
    mslstm.save_model(output(args.model), model)
    with open(output(loss_csv), "w", newline="") as f:
        csv.writer(f).writerows([("step", "loss"), *(
            (i, repr(loss)) for i, loss in enumerate(history, start=1))])
    print(f"trained {args.steps} steps on {len(train_set)} samples; "
          f"model at {args.model}, losses at {loss_csv}")
    return 0


def _score(args, manifest, predictions, fr_by_eye, output, path) -> None:
    """Check every row of the predictions CSV at ``predictions`` against
    ``manifest``, write the report at ``path`` through ``output`` and print
    one line per eye.
    ``fr_by_eye`` holds the FR of the eyes it was measured for; the others
    report FR as unknown (None)."""
    truth = {entry.source_id: entry.label == dataset.LABEL_BLINK
             for entry in manifest.entries}
    outcomes = {eye: [] for eye in EYES}  # (confidence, is_blink, predicted)
    seen = set()
    try:
        with open(predictions, newline="") as f:
            reader = csv.DictReader(f)
            missing = set(PREDICTION_COLUMNS) - set(reader.fieldnames or ())
            if missing:
                raise PredictionsError(f"{predictions}: missing columns "
                                       f"{sorted(missing)}")
            for row in reader:
                where = f"{predictions}:{reader.line_num}"
                eye = row["eye"]
                if eye not in outcomes:
                    raise PredictionsError(f"{where}: unknown eye {eye!r}")
                if row["clip"] not in truth:
                    raise PredictionsError(
                        f"{where}: clip {row['clip']!r} is not in manifest "
                        f"{args.manifest}")
                if (row["clip"], eye) in seen:
                    raise PredictionsError(f"{where}: repeated row for clip "
                                           f"{row['clip']!r}, eye {eye!r}")
                seen.add((row["clip"], eye))
                try:
                    confidence = float(row["confidence"])
                except (TypeError, ValueError):  # TypeError: a short row
                    confidence = math.nan
                if not 0.0 <= confidence <= 1.0:
                    raise PredictionsError(f"{where}: confidence "
                                           f"{row['confidence']!r} is not a "
                                           f"number in [0, 1]")
                if row["label"] not in (dataset.LABEL_BLINK,
                                        dataset.LABEL_NONBLINK):
                    raise PredictionsError(f"{where}: label {row['label']!r} "
                                           f"is not blink or nonblink")
                if row["lost"] not in ("0", "1"):
                    raise PredictionsError(f"{where}: lost {row['lost']!r} "
                                           f"is not 0 or 1")
                outcomes[eye].append((confidence, truth[row["clip"]],
                                      row["label"] == dataset.LABEL_BLINK
                                      and row["lost"] == "0"))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise PredictionsError(f"{predictions}: not a readable CSV "
                               f"({exc})") from None
    per_eye = {}
    for eye in EYES:
        recall, precision, f1 = evaluation.prf(evaluation.confusion(
            (is_blink, predicted) for _, is_blink, predicted in outcomes[eye]))
        per_eye[eye] = {"recall": recall, "precision": precision,
                        "f1": f1, "fr": fr_by_eye.get(eye)}
    scores = [(conf, is_blink) for eye in EYES
              for conf, is_blink, _ in outcomes[eye]]
    evaluation.emit_report(output, path, per_eye, scores, args.seed,
                           _config_hash(args))
    for eye in EYES:
        print(f"{eye}: " + " ".join(
            f"{k}=n/a" if v is None else f"{k}={v:.4f}"
            for k, v in per_eye[eye].items()))


def cmd_verify(args, output) -> int:
    manifest = dataset.load_manifest(args.manifest)
    model = mslstm.load_model(args.model)
    rows = []
    tally = {eye: [0, 0, 0] for eye in EYES}  # miss, err, all
    entries = manifest.split("test")
    for lo in range(0, len(entries), CLIP_BATCH):
        group = entries[lo:lo + CLIP_BATCH]
        clips = [dataset.load_clip(entry.clip_dir, entry.label,
                                   entry.source_id) for entry in group]
        tracks = pipeline.track_clips(
            [(clip.frames, pipeline.annotation_locator(clip))
             for clip in clips])
        verdicts = pipeline.verify_streams([clip.frames for clip in clips],
                                           tracks, model)
        for entry, clip, streams, verdict in zip(group, clips, tracks,
                                                 verdicts):
            for eye in EYES:
                v = verdict[eye]
                rows.append([entry.source_id, eye, v.label,
                             repr(v.confidence), int(v.lost)])
                if entry.label == dataset.LABEL_BLINK:
                    tally[eye][2] += 1
                    if v.lost:
                        tally[eye][0] += 1
                    elif not evaluation.localized(streams[eye].boxes,
                                                  clip.annotations, eye):
                        tally[eye][1] += 1

    fr_by_eye = {eye: evaluation.fr(evaluation.LocalizationTally(*counts))
                 for eye, counts in tally.items() if counts[2]}
    os.makedirs(args.out, exist_ok=True)
    predictions = output(os.path.join(args.out, "predictions.csv"))
    with open(predictions, "w", newline="") as f:
        csv.writer(f).writerows([PREDICTION_COLUMNS, *rows])
    _score(args, manifest, predictions, fr_by_eye, output,
           os.path.join(args.out, "report"))
    return 0


def cmd_detect(args, output) -> int:
    clip = dataset.load_clip(args.frames, dataset.LABEL_NONBLINK, "stream")
    model = mslstm.load_model(args.model)
    events = pipeline.detect_stream(
        clip.frames, pipeline.annotation_locator(clip), model,
        window=args.window, stride=args.stride,
        conf_thresh=args.conf_thresh, iou_thresh=args.iou_thresh)
    with open(output(args.out), "w", newline="") as f:
        csv.writer(f).writerows([("eye", "start", "end", "confidence"), *(
            (ev.eye, ev.start, ev.end, repr(ev.confidence))
            for ev in events)])
    print(f"{len(events)} events -> {args.out}")
    return 0


def cmd_eval(args, output) -> int:
    _score(args, dataset.load_manifest(args.manifest), args.predictions, {},
           output, args.out)
    return 0


def cmd_bench(args, output) -> int:
    model = (mslstm.load_model(args.model) if args.model
             else mslstm.init_model(seed=args.seed))
    window = dataset.DEFAULT_CLIP_LEN  # detect's default, at stride 1
    per_frame = {"tracking": [], "features": [], "inference": []}
    frames_timed = 0
    for i in itertools.count():  # stream 0 is an untimed warm-up
        clip, _ = dataset.synth_stream(args.seed + i, BENCH_STREAM_LEN,
                                       blink_center=BENCH_STREAM_LEN // 2)
        t0 = time.perf_counter()
        streams = pipeline.track_eyes(clip.frames,
                                      pipeline.annotation_locator(clip))
        t1 = time.perf_counter()
        steps = pipeline.tracked_steps(clip.frames, streams, window)
        t2 = time.perf_counter()
        for seq in steps.values():
            pipeline.score_windows(model, [seq], window)
        t3 = time.perf_counter()
        if i:
            for stage, secs in zip(per_frame, (t1 - t0, t2 - t1, t3 - t2)):
                per_frame[stage].append(secs * 1e3 / len(clip.frames))
            frames_timed += len(clip.frames)
            if frames_timed >= args.frames:
                break

    table = {stage: {"mean": statistics.fmean(xs),
                     "median": sorted(xs)[len(xs) // 2]}
             for stage, xs in per_frame.items()}
    total_median = sum(v["median"] for v in table.values())
    threads = {var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS}
    for stage, v in table.items():
        print(f"{stage:10s} mean={v['mean']:.3f}ms median={v['median']:.3f}ms")
    print(f"per-frame median total: {total_median:.3f}ms")
    print("BLAS threads: " + " ".join(f"{var}={value}"
                                      for var, value in threads.items()))
    if args.out:
        with open(output(args.out), "w") as f:
            json.dump({"stages": table, "median_total_ms": total_median,
                       "frames": frames_timed, "blas_threads": threads,
                       "config_hash": _config_hash(args)}, f, indent=2)
            f.write("\n")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blinkwild",
        description="Eyeblink detection: synth, polish, train, verify, "
                    "detect, eval, bench")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for all randomness (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--train-blink", type=int, default=100)
    p.add_argument("--train-nonblink", type=int, default=100)
    p.add_argument("--test-blink", type=int, default=40)
    p.add_argument("--test-nonblink", type=int, default=40)
    p.add_argument("--length", type=int, default=dataset.DEFAULT_CLIP_LEN,
                   help="frames per clip (default %(default)s)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("polish", help="fix every clip to a target length")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--target-len", type=int, default=dataset.DEFAULT_CLIP_LEN,
                   help="output clip length (default %(default)s; 13 "
                        "supported)")
    p.set_defaults(func=cmd_polish)

    p = sub.add_parser("train", help="train the classifier")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True, help="output model file")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--loss", choices=["softmax", "asoftmax"],
                   default="asoftmax")
    p.add_argument("--layers", type=int, default=2,
                   help="stacked LSTM layer count (default 2)")
    p.add_argument("--scales", type=int, default=2,
                   help="trailing hidden states fed to the head (default 2)")
    p.add_argument("--margin", type=int, default=4,
                   help="angular margin m (default 4)")
    p.add_argument("--hidden", type=int, default=64,
                   help="hidden units per layer (default 64)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("verify", help="per-clip verification on the test split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("detect", help="sliding-window detection on a stream")
    p.add_argument("--frames", required=True,
                   help="clip directory with frames and annotations")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="output event CSV")
    p.add_argument("--window", type=int, default=dataset.DEFAULT_CLIP_LEN)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--conf-thresh", type=float, default=0.5)
    p.add_argument("--iou-thresh", type=float, default=0.33)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", help="score a predictions CSV against labels")
    p.add_argument("--predictions", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="report path prefix")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="per-frame latency of detect's stages "
                                     "on synthetic streams")
    p.add_argument("--model", help="model file (default: fresh init)")
    p.add_argument("--frames", type=int, default=500,
                   help="frames to time after one warm-up stream "
                        "(default 500)")
    p.add_argument("--out", help="optional JSON output")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with written_whole() as output:
            return args.func(args, output)
    except (BlinkwildError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
