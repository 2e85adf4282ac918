"""Metric arithmetic and report emission.

Recall/precision/F1 over confusion counts, the eye-localization failure
rate, the normalized Manhattan localization error, and average precision
for temporal detections under the overlap criterion. Zero denominators
yield 0 by convention so empty runs still produce a report.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from dataclasses import dataclass

from .dataset import manhattan
from .errors import DegenerateGeometryError
from .pipeline import BlinkEvent, temporal_iou

REPORT_VERSION = 3
ME_THRESHOLD = 0.4  # localization counts as correct iff ME <= 0.4
AP_OVERLAP = 0.5  # a detection matches a gt interval iff IoU >= 0.5


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class LocalizationTally:
    n_miss: int
    n_err: int
    n_all: int


def confusion(pairs) -> ConfusionCounts:
    """Counts over (is_blink, predicted_blink) pairs."""
    pairs = list(pairs)
    return ConfusionCounts(tp=sum(1 for a, p in pairs if a and p),
                           fp=sum(1 for a, p in pairs if p and not a),
                           fn=sum(1 for a, p in pairs if a and not p))


def prf(counts: ConfusionCounts) -> tuple[float, float, float]:
    """(recall, precision, f1) with the 0-denominator -> 0 convention."""
    pos = counts.tp + counts.fn
    pred = counts.tp + counts.fp
    recall = counts.tp / pos if pos else 0.0
    precision = counts.tp / pred if pred else 0.0
    f1 = (2 * recall * precision / (recall + precision)
          if recall > 0 and precision > 0 else 0.0)
    return recall, precision, f1


def me(detected, gt, gt_left, gt_right) -> float:
    """Manhattan distance to ground truth over inter-ocular distance."""
    denom = manhattan(gt_left, gt_right)
    if denom == 0:
        raise DegenerateGeometryError("coincident ground-truth eye centers")
    return manhattan(detected, gt) / denom


def localized(boxes, annotations, eye: str) -> bool:
    """Whether every box of the ``eye`` track has ME <= ``ME_THRESHOLD``;
    a frame without both gt centers has no ME and does not count."""
    return all(me(box[:2], rec.left_eye if eye == "left" else rec.right_eye,
                  rec.left_eye, rec.right_eye) <= ME_THRESHOLD
               for box, rec in zip(boxes, annotations)
               if rec.left_eye.visible and rec.right_eye.visible)


def fr(tally: LocalizationTally) -> float:
    """(n_miss + n_err) / n_all."""
    if tally.n_all <= 0:
        raise ValueError("n_all must be positive")
    return (tally.n_miss + tally.n_err) / tally.n_all


def average_precision(events: list[BlinkEvent],
                      gt: list[tuple[int, int]]) -> float:
    """Rank-sum AP with greedy best-IoU matching, one match per gt interval.

    Events are taken in descending confidence; each is a true positive if
    its best IoU against a still-unmatched gt interval reaches
    ``AP_OVERLAP``. AP = sum of precision-at-TP-ranks / |gt|; 0 when gt is
    empty.
    """
    for e in events:
        if e.confidence < 0:
            raise ValueError("negative confidence")
    for a, b in gt:
        if a > b:
            raise ValueError(f"malformed gt interval ({a}, {b})")
    if not gt:
        return 0.0
    ranked = sorted(events, key=lambda e: -e.confidence)
    matched = [False] * len(gt)
    tp, ap = 0, 0.0
    for rank, ev in enumerate(ranked, start=1):
        best, best_iou = -1, 0.0
        for j, interval in enumerate(gt):
            if matched[j]:
                continue
            iou = temporal_iou((ev.start, ev.end), interval)
            if iou > best_iou:
                best, best_iou = j, iou
        if best >= 0 and best_iou >= AP_OVERLAP:
            matched[best] = True
            tp += 1
            ap += tp / rank
    return ap / len(gt)


def _pr_rows(scores) -> list[tuple[float, float, float]]:
    """PR sweep: one row per distinct confidence plus a row at +inf."""
    ranked = sorted(scores, key=lambda s: s[0], reverse=True)
    positives = sum(1 for _, lbl in ranked if lbl)
    rows = [(float("inf"), 0.0, 0.0)]
    tp = 0
    for pred, (thr, lbl) in enumerate(ranked, start=1):
        tp += bool(lbl)
        if pred < len(ranked) and ranked[pred][0] == thr:
            continue  # thr's row counts every score equal to it
        rows.append((thr, tp / pred, tp / positives if positives else 0.0))
    return rows


@contextlib.contextmanager
def written_whole(*paths):
    """Temporary names beside ``paths``, each renamed to its path when the
    block completes; if the block or a rename fails, the temporaries and
    the paths renamed so far are removed: a failed command writes none."""
    temps = [path + ".tmp" for path in paths]
    renamed = []
    try:
        yield temps
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
            renamed.append(path)
    finally:
        if len(renamed) < len(paths):  # the block or a rename failed
            for path in filter(os.path.exists, temps + renamed):
                os.remove(path)


def emit_report(path: str, per_eye: dict, scores, seed: int,
                config_hash: str) -> None:
    """Write ``path``.json, ``path``.csv and ``path``_pr.csv deterministically.

    ``per_eye`` maps each eye to its recall, precision, f1 and fr (None:
    not measured); ``scores`` holds one (confidence, is_blink) per row.
    """
    payload = {"version": REPORT_VERSION, "per_eye": per_eye, "seed": seed,
               "config_hash": config_hash}
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with written_whole(path + ".json", path + ".csv",
                       path + "_pr.csv") as [json_temp, csv_temp, pr_temp]:
        with open(json_temp, "w") as f:
            f.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        with open(csv_temp, "w", newline="") as f:
            csv.writer(f).writerows(
                [["eye", "recall", "precision", "f1", "fr"]]
                + [[eye] + ["" if vals[k] is None else repr(vals[k])
                            for k in ("recall", "precision", "f1", "fr")]
                   for eye, vals in sorted(per_eye.items())])
        with open(pr_temp, "w", newline="") as f:
            csv.writer(f).writerows([("threshold", "precision", "recall"), *(
                map(repr, row) for row in _pr_rows(scores))])


def load_report(path: str) -> dict:
    with open(path + ".json") as f:
        return json.load(f)
