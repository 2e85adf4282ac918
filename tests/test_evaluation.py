import json
from pathlib import Path

import numpy as np
import pytest

from blinkwild import evaluation
from blinkwild.errors import DegenerateGeometryError
from blinkwild.pipeline import BlinkEvent, temporal_iou
from conftest import make_annotation


def reference_ap(events, gt, overlap=0.5):
    """Independent rank-sum AP with greedy best-IoU matching."""
    if not gt:
        return 0.0
    order = sorted(events, key=lambda e: -e.confidence)
    unmatched = list(range(len(gt)))
    ap = 0.0
    tp = 0
    for rank, ev in enumerate(order, start=1):
        best, best_iou = None, 0.0
        for j in unmatched:
            iou = temporal_iou((ev.start, ev.end), gt[j])
            if iou >= overlap and iou > best_iou:
                best, best_iou = j, iou
        if best is not None:
            unmatched.remove(best)
            tp += 1
            ap += tp / rank
    return ap / len(gt)


def _event(start, end, conf, eye="left"):
    return BlinkEvent(start=start, end=end, confidence=conf, eye=eye)


# ---------------------------------------------------------------------------
# prf


def test_prf_perfect():
    assert evaluation.prf(evaluation.ConfusionCounts(5, 0, 0)) == (1, 1, 1)


def test_prf_zero_conventions():
    assert evaluation.prf(evaluation.ConfusionCounts(0, 3, 4)) == (0, 0, 0)
    assert evaluation.prf(evaluation.ConfusionCounts(0, 0, 0)) == (0, 0, 0)


def test_prf_reference_row():
    recall, precision, f1 = evaluation.prf(
        evaluation.ConfusionCounts(tp=66, fp=8, fn=56))
    assert abs(recall - 0.5410) < 5e-4
    assert abs(precision - 0.8919) < 5e-4
    assert abs(f1 - 0.6735) < 5e-4


def test_prf_monotone_in_tp(rng):
    for _ in range(50):
        tp, fp, fn = (int(v) for v in rng.integers(0, 20, size=3))
        a = evaluation.prf(evaluation.ConfusionCounts(tp, fp, fn))
        b = evaluation.prf(evaluation.ConfusionCounts(tp + 1, fp, fn))
        assert all(y >= x for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# me


def test_me_exact_hit():
    assert evaluation.me((5, 5), (5, 5), (0, 0), (10, 0)) == 0.0


def test_me_boundary_is_correct():
    val = evaluation.me((7, 7), (5, 5), (0, 0), (5, 5))
    assert val == pytest.approx(0.4)
    assert val <= evaluation.ME_THRESHOLD


def test_me_failure_case():
    val = evaluation.me((8, 8), (5, 5), (0, 0), (5, 5))
    assert val == pytest.approx(0.6)
    assert val > evaluation.ME_THRESHOLD


def test_localized_counts_only_frames_with_both_eyes():
    both = make_annotation(left=(0, 0), right=(5, 5))
    one = make_annotation(left=(-1, -1), right=(5, 5))
    # ME exactly ME_THRESHOLD is correct (4 / 10 == 0.4 in floats)
    assert evaluation.localized([(7, 7, 4, 4)], [both], "right")
    assert not evaluation.localized([(8, 8, 4, 4)], [both], "right")
    # the left gt center is unannotated on frame 1: no ME, no error
    assert evaluation.localized([(0, 0, 4, 4), (30, 30, 4, 4)],
                                [both, one], "left")
    assert not evaluation.localized([(0, 0, 4, 4), (30, 30, 4, 4)],
                                    [both, both], "left")


def test_me_degenerate_geometry():
    with pytest.raises(DegenerateGeometryError):
        evaluation.me((1, 1), (2, 2), (3, 3), (3, 3))


def test_me_translation_and_scale_invariant(rng):
    for _ in range(25):
        pts = rng.uniform(-50, 50, size=(4, 2))
        if np.abs(pts[2] - pts[3]).sum() == 0:
            continue
        base = evaluation.me(*map(tuple, pts))
        shift = rng.uniform(-20, 20, size=2)
        shifted = evaluation.me(*(tuple(p + shift) for p in pts))
        scaled = evaluation.me(*(tuple(2.5 * p) for p in pts))
        assert np.isclose(base, shifted)
        assert np.isclose(base, scaled)


# ---------------------------------------------------------------------------
# fr


def test_fr_examples():
    assert evaluation.fr(evaluation.LocalizationTally(0, 0, 10)) == 0.0
    assert evaluation.fr(evaluation.LocalizationTally(2, 1, 10)) == 0.3


def test_fr_reference_scale():
    # 39 failures over 122 samples reproduces the 0.3197 reference rate
    assert abs(evaluation.fr(evaluation.LocalizationTally(39, 0, 122))
               - 0.3197) < 5e-4


def test_fr_zero_total_rejected():
    with pytest.raises(ValueError):
        evaluation.fr(evaluation.LocalizationTally(0, 0, 0))


def test_fr_monotone(rng):
    for _ in range(20):
        miss, err = (int(v) for v in rng.integers(0, 5, size=2))
        base = evaluation.fr(evaluation.LocalizationTally(miss, err, 20))
        assert evaluation.fr(
            evaluation.LocalizationTally(miss + 1, err, 20)) >= base
        assert evaluation.fr(
            evaluation.LocalizationTally(miss, err + 1, 20)) >= base


# ---------------------------------------------------------------------------
# average precision


def test_ap_perfect_detection():
    gt = [(0, 9), (20, 29)]
    events = [_event(0, 9, 0.3), _event(20, 29, 0.8)]
    assert evaluation.average_precision(events, gt) == 1.0


def test_ap_no_events():
    assert evaluation.average_precision([], [(0, 9)]) == 0.0
    assert evaluation.average_precision([], []) == 0.0


def test_ap_rank_example():
    gt = [(0, 9), (20, 29)]
    events = [_event(0, 9, 0.9), _event(40, 49, 0.8), _event(20, 29, 0.7)]
    assert evaluation.average_precision(events, gt) == pytest.approx(
        (1.0 + 2.0 / 3.0) / 2.0)


def test_ap_negative_confidence_rejected():
    with pytest.raises(ValueError):
        evaluation.average_precision([_event(0, 9, -0.1)], [(0, 9)])


def test_ap_matches_brute_force(rng):
    for _ in range(1000):
        n_ev = int(rng.integers(0, 5))
        n_gt = int(rng.integers(1, 4))
        gts, events = [], []
        for _ in range(n_gt):
            s = int(rng.integers(0, 40))
            gts.append((s, s + int(rng.integers(3, 12))))
        for _ in range(n_ev):
            s = int(rng.integers(0, 40))
            events.append(_event(s, s + int(rng.integers(3, 12)),
                                 float(rng.uniform(0, 1))))
        got = evaluation.average_precision(events, gts)
        assert got == pytest.approx(reference_ap(events, gts))


def test_ap_invariant_to_monotone_confidence_map(rng):
    gt = [(0, 9), (15, 24), (30, 39)]
    events = [_event(int(s), int(s) + 9, float(c))
              for s, c in zip(rng.integers(0, 35, 6), rng.uniform(0, 1, 6))]
    base = evaluation.average_precision(events, gt)
    mapped = [BlinkEvent(e.start, e.end, float(np.exp(e.confidence) - 0.9),
                         e.eye) for e in events]
    assert evaluation.average_precision(mapped, gt) == pytest.approx(base)


# ---------------------------------------------------------------------------
# report emission


SAMPLE_PER_EYE = {"left": {"recall": 1 / 3, "precision": 0.5, "f1": 0.4,
                           "fr": 0.125},
                  "right": {"recall": 0.75, "precision": 0.6, "f1": 2 / 3,
                            "fr": None}}


def _emit_sample(path):
    evaluation.emit_report(path, SAMPLE_PER_EYE,
                           [(0.9, True), (0.8, False), (0.8, True),
                            (0.4, False), (0.2, True)],
                           seed=7, config_hash="abc123")


def test_report_round_trip_exact(tmp_path):
    path = str(tmp_path / "rep")
    _emit_sample(path)
    back = evaluation.load_report(path)
    assert back == {"version": 3, "per_eye": SAMPLE_PER_EYE, "seed": 7,
                    "config_hash": "abc123"}  # floats bit-exact
    assert evaluation.REPORT_VERSION == 3


def test_report_emission_deterministic(tmp_path):
    blobs = []
    for name in ("a", "b"):
        path = str(tmp_path / name)
        _emit_sample(path)
        blobs.append(tuple(Path(path + suffix).read_bytes()
                           for suffix in (".json", ".csv", "_pr.csv")))
    assert blobs[0] == blobs[1]


def test_pr_curve_row_count(tmp_path):
    path = str(tmp_path / "rep")
    _emit_sample(path)  # 5 events, 4 distinct confidences
    lines = Path(path + "_pr.csv").read_text().strip().splitlines()
    assert lines[0] == "threshold,precision,recall"
    assert len(lines) - 1 == 4 + 1  # distinct thresholds + the +inf row
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    # threshold, precision, recall: 3 positives; a threshold counts every
    # score at or above it
    assert rows == [(float("inf"), 0.0, 0.0), (0.9, 1.0, 1 / 3),
                    (0.8, 2 / 3, 2 / 3), (0.4, 0.5, 2 / 3), (0.2, 0.6, 1.0)]
