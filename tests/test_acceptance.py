"""End-to-end acceptance gates.

Each test is one shipping criterion; the terminal summary (see conftest)
prints one PASS/FAIL line per criterion. The real-footage protocol check
runs only when BLINKWILD_REAL_MANIFEST points at an annotated dataset.
"""

import json
import os
import time

import numpy as np
import pytest

from blinkwild import cli, dataset, evaluation, features, mslstm, pipeline
from conftest import max_rel_grad_err, tiny_model
from test_evaluation import reference_ap
from test_features import naive_uniform_lbp
from test_pipeline import reference_nms, _event
from test_tracker import brute_gaussian_correlation, smooth_image

TRAIN_COUNT = 100  # per class
TEST_COUNT = 40    # per class


def _annotated_regions(clip, eye):
    regions = []
    for rec in clip.annotations:
        c = rec.left_eye if eye == "left" else rec.right_eye
        h, w = dataset.eye_region(rec.left_eye, rec.right_eye, rec.face_box)
        regions.append((c.x, c.y, h, w))
    return regions


def _build_split(n_per_class, seed_base):
    clips = []
    for i in range(n_per_class):
        clips.append(dataset.synth_clip(seed_base + 2 * i,
                                        dataset.LABEL_BLINK, 10))
        clips.append(dataset.synth_clip(seed_base + 2 * i + 1,
                                        dataset.LABEL_NONBLINK, 10))
    return clips


def _featurized(clips):
    out = []
    for clip in clips:
        label = (mslstm.CLASS_BLINK if clip.label == dataset.LABEL_BLINK
                 else mslstm.CLASS_NONBLINK)
        for eye in ("left", "right"):
            seq = features.featurize_frames(clip.frames,
                                            _annotated_regions(clip, eye))
            out.append((seq, label))
    return out


def _verified_f1(model, clips):
    """Tracked end-to-end verification, per-eye F1."""
    counts = {eye: [0, 0, 0] for eye in ("left", "right")}  # tp, fp, fn
    for clip in clips:
        verdicts = pipeline.verify_clip(clip, pipeline.annotation_locator(clip),
                                        model)
        positive = clip.label == dataset.LABEL_BLINK
        for eye, v in verdicts.items():
            predicted = v.label == dataset.LABEL_BLINK and not v.lost
            if positive and predicted:
                counts[eye][0] += 1
            elif positive:
                counts[eye][2] += 1
            elif predicted:
                counts[eye][1] += 1
    return {eye: evaluation.prf(evaluation.ConfusionCounts(*c))[2]
            for eye, c in counts.items()}


@pytest.fixture(scope="module")
def synthetic_run():
    """Train both loss variants on the standard synthetic split."""
    start = time.perf_counter()
    train_clips = _build_split(TRAIN_COUNT, seed_base=10_000)
    test_clips = _build_split(TEST_COUNT, seed_base=90_000)
    train_set = _featurized(train_clips)
    models = {}
    for loss in ("asoftmax", "softmax"):
        model = mslstm.init_model(seed=0)
        config = mslstm.TrainConfig(max_steps=500, batch_size=32, seed=0,
                                    loss=loss)
        models[loss], _ = mslstm.train(model, train_set, config)
    f1 = {loss: _verified_f1(models[loss], test_clips)
          for loss in ("asoftmax", "softmax")}
    elapsed = time.perf_counter() - start
    return {"models": models, "f1": f1, "elapsed": elapsed}


# ---------------------------------------------------------------------------


def test_gradient_correctness_both_losses():
    start = time.perf_counter()
    r = np.random.default_rng(0)
    model = tiny_model(input_dim=6, hidden=3, layers=2, scales=2, margin=4)
    x = r.normal(size=(4, 5, 6))
    labels = np.array([0, 1, 1, 0])
    for loss_kind in ("softmax", "asoftmax"):
        assert max_rel_grad_err(model, x, labels, loss_kind) < 1e-4
    assert time.perf_counter() - start < 10.0


def test_asoftmax_margin_one_reduction():
    r = np.random.default_rng(1)
    for _ in range(100):
        norm = float(r.uniform(0.1, 6.0))
        cy, co = r.uniform(-1, 1, size=2)
        loss_a, _ = mslstm.asoftmax_loss(norm, float(cy), float(co), 1)
        loss_s, _ = mslstm.softmax_loss(np.array([norm * cy, norm * co]), 0)
        assert abs(loss_a - loss_s) < 1e-12


def test_lbp_oracle_and_invariance():
    assert features.uniform_count() == 58
    r = np.random.default_rng(2)
    for _ in range(50):
        patch = r.integers(0, 256, size=(16, 16))
        hist = features.uniform_lbp(patch.astype(float))
        assert np.array_equal(hist, naive_uniform_lbp(patch))
        remap = np.cumsum(r.uniform(0.1, 1.0, size=256))
        assert np.array_equal(hist, features.uniform_lbp(remap[patch]))


def test_kcf_oracle_and_shift_recovery():
    r = np.random.default_rng(3)
    for _ in range(5):
        x = r.normal(size=(8, 8))
        z = r.normal(size=(8, 8))
        assert np.max(np.abs(tracker_corr(x, z)
                             - brute_gaussian_correlation(x, z, 0.6))) < 1e-6
    base = smooth_image(r, (128, 128))
    from blinkwild import tracker
    state = tracker.kcf_init(base, (64.0, 64.0, 28.0, 28.0),
                             tracker.KcfParams(interp=0.0))
    total = np.array([0, 0])
    for _ in range(50):
        dy, dx = r.integers(-6, 7, size=2)
        # bound the cumulative walk so the target stays well inside the frame
        total = np.clip(total + (dy, dx), -30, 30)
        frame = np.roll(base, tuple(total), axis=(0, 1))
        state, result = tracker.kcf_update(state, frame)
        assert result.region == (64.0 + total[1], 64.0 + total[0], 28.0, 28.0)


def tracker_corr(x, z):
    from blinkwild import tracker
    return tracker.gaussian_correlation(x, z, 0.6)


def test_nms_and_ap_brute_force_equivalence():
    r = np.random.default_rng(4)
    for _ in range(1000):
        proposals = []
        for _ in range(int(r.integers(1, 7))):
            s = int(r.integers(0, 31))
            proposals.append(_event(s, s + int(r.integers(0, 10)),
                                    float(r.uniform(0, 1)),
                                    "left" if r.integers(2) else "right"))
        assert (pipeline.temporal_nms(proposals, 0.33)
                == reference_nms(proposals, 0.33))
    for _ in range(1000):
        gts = []
        for _ in range(int(r.integers(1, 4))):
            s = int(r.integers(0, 40))
            gts.append((s, s + int(r.integers(3, 12))))
        events = []
        for _ in range(int(r.integers(0, 5))):
            s = int(r.integers(0, 40))
            events.append(_event(s, s + int(r.integers(3, 12)),
                                 float(r.uniform(0, 1))))
        assert (evaluation.average_precision(events, gts)
                == pytest.approx(reference_ap(events, gts), abs=1e-12))


def test_metric_arithmetic():
    assert evaluation.prf(evaluation.ConfusionCounts(5, 0, 0)) == (1, 1, 1)
    assert evaluation.prf(evaluation.ConfusionCounts(0, 3, 4)) == (0, 0, 0)
    recall, precision, f1 = evaluation.prf(
        evaluation.ConfusionCounts(66, 8, 56))
    assert abs(recall - 0.5410) < 5e-4
    assert abs(precision - 0.8919) < 5e-4
    assert abs(f1 - 0.6735) < 5e-4
    assert evaluation.fr(evaluation.LocalizationTally(2, 1, 10)) == 0.3
    assert evaluation.me((7, 7), (5, 5), (0, 0), (5, 5)) == pytest.approx(0.4)
    assert evaluation.me((8, 8), (5, 5), (0, 0), (5, 5)) == pytest.approx(0.6)


def test_synthetic_learning_f1(synthetic_run):
    f1 = synthetic_run["f1"]
    assert min(f1["asoftmax"].values()) >= 0.95
    for eye in ("left", "right"):
        assert f1["asoftmax"][eye] >= f1["softmax"][eye] - 0.02
    assert synthetic_run["elapsed"] < 300.0


def test_untrimmed_detection(synthetic_run):
    model = synthetic_run["models"]["asoftmax"]
    events_by_eye = {"left": [], "right": []}
    gts = []
    for i in range(20):
        center = 15 + (i % 21)
        clip, gt = dataset.synth_stream(5_000 + i, 50, blink_center=center)
        offset = 1000 * i  # keep streams disjoint on a shared timeline
        gts.append((gt[0] + offset, gt[1] + offset))
        for ev in pipeline.detect_stream(clip.frames,
                                         pipeline.annotation_locator(clip),
                                         model):
            events_by_eye[ev.eye].append(
                pipeline.BlinkEvent(ev.start + offset, ev.end + offset,
                                    ev.confidence, ev.eye))
    for eye in ("left", "right"):
        ap = evaluation.average_precision(events_by_eye[eye], gts)
        assert ap >= 0.9, f"{eye} eye AP {ap:.3f}"
    for i in range(20):
        clip, _ = dataset.synth_stream(7_000 + i, 50, blink_center=None)
        events = pipeline.detect_stream(clip.frames,
                                        pipeline.annotation_locator(clip),
                                        model)
        assert events == [], f"negative stream {i} produced {events}"


def test_throughput_budget(tmp_path):
    out = tmp_path / "bench.json"
    assert cli.main(["--seed", "0", "bench", "--frames", "500",
                     "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["frames"] >= 500
    assert data["median_total_ms"] <= 10.0, data


@pytest.mark.skipif("BLINKWILD_REAL_MANIFEST" not in os.environ,
                    reason="annotated real-footage dataset not configured")
def test_real_dataset_protocol():
    """Full protocol on real annotated footage, when available.

    Train on the manifest's train split with the default schedule, verify
    the test split through the tracked pipeline, and compare per-eye F1
    against the published reference values within +-0.08.
    """
    manifest = dataset.load_manifest(os.environ["BLINKWILD_REAL_MANIFEST"])
    steps = int(os.environ.get("BLINKWILD_REAL_STEPS", "3000"))
    train_clips = [dataset.load_clip(e.clip_dir, e.label, e.source_id)
                   for e in manifest.split("train")]
    test_clips = [dataset.load_clip(e.clip_dir, e.label, e.source_id)
                  for e in manifest.split("test")]
    model = mslstm.init_model(seed=0)
    config = mslstm.TrainConfig(max_steps=steps, seed=0)
    model, _ = mslstm.train(model, _featurized(train_clips), config)
    f1 = _verified_f1(model, test_clips)
    reference = {"left": 0.7589, "right": 0.8046}
    for eye in ("left", "right"):
        delta = f1[eye] - reference[eye]
        print(f"{eye}: F1 {f1[eye]:.4f} (reference {reference[eye]:.4f}, "
              f"delta {delta:+.4f})")
        assert abs(delta) <= 0.08
