import numpy as np
import pytest

from blinkwild import dataset, features


# independent per-pixel reference for the 59-bin histogram
_OFFSETS = [(-1, -1), (-1, 0), (-1, 1), (0, 1),
            (1, 1), (1, 0), (1, -1), (0, -1)]


def _circular_transitions(code):
    bits = [(code >> i) & 1 for i in range(8)]
    return sum(bits[i] != bits[(i + 1) % 8] for i in range(8))


_UNIFORM_CODES = [c for c in range(256) if _circular_transitions(c) <= 2]
_BIN_OF = {c: i for i, c in enumerate(_UNIFORM_CODES)}


def naive_uniform_lbp(patch):
    patch = np.asarray(patch, dtype=np.float64)
    hist = np.zeros(59)
    for y in range(1, patch.shape[0] - 1):
        for x in range(1, patch.shape[1] - 1):
            code = 0
            for b, (dy, dx) in enumerate(_OFFSETS):
                if patch[y + dy, x + dx] >= patch[y, x]:
                    code |= 1 << b
            hist[_BIN_OF.get(code, 58)] += 1
    return hist / hist.sum()


def _synth_eye_hists(seed=0, label=dataset.LABEL_BLINK):
    clip = dataset.synth_clip(seed, label, 10)
    hists = []
    for frame, rec in zip(clip.frames, clip.annotations):
        size = dataset.eye_region(rec.left_eye, rec.right_eye, rec.face_box)
        patch = dataset.crop_eye(frame, rec.left_eye, size)
        patch = features.resize_patch(patch, (24, 24))
        hists.append(features.uniform_lbp(patch))
    return clip, hists


# ---------------------------------------------------------------------------
# resize_patch


def test_resize_identity(rng):
    patch = rng.integers(0, 256, size=(9, 7)).astype(float)
    assert np.allclose(features.resize_patch(patch, (9, 7)), patch)


def test_resize_constant():
    patch = np.full((5, 5), 42.0)
    for size in ((2, 2), (8, 3), (1, 10)):
        out = features.resize_patch(patch, size)
        assert out.shape == size
        assert np.allclose(out, 42.0)


def test_resize_linear_columns():
    patch = np.array([[0.0, 255.0], [0.0, 255.0]])
    out = features.resize_patch(patch, (2, 4))
    assert np.allclose(out, [[0, 85, 170, 255], [0, 85, 170, 255]])


def test_resize_zero_dimension_rejected():
    with pytest.raises(ValueError):
        features.resize_patch(np.zeros((3, 3)), (0, 3))


# ---------------------------------------------------------------------------
# uniform_lbp


def test_uniform_pattern_count_is_58():
    assert features.uniform_count() == 58
    assert len(_UNIFORM_CODES) == 58


def test_constant_patch_single_bin():
    hist = features.uniform_lbp(np.full((8, 8), 9.0))
    assert hist.shape == (59,)
    assert np.isclose(hist.sum(), 1.0)
    assert np.count_nonzero(hist) == 1
    assert np.isclose(hist[_BIN_OF[255]], 1.0)


def test_step_edge_offset_invariant():
    patch = np.zeros((10, 10))
    patch[:, 5:] = 255.0
    assert np.array_equal(features.uniform_lbp(patch),
                          features.uniform_lbp(patch + 10.0))


def test_matches_naive_reference(rng):
    for _ in range(50):
        patch = rng.integers(0, 256, size=(16, 16)).astype(float)
        assert np.array_equal(features.uniform_lbp(patch),
                              naive_uniform_lbp(patch))


def test_monotone_remap_invariance(rng):
    for _ in range(50):
        patch = rng.integers(0, 256, size=(16, 16))
        remap = np.cumsum(rng.uniform(0.1, 1.0, size=256))
        assert np.array_equal(features.uniform_lbp(patch.astype(float)),
                              features.uniform_lbp(remap[patch]))


def test_histogram_contract(rng):
    for _ in range(10):
        patch = rng.integers(0, 256, size=(12, 9)).astype(float)
        hist = features.uniform_lbp(patch)
        assert hist.shape == (59,)
        assert np.all(hist >= 0)
        assert abs(hist.sum() - 1.0) < 1e-9


def test_too_small_patch_rejected():
    with pytest.raises(ValueError):
        features.uniform_lbp(np.zeros((2, 5)))


def test_uniform_lbp_and_resize_on_a_stack(rng):
    stack = rng.integers(0, 256, size=(2, 3, 11, 9)).astype(float)
    resized = features.resize_patch(stack, (7, 8))
    hists = features.uniform_lbp(stack)
    assert resized.shape == (2, 3, 7, 8) and hists.shape == (2, 3, 59)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(resized[idx],
                              features.resize_patch(stack[idx], (7, 8)))
        assert np.array_equal(hists[idx], naive_uniform_lbp(stack[idx]))


# ---------------------------------------------------------------------------
# motion half of the feature steps


def _motion(curr, prev):
    return features.steps_from_histograms([prev, curr])[0, 59:]


def test_motion_identical_zero(rng):
    h = features.uniform_lbp(rng.integers(0, 256, size=(8, 8)).astype(float))
    assert np.array_equal(_motion(h, h), np.zeros(59))


def test_motion_antisymmetric(rng):
    a = features.uniform_lbp(rng.integers(0, 256, size=(8, 8)).astype(float))
    b = features.uniform_lbp(rng.integers(0, 256, size=(8, 8)).astype(float))
    assert np.allclose(_motion(a, b), -_motion(b, a))


def test_motion_l1_bounded(rng):
    a = features.uniform_lbp(rng.integers(0, 256, size=(8, 8)).astype(float))
    b = features.uniform_lbp(rng.integers(0, 256, size=(8, 8)).astype(float))
    assert np.abs(_motion(a, b)).sum() <= 2.0 + 1e-12


def test_motion_larger_across_eye_closure():
    _, hists = _synth_eye_hists(seed=2)
    closing = np.abs(_motion(hists[5], hists[0])).sum()
    open_pair = np.abs(_motion(hists[1], hists[0])).sum()
    assert closing > open_pair


# ---------------------------------------------------------------------------
# featurize


def _regions_for(clip, eye="left"):
    regions = []
    for rec in clip.annotations:
        c = rec.left_eye if eye == "left" else rec.right_eye
        h, w = dataset.eye_region(rec.left_eye, rec.right_eye, rec.face_box)
        regions.append((c.x, c.y, h, w))
    return regions


def test_featurize_shape_10_frames():
    clip = dataset.synth_clip(0, dataset.LABEL_BLINK, 10)
    steps = features.featurize_frames(clip.frames, _regions_for(clip))
    assert steps.shape == (9, 118)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_featurize_length_property(n):
    clip = dataset.synth_clip(1, dataset.LABEL_NONBLINK, n)
    steps = features.featurize_frames(clip.frames, _regions_for(clip))
    assert steps.shape == (n - 1, 118)


def test_featurize_identical_frames_zero_motion(rng):
    frame = rng.integers(0, 256, size=(40, 40)).astype(np.uint8)
    regions = [(20, 20, 12, 12)] * 2
    steps = features.featurize_frames([frame, frame], regions)
    assert steps.shape == (1, 118)
    assert np.array_equal(steps[0, 59:], np.zeros(59))
    assert np.isclose(steps[0, :59].sum(), 1.0)


def test_featurize_column_layout(rng):
    f0 = rng.integers(0, 256, size=(40, 40)).astype(np.uint8)
    f1 = rng.integers(0, 256, size=(40, 40)).astype(np.uint8)
    regions = [(20, 20, 12, 12)] * 2
    steps = features.featurize_frames([f0, f1], regions)
    crop = lambda f: features.resize_patch(
        dataset.crop_eye(f, dataset.EyeCenter(20, 20), (12, 12)), (24, 24))
    h0 = features.uniform_lbp(crop(f0))
    h1 = features.uniform_lbp(crop(f1))
    assert np.allclose(steps[0, :59], h1)
    assert np.allclose(steps[0, 59:], h1 - h0)


def test_frame_histograms_match_per_frame_crops():
    clip = dataset.synth_clip(3, dataset.LABEL_BLINK, 6)
    regions = _regions_for(clip)
    hists = features.frame_histograms(clip.frames, regions)
    assert hists.shape == (6, 59)
    for frame, (cx, cy, h, w), hist in zip(clip.frames, regions, hists):
        patch = dataset.crop_eye(frame, dataset.EyeCenter(cx, cy),
                                 (int(round(h)), int(round(w))))
        want = features.uniform_lbp(features.resize_patch(patch, (24, 24)))
        assert np.array_equal(hist, want)
    steps = features.steps_from_histograms(hists)
    assert np.array_equal(steps[:, :59], hists[1:])
    assert np.array_equal(steps[:, 59:], hists[1:] - hists[:-1])
    assert np.array_equal(features.featurize_frames(clip.frames, regions),
                          steps)
    with pytest.raises(ValueError):
        features.steps_from_histograms(hists[:1])
    with pytest.raises(ValueError):
        features.frame_histograms(clip.frames, regions[:-1])


def test_stacked_frame_histograms_match_naive_per_frame(monkeypatch):
    clip = dataset.synth_clip(8, dataset.LABEL_BLINK, 10)
    regions = _regions_for(clip)
    # the region grows mid-track, as after a re-localization, and shrinks
    # again; with stacks of 3 frames the size changes and stack boundaries
    # fall at different frames
    regions = (regions[:4] + [(cx, cy, h + 4, w + 6)
                              for cx, cy, h, w in regions[4:7]]
               + regions[7:])
    monkeypatch.setattr(features, "FRAME_BATCH", 3)
    hists = features.frame_histograms(clip.frames, regions)
    assert hists.shape == (10, 59)
    for frame, (cx, cy, h, w), hist in zip(clip.frames, regions, hists):
        patch = dataset.crop_eye(frame, dataset.EyeCenter(cx, cy),
                                 (int(round(h)), int(round(w))))
        want = naive_uniform_lbp(features.resize_patch(patch, (24, 24)))
        assert np.array_equal(hist, want)


def test_featurize_order_sensitive():
    clip = dataset.synth_clip(4, dataset.LABEL_BLINK, 10)
    regions = _regions_for(clip)
    fwd = features.featurize_frames(clip.frames, regions)
    rev = features.featurize_frames(clip.frames[::-1], regions[::-1])
    assert not np.allclose(fwd, rev)

