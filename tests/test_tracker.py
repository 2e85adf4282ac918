import sys
from dataclasses import replace

import numpy as np
import pytest

from blinkwild import dataset, pipeline, tracker
from blinkwild.errors import TrackLostError

# Python-level calls (``call`` and ``c_call`` profile events) per tracked
# frame of ``track_eyes`` on one seeded 100-frame stream: 260 measured,
# bound 10 % above, so that added per-frame overhead fails here
CALLS_PER_FRAME = 286


def brute_gaussian_correlation(x, z, sigma_k):
    """O(N^2) spatial-domain oracle for the circular kernel map."""
    h, w = x.shape
    n = x.size
    ex = float(np.sum(x * x))
    ez = float(np.sum(z * z))
    out = np.empty((h, w))
    for ty in range(h):
        for tx in range(w):
            corr = float(np.sum(x * np.roll(z, (ty, tx), axis=(0, 1))))
            d = max((ex + ez - 2.0 * corr), 0.0) / (sigma_k ** 2 * n)
            out[ty, tx] = np.exp(-d)
    return out


def smooth_image(rng, shape=(96, 96)):
    """Low-frequency random image so correlation peaks are unambiguous."""
    coarse = rng.uniform(0, 255, size=(shape[0] // 8, shape[1] // 8))
    img = np.kron(coarse, np.ones((8, 8)))
    img += rng.normal(0, 2, size=img.shape)
    return np.clip(img, 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# gaussian_correlation


def test_self_correlation_peak_is_one(rng):
    x = rng.normal(size=(8, 8))
    k = tracker.gaussian_correlation(x, x, 0.5)
    assert np.isclose(k[0, 0], 1.0)
    assert np.all(k <= 1.0 + 1e-12)


def test_matches_spatial_oracle(rng):
    for _ in range(10):
        x = rng.normal(size=(8, 8))
        z = rng.normal(size=(8, 8))
        fast = tracker.gaussian_correlation(x, z, 0.7)
        slow = brute_gaussian_correlation(x, z, 0.7)
        assert np.max(np.abs(fast - slow)) < 1e-6


def test_swap_mirrors_lag_axis(rng):
    x = rng.normal(size=(6, 6))
    z = rng.normal(size=(6, 6))
    kxz = tracker.gaussian_correlation(x, z, 0.5)
    kzx = tracker.gaussian_correlation(z, x, 0.5)
    for ty in range(6):
        for tx in range(6):
            assert np.isclose(kxz[ty, tx], kzx[(-ty) % 6, (-tx) % 6])


def test_dimension_mismatch_rejected(rng):
    with pytest.raises(ValueError):
        tracker.gaussian_correlation(rng.normal(size=(4, 4)),
                                     rng.normal(size=(4, 5)), 0.5)


def test_dft_round_trip(rng):
    x = rng.normal(size=(13, 17))
    back = np.fft.ifft2(np.fft.fft2(x))
    assert np.max(np.abs(back - x)) < 1e-9 * max(1.0, np.max(np.abs(x)))


# ---------------------------------------------------------------------------
# init / update


def full_update(stack, frame):
    """Locate, then retrain on every frame: the tracker's full update, as
    the stacked calls ``track_clips`` makes, on a copy of a one-row
    stack."""
    located = tracker.stack_locate(stack, [frame])
    stack = replace(stack, template_hat=stack.template_hat.copy(),
                    alpha_hat=stack.alpha_hat.copy(),
                    regions=stack.regions.copy())
    tracker.stack_adapt(stack, np.array([0]), [frame], located)
    return stack, tracker.TrackResult(tuple(located.regions[0].tolist()),
                                      float(located.scores[0]))


def test_self_detection_score_near_one(rng):
    frame = smooth_image(rng)
    region = (48.0, 48.0, 20.0, 20.0)
    state = tracker.kcf_init(frame, region)
    state, result = tracker.kcf_update(state, frame)
    assert result.region == region
    assert abs(result.score - 1.0) <= 1e-3


def test_update_same_frame_keeps_region_default_params(rng):
    frame = smooth_image(rng)
    region = (40.0, 50.0, 16.0, 16.0)
    state = tracker.kcf_init(frame, region)
    for _ in range(3):
        state, result = tracker.kcf_update(state, frame)
        assert result.region == region


def test_constant_patch_defined_behavior():
    frame = np.full((64, 64), 128, dtype=np.uint8)
    region = (32.0, 32.0, 16.0, 16.0)
    state = tracker.kcf_init(frame, region)
    state, result = tracker.kcf_update(state, frame)
    assert result.region[:2] == (32.0, 32.0)
    assert np.isfinite(result.score)


def test_degenerate_region_rejected(rng):
    frame = smooth_image(rng)
    with pytest.raises(ValueError):
        tracker.kcf_init(frame, (10.0, 10.0, 1.0, 1.0))


def test_too_small_region_is_a_lost_track(rng):
    """A padded side below 4 px ends the track the way a region leaving
    the frame does; 4 px is the smallest side kept."""
    frame = smooth_image(rng)
    with pytest.raises(TrackLostError):
        tracker.kcf_init(frame, (48.0, 48.0, 1.0, 1.0))  # 2.5 rounds to 2
    state = tracker.kcf_init(frame, (48.0, 48.0, 1.4, 1.4))  # 3.5 to 4
    assert state.window.shape == (4, 4)


def test_center_outside_frame_is_lost(rng):
    frame = smooth_image(rng)
    state = tracker.kcf_init(frame, (48.0, 48.0, 16.0, 16.0))
    state.regions[0] = (-50.0, -50.0, 16.0, 16.0)
    with pytest.raises(TrackLostError):
        tracker.kcf_update(state, frame)


@pytest.mark.parametrize("cx,cy,inside", [
    (0.0, 9.0, True), (9.0, 0.0, True), (29.0, 9.0, True), (9.0, 19.0, True),
    (-0.5, 9.0, False), (9.0, -0.5, False), (30.0, 9.0, False),
    (9.0, 20.0, False),
])
def test_in_frame_boundaries(cx, cy, inside):
    """A center lies inside a 20x30 frame iff 0 <= x < 30 and 0 <= y < 20;
    ``track_size`` starts a track exactly there."""
    frame = np.zeros((20, 30), dtype=np.uint8)
    region = (cx, cy, 4.0, 4.0)
    assert tracker.in_frame(frame, region) == inside
    if inside:
        assert tracker.track_size(frame, region) == (10, 10)
    else:
        with pytest.raises(TrackLostError):
            tracker.track_size(frame, region)


def test_integer_shift_recovery_50_frames(rng):
    base = smooth_image(rng, (128, 128))
    cx, cy = 64.0, 64.0
    state = tracker.kcf_init(base, (cx, cy, 28.0, 28.0))
    total = np.array([0, 0])
    for step in range(50):
        dx, dy = rng.integers(-6, 7, size=2)
        # shifting content by (dy,dx) moves the target with it; bound the
        # cumulative walk so the target stays well inside the frame
        total = np.clip(total + (dy, dx), -30, 30)
        frame = np.roll(base, (total[0], total[1]), axis=(0, 1))
        state, result = tracker.kcf_update(state, frame)
        assert result.region == (cx + total[1], cy + total[0], 28.0, 28.0)


def test_noise_triggers_low_score(rng):
    base = smooth_image(rng)
    below = 0
    for seed in range(100):
        r = np.random.default_rng(seed)
        state = tracker.kcf_init(base, (48.0, 48.0, 20.0, 20.0))
        noise = r.integers(0, 256, size=base.shape).astype(np.uint8)
        _, result = tracker.kcf_update(state, noise)
        below += result.score < 0.25
    assert below >= 90


def test_score_monotone_in_noise(rng):
    base = smooth_image(rng)
    scores = []
    for sigma in (0, 8, 32):
        state = tracker.kcf_init(base, (48.0, 48.0, 20.0, 20.0))
        r = np.random.default_rng(1)
        frame = np.clip(base.astype(float) + r.normal(0, sigma, base.shape),
                        0, 255)
        _, result = tracker.kcf_update(state, frame)
        scores.append(result.score)
    assert scores[0] >= scores[1] >= scores[2]


# ---------------------------------------------------------------------------
# Fourier-domain model vs the spatial-template reference


def reference_correlation(x, z, sigma_k):
    """Kernel map through full complex FFTs of both patches."""
    cross = np.fft.ifft2(np.fft.fft2(x) * np.conj(np.fft.fft2(z))).real
    d = (np.sum(x * x) + np.sum(z * z) - 2.0 * cross) / x.size
    return np.exp(-np.maximum(d, 0.0) / (sigma_k ** 2))


def reference_init(frame, region):
    """KCF that keeps a spatial template and complex-FFT alpha_hat."""
    size = (round(region[2] * tracker.PADDING),
            round(region[3] * tracker.PADDING))
    window = np.outer(np.hanning(size[0]), np.hanning(size[1]))
    y_hat = np.fft.fft2(tracker._target_response(size))
    template = tracker._preprocess(
        tracker._extract(frame, region, size) / 255.0, window)
    k_xx = reference_correlation(template, template, tracker.SIGMA_K)
    alpha_hat = y_hat / (np.fft.fft2(k_xx) + tracker.LAMBDA)
    return dict(template=template, alpha_hat=alpha_hat, region=region,
                window=window, y_hat=y_hat)


def reference_update(state, frame):
    rate = tracker.INTERP
    size = state["template"].shape
    probe = tracker._preprocess(
        tracker._extract(frame, state["region"], size) / 255.0,
        state["window"])
    k_zx = reference_correlation(probe, state["template"], tracker.SIGMA_K)
    response = np.fft.ifft2(np.fft.fft2(k_zx) * state["alpha_hat"])
    assert np.max(np.abs(response.imag)) < 1e-9
    response = response.real
    peak = np.unravel_index(int(np.argmax(response)), response.shape)
    dy = tracker._unwrap(peak[0], size[0])
    dx = tracker._unwrap(peak[1], size[1])
    cx, cy, h, w = state["region"]
    region = (cx + dx, cy + dy, h, w)
    state = dict(state, region=region)
    fresh = tracker._preprocess(
        tracker._extract(frame, region, size) / 255.0, state["window"])
    k_xx = reference_correlation(fresh, fresh, tracker.SIGMA_K)
    alpha_fresh = state["y_hat"] / (np.fft.fft2(k_xx) + tracker.LAMBDA)
    state["template"] = (1 - rate) * state["template"] + rate * fresh
    state["alpha_hat"] = (1 - rate) * state["alpha_hat"] + rate * alpha_fresh
    return state, region, float(response[peak])


def test_spectral_model_matches_spatial_reference(rng):
    base = smooth_image(rng, (128, 128))
    assert tracker.INTERP > 0.0
    thresh = 0.25
    for region in [(64.0, 64.0, 20.0, 20.0), (60.0, 70.0, 15.0, 17.0)]:
        fast = tracker.kcf_init(base, region)
        ref = reference_init(base, region)
        total = np.array([0, 0])
        fast_relocs, ref_relocs = [], []
        for t in range(40):
            if t % 13 == 12:
                frame = rng.integers(0, 256, size=base.shape).astype(np.uint8)
            else:
                total = np.clip(total + rng.integers(-4, 5, size=2), -25, 25)
                frame = np.roll(base, (total[0], total[1]), axis=(0, 1))
            fast, result = full_update(fast, frame)
            ref, ref_region, ref_score = reference_update(ref, frame)
            assert result.region == ref_region
            assert abs(result.score - ref_score) < 1e-9
            if result.score < thresh:
                fast_relocs.append(t)
            if ref_score < thresh:
                ref_relocs.append(t)
                # re-localize both at the true target position
                fresh = (region[0] + total[1], region[1] + total[0],
                         region[2], region[3])
                fast = tracker.kcf_init(frame, fresh)
                ref = reference_init(frame, fresh)
        assert fast_relocs == ref_relocs
        assert ref_relocs, "noise frames must trigger re-localization"
        n = ref["template"].size
        assert np.max(np.abs(fast.template_hat[0]
                             - np.fft.rfft2(ref["template"]))) < 1e-9 * n


def test_adapt_matches_spatial_reference(rng, monkeypatch):
    """Changing content with no re-localization, so every retrain counts;
    the region both stays (the probe is reused) and moves."""
    monkeypatch.setattr(tracker, "INTERP", 0.2)
    base = smooth_image(rng, (128, 128))
    region = (64.0, 64.0, 20.0, 20.0)
    fast = tracker.kcf_init(base, region)
    ref = reference_init(base, region)
    total = np.array([0, 0])
    moved = stayed = 0
    for t in range(30):
        if t % 2:
            total = np.clip(total + rng.integers(-3, 4, size=2), -20, 20)
        frame = np.clip(np.roll(base, tuple(total), axis=(0, 1))
                        + rng.normal(0, 12, base.shape), 0, 255)
        before = tuple(fast.regions[0].tolist())
        fast, result = full_update(fast, frame)
        ref, ref_region, ref_score = reference_update(ref, frame)
        assert result.region == ref_region
        assert abs(result.score - ref_score) < 1e-9
        moved += result.region != before
        stayed += result.region == before
    assert moved and stayed
    n = ref["template"].size
    assert np.max(np.abs(fast.template_hat[0]
                         - np.fft.rfft2(ref["template"]))) < 1e-9 * n
    alpha_ref = ref["alpha_hat"][:, :fast.alpha_hat.shape[2]]
    assert np.max(np.abs(fast.alpha_hat[0] - alpha_ref)) < 1e-6 * np.max(
        np.abs(alpha_ref))


def test_update_locates_without_retraining(rng):
    base = smooth_image(rng)
    state = tracker.kcf_init(base, (48.0, 48.0, 20.0, 20.0))
    regions, alpha_hat = state.regions.copy(), state.alpha_hat.copy()
    frame = np.roll(base, (2, -3), axis=(0, 1))
    located, result = tracker.kcf_update(state, frame)
    assert result.region == (45.0, 50.0, 20.0, 20.0)
    assert located.regions.tolist() == [list(result.region)]
    # the input stack is not moved, and the filter is shared, not retrained
    assert np.array_equal(state.regions, regions)
    assert located.template_hat is state.template_hat
    assert located.alpha_hat is state.alpha_hat
    assert np.array_equal(state.alpha_hat, alpha_hat)
    adapted, _ = full_update(state, frame)
    assert adapted.regions.tolist() == located.regions.tolist()
    assert not np.array_equal(adapted.alpha_hat, state.alpha_hat)


def test_adapt_keeps_only_its_rows_in_their_order(rng):
    """A three-row stack adapted with rows [2, 0] holds rows 2 and 0, in
    that order, each as its own one-row full update would leave it; row 1
    is gone. Row 0's frame moves its region and row 2's does not."""
    base = smooth_image(rng)
    shifted = np.roll(base, (2, -3), axis=(0, 1))
    regions = [(30.0, 40.0, 16.0, 16.0), (60.0, 40.0, 16.0, 16.0),
               (45.0, 60.0, 16.0, 16.0)]
    frames = [shifted, shifted, base]
    stack = tracker.kcf_stack((40, 40))
    tracker.stack_join(stack, ["a", "b", "c"], [base] * 3, regions)
    located = tracker.stack_locate(stack, frames)
    assert located.moved.tolist() == [True, True, False]
    tracker.stack_adapt(stack, [2, 0], frames, located)
    assert stack.keys == ["c", "a"]
    for i, row in enumerate([2, 0]):
        want, _ = full_update(tracker.kcf_init(base, regions[row]),
                              frames[row])
        assert stack.regions[i].tolist() == want.regions[0].tolist()
        for got, ref in [(stack.template_hat[i], want.template_hat[0]),
                         (stack.alpha_hat[i], want.alpha_hat[0])]:
            assert np.max(np.abs(got - ref)) <= 1e-12
    assert stack.template_hat.shape[0] == stack.alpha_hat.shape[0] == 2


def test_moved_center_outside_frame_is_lost_at_next_crop(rng):
    """The update reports a center that left the frame, so a caller can
    re-localize; the next crop there, the retrain or the next update, ends
    the track."""
    base = smooth_image(rng)
    frame = np.roll(base, -4, axis=1)
    state = tracker.kcf_init(base, (2.0, 48.0, 16.0, 16.0))
    moved, result = tracker.kcf_update(state, frame)
    assert result.region == (-2.0, 48.0, 16.0, 16.0)
    assert moved.regions.tolist() == [list(result.region)]
    with pytest.raises(TrackLostError):
        full_update(state, frame)
    with pytest.raises(TrackLostError):
        tracker.kcf_update(moved, frame)


# ---------------------------------------------------------------------------
# per-size constants


def test_size_constants_cached_read_only(rng):
    window, y_hat = tracker._size_constants((40, 40))
    assert np.array_equal(window, np.outer(np.hanning(40), np.hanning(40)))
    assert np.array_equal(
        y_hat, np.fft.rfft2(tracker._target_response((40, 40))))
    for arr in (window, y_hat):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0
    assert tracker._size_constants((40, 40))[0] is window
    state = tracker.kcf_init(smooth_image(rng), (40.0, 40.0, 16.0, 16.0))
    assert state.window is window and state.y_hat is y_hat
    other_size = tracker._size_constants((40, 38))
    assert other_size[0].shape == (40, 38)


# ---------------------------------------------------------------------------
# the in-place numerics against the expressions they replaced, bit for bit


def ref_preprocess(patch, window):
    centered = patch - patch.mean(axis=(-2, -1), keepdims=True)
    return (centered / (centered.std(axis=(-2, -1), keepdims=True) + 1e-12)
            * window)


def ref_kernel(x_hat, z_hat, energy, shape, sigma_k):
    cross = np.fft.irfft2(x_hat * np.conj(z_hat), s=shape)
    d = ((np.asarray(energy)[..., None, None] - 2.0 * cross)
         / (shape[0] * shape[1]))
    return np.exp(-np.maximum(d, 0.0) / (sigma_k ** 2))


def ref_transform(frames, regions, window):
    x = ref_preprocess(np.stack([tracker._extract(frame, region, window.shape)
                                 / 255.0
                                 for frame, region in zip(frames, regions)]),
                       window)
    return np.fft.rfft2(x), np.sum(x * x, axis=(-2, -1))


def ref_train(x_hat, x_energy, y_hat, shape):
    k_xx = ref_kernel(x_hat, x_hat, 2.0 * x_energy, shape, tracker.SIGMA_K)
    return y_hat / (np.fft.rfft2(k_xx) + tracker.LAMBDA)


def _rows(rng, n, shapes=((96, 128),)):
    """``n`` frames, cycling through ``shapes``, each with a 16x16 region
    (a 40x40 padded patch) centred anywhere inside it, borders included."""
    frames = [smooth_image(rng, shapes[i % len(shapes)]) for i in range(n)]
    regions = [(float(rng.integers(0, f.shape[1])),
                float(rng.integers(0, f.shape[0])), 16.0, 16.0)
               for f in frames]
    return frames, regions


@pytest.mark.parametrize("n,shapes", [
    (1, ((96, 128),)), (2, ((96, 128),)), (20, ((96, 128),)),
    (5, ((96, 128), (64, 72), (120, 80)))])
def test_numerics_equal_their_references_bit_for_bit(rng, n, shapes):
    """Stacks of 1, 2 and 20 rows (20 40x40 spectra pass numpy's 256 KiB
    temporary-elision size) and one stack of rows from frames of three
    sizes: each helper gives exactly its reference's bits."""
    window, y_hat = tracker._size_constants((40, 40))
    frames, regions = _rows(rng, n, shapes)
    crops = np.stack([tracker._extract(f, r, window.shape) / 255.0
                      for f, r in zip(frames, regions)])
    assert np.array_equal(tracker._preprocess(crops.copy(), window),
                          ref_preprocess(crops, window))
    x_hat, x_energy = tracker._transform(frames, regions, window)
    want_hat, want_energy = ref_transform(frames, regions, window)
    assert np.array_equal(x_hat, want_hat)
    assert np.array_equal(x_energy, want_energy)
    z_hat, z_energy = ref_transform(frames[::-1], regions[::-1], window)
    energy = x_energy + z_energy
    assert np.array_equal(
        tracker._kernel(x_hat, z_hat, energy, (40, 40), tracker.SIGMA_K),
        ref_kernel(x_hat, z_hat, energy, (40, 40), tracker.SIGMA_K))
    assert np.array_equal(tracker._train(x_hat, x_energy, y_hat, (40, 40)),
                          ref_train(x_hat, x_energy, y_hat, (40, 40)))


def test_single_patch_and_border_crop_equal_their_references(rng):
    """``_preprocess`` of one 2-D patch, and of a crop that edge-replicates
    past the frame's corner."""
    frame = smooth_image(rng)
    window, _ = tracker._size_constants((40, 38))
    for center in [(48.0, 48.0), (0.0, 95.0)]:
        patch = tracker._extract(frame, (*center, 16.0, 15.0),
                                 window.shape) / 255.0
        assert patch.shape == (40, 38)
        assert np.array_equal(tracker._preprocess(patch.copy(), window),
                              ref_preprocess(patch, window))
    border = tracker._extract(frame, (0.0, 95.0, 16.0, 15.0), window.shape)
    assert np.all(border[:, :19] == border[:, [19]])  # edge-replicated
    regions = [(0.0, 95.0, 16.0, 15.0), (95.0, 0.0, 16.0, 15.0)]
    got = tracker._transform([frame, frame], regions, window)
    want = ref_transform([frame, frame], regions, window)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_gaussian_correlation_scalar_energy_equals_reference(rng):
    for shape in [(8, 8), (13, 17), (40, 40)]:
        x, z = rng.normal(size=shape), rng.normal(size=shape)
        energy = np.sum(x * x) + np.sum(z * z)
        assert np.array_equal(
            tracker.gaussian_correlation(x, z, 0.7),
            ref_kernel(np.fft.rfft2(x), np.fft.rfft2(z), energy, shape, 0.7))


def test_adapt_equals_the_reference_blend(rng):
    """``stack_adapt``'s in-place blend gives the bits of
    ``(1 - INTERP) * old + INTERP * fresh`` on the template and on alpha,
    with moved rows re-transformed and the others training on their
    probe; ``located`` itself is left as it was."""
    window, y_hat = tracker._size_constants((40, 40))
    frames, regions = _rows(rng, 6)
    stack = tracker.kcf_stack((40, 40))
    tracker.stack_join(stack, list("abcdef"), frames, regions)
    shifted = [np.roll(f, (i % 2) * 3, axis=1) for i, f in enumerate(frames)]
    located = tracker.stack_locate(stack, shifted)
    probe_hat = located.probe_hat.copy()
    rows = [4, 1, 0, 3]
    old_template, old_alpha = stack.template_hat, stack.alpha_hat
    tracker.stack_adapt(stack, rows, shifted, located)
    assert np.array_equal(located.probe_hat, probe_hat)
    for i, row in enumerate(rows):
        if located.moved[row]:
            fresh_hat, fresh_energy = ref_transform(
                [shifted[row]], [located.regions[row].tolist()], window)
        else:
            fresh_hat = probe_hat[[row]]
            fresh_energy = located.probe_energy[[row]]
        fresh_alpha = ref_train(fresh_hat, fresh_energy, y_hat, (40, 40))
        rate = tracker.INTERP
        assert np.array_equal(stack.template_hat[i], (
            (1 - rate) * old_template[row] + rate * fresh_hat[0]))
        assert np.array_equal(stack.alpha_hat[i], (
            (1 - rate) * old_alpha[row] + rate * fresh_alpha[0]))
    assert located.moved[rows].any() and not located.moved[rows].all()


def test_tracked_frame_call_budget():
    """Python-level calls per tracked frame stay under ``CALLS_PER_FRAME``,
    counted with ``sys.setprofile`` after one warm-up run."""
    clip, _ = dataset.synth_stream(1, 100, blink_center=50)
    pipeline.track_eyes(clip.frames, pipeline.annotation_locator(clip))
    locate = pipeline.annotation_locator(clip)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(count)
    try:
        pipeline.track_eyes(clip.frames, locate)
    finally:
        sys.setprofile(None)
    assert calls / len(clip.frames) <= CALLS_PER_FRAME
