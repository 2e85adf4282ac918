"""Uniform-LBP appearance and LBP-difference motion features.

Per frame, a 59-bin uniform local binary pattern histogram describes the
local eye patch; the element-wise difference between consecutive histograms
encodes motion. A clip of N frames yields N-1 steps of 118 values each
(appearance in columns 0..58, motion in columns 59..117).
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import EyeCenter, crop_eye

N_BINS = 59  # 58 uniform 8-bit patterns + 1 catch-all
FEATURE_DIM = 2 * N_BINS
PATCH_SIZE = (24, 24)  # every eye crop is resized to this before LBP

# frames per crop stack in frame_histograms; a stack's temporaries grow with
# its size: on a 3000-frame track one stack raised peak RSS by 78 MB,
# stacks of 256 by 8.6 MB and stacks of 64 by 3.7 MB
FRAME_BATCH = 64

# circular neighbour order; consecutive entries are adjacent on the ring
_NEIGHBOR_OFFSETS = [(-1, -1), (-1, 0), (-1, 1), (0, 1),
                     (1, 1), (1, 0), (1, -1), (0, -1)]


def _transitions(code: int) -> int:
    bits = [(code >> i) & 1 for i in range(8)]
    return sum(bits[i] != bits[(i + 1) % 8] for i in range(8))


def _build_lut() -> np.ndarray:
    lut = np.full(256, N_BINS - 1, dtype=np.int64)
    nxt = 0
    for code in range(256):
        if _transitions(code) <= 2:
            lut[code] = nxt
            nxt += 1
    assert nxt == N_BINS - 1
    return lut


UNIFORM_LUT = _build_lut()


def uniform_count() -> int:
    """Number of 8-bit codes with at most 2 circular transitions."""
    return int(np.sum(UNIFORM_LUT != N_BINS - 1))


def uniform_lbp(patch: np.ndarray) -> np.ndarray:
    """L1-normalized 59-bin uniform LBP histogram of a grayscale patch, or
    one per patch of a (..., H, W) stack, shape (..., 59).

    Each pixel with a full 8-neighbourhood produces one code (bit set when
    the neighbour value is >= the center), read from the 3x3 ring directly,
    which makes the histogram exactly invariant under any strictly monotone
    intensity remapping.
    """
    patch = np.asarray(patch, dtype=np.float64)
    if patch.ndim < 2 or patch.shape[-2] < 3 or patch.shape[-1] < 3:
        raise ValueError("patch must be at least 3x3")
    h, w = patch.shape[-2:]
    center = patch[..., 1:-1, 1:-1]
    codes = np.zeros(center.shape, dtype=np.uint8)
    for bit, (dy, dx) in enumerate(_NEIGHBOR_OFFSETS):
        ring = patch[..., 1 + dy:h - 1 + dy, 1 + dx:w - 1 + dx]
        codes |= (ring >= center).view(np.uint8) << np.uint8(bit)
    lead = patch.shape[:-2]
    n = math.prod(lead)
    # one bincount for the whole stack: patch k counts into bins 59k..59k+58
    bins = UNIFORM_LUT[codes].reshape(n, -1)
    bins += (N_BINS * np.arange(n))[:, None]
    hist = np.bincount(bins.ravel(), minlength=n * N_BINS).astype(np.float64)
    hist = hist.reshape(lead + (N_BINS,))
    return hist / hist.sum(axis=-1, keepdims=True)


def resize_patch(patch: np.ndarray, out: tuple[int, int]) -> np.ndarray:
    """Bilinear resize with corner-aligned sample grids of a patch, or of
    every patch of a (..., H, W) stack."""
    h_out, w_out = int(out[0]), int(out[1])
    if h_out < 1 or w_out < 1:
        raise ValueError("output size must be positive")
    patch = np.asarray(patch, dtype=np.float64)
    if patch.size == 0:
        raise ValueError("empty patch")
    h_in, w_in = patch.shape[-2:]
    ys = np.linspace(0.0, h_in - 1.0, h_out)  # [0.0] when h_out is 1
    xs = np.linspace(0.0, w_in - 1.0, w_out)
    y0 = np.clip(np.floor(ys).astype(int), 0, h_in - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w_in - 1)
    y1 = np.minimum(y0 + 1, h_in - 1)
    x1 = np.minimum(x0 + 1, w_in - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    rows0, rows1 = patch[..., y0, :], patch[..., y1, :]
    top = rows0[..., x0] * (1 - wx) + rows0[..., x1] * wx
    bot = rows1[..., x0] * (1 - wx) + rows1[..., x1] * wx
    return top * (1 - wy) + bot * wy


def frame_histograms(frames: list[np.ndarray],
                     regions: list[tuple[float, float, float, float]]
                     ) -> np.ndarray:
    """Appearance histogram per frame, shape (len(frames), 59): each eye
    region (cx, cy, h, w) is cropped, resized to ``PATCH_SIZE`` and
    described by its uniform LBP histogram. Crops of one size are resized
    and coded as one stack, ``FRAME_BATCH`` frames at most."""
    if len(regions) != len(frames):
        raise ValueError("one region per frame required")
    hists = np.empty((len(frames), N_BINS))
    for lo in range(0, len(frames), FRAME_BATCH):
        by_size: dict[tuple[int, int], list] = {}
        for k in range(lo, min(lo + FRAME_BATCH, len(frames))):
            cx, cy, h, w = regions[k]
            patch = crop_eye(frames[k], EyeCenter(cx, cy),
                             (int(round(h)), int(round(w))))
            by_size.setdefault(patch.shape, []).append((k, patch))
        for crops in by_size.values():
            index, patches = zip(*crops)
            hists[list(index)] = uniform_lbp(
                resize_patch(np.stack(patches), PATCH_SIZE))
    return hists


def steps_from_histograms(hists: np.ndarray) -> np.ndarray:
    """Feature steps from consecutive per-frame histograms.

    Returns an array of shape (len(hists) - 1, 118): step t carries the
    appearance histogram of frame t+1 and the histogram difference between
    frames t+1 and t.
    """
    hists = np.asarray(hists, dtype=np.float64)
    if len(hists) < 2:
        raise ValueError("need at least 2 frames")
    steps = np.empty((hists.shape[0] - 1, FEATURE_DIM))
    steps[:, :N_BINS] = hists[1:]
    steps[:, N_BINS:] = hists[1:] - hists[:-1]
    return steps


def featurize_frames(frames: list[np.ndarray],
                     regions: list[tuple[float, float, float, float]]
                     ) -> np.ndarray:
    """Feature sequence from per-frame eye regions (cx, cy, h, w), shape
    (len(frames) - 1, 118); see ``steps_from_histograms``."""
    return steps_from_histograms(frame_histograms(frames, regions))
