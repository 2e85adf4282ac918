"""Kernelized correlation filter tracking over grayscale patches.

Single-channel KCF with a Gaussian kernel: ridge regression over all cyclic
shifts of the target patch, solved in the Fourier domain. The model (the
template and the dual coefficients) is kept as ``rfft2`` spectra, as in
Henriques et al., "High-Speed Tracking with Kernelized Correlation Filters"
(TPAMI 2015): each new patch is transformed once, and the learning-rate blend
runs on the spectra. Locating the target and retraining the filter are
separate steps; a caller retrains only a track it keeps. The region size is
fixed for the lifetime of a track; the peak of the real response map is
exposed as the tracking score so callers can trigger re-localization; a crop
centred outside the frame is the one thing that ends a track. The Hann
window and target spectrum are built once per padded size and shared,
read-only, by every track of that size.

The kernels take a leading track axis. A ``KcfStack`` is a value holding
every track of one padded size as one row of stacked arrays. Two calls run
its tracks in lockstep: ``stack_locate`` reads a stack and locates all its
rows, and ``stack_learn`` builds the next frame's stack of one padded size
from the rows a caller keeps, retrained, and the rows it learns afresh.
``kcf_init`` is ``stack_learn`` on one fresh row, and ``kcf_update``
``stack_locate`` on a stack of one row. A row's bits do not depend on the
other rows of its stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .dataset import EyeCenter, crop_eye
from .errors import RegionTooSmallError, TrackLostError

LAMBDA = 1e-4               # ridge regularizer
SIGMA_K = 0.2               # Gaussian kernel bandwidth
PADDING = 2.5               # context around the target
OUTPUT_SIGMA_FACTOR = 0.125  # target response width per padded side
INTERP = 0.02               # template/alpha learning rate


@dataclass(frozen=True)
class KcfParams:
    """Accepted by ``kcf_init`` and never read: the learning rate is the
    constant ``INTERP``."""
    interp: float = INTERP


@dataclass(frozen=True)
class TrackResult:
    region: tuple[float, float, float, float]
    score: float


@dataclass(frozen=True)
class KcfStack:
    """The tracks of one padded size: row i of ``template_hat``,
    ``alpha_hat`` and ``regions`` is one track, ``keys[i]`` the caller's
    name for it. Nothing changes a stack's arrays once it is built."""
    window: np.ndarray = field(repr=False)        # Hann window, patch shape
    y_hat: np.ndarray = field(repr=False)         # rfft2 of target response
    template_hat: np.ndarray = field(repr=False)  # (tracks, H, W // 2 + 1)
    alpha_hat: np.ndarray = field(repr=False)
    regions: np.ndarray                           # (tracks, 4): cx, cy, h, w
    keys: list


@dataclass(frozen=True)
class Located:
    """What ``stack_locate`` found for each row of a stack."""
    regions: np.ndarray      # (tracks, 4), moved to the response peak
    scores: np.ndarray       # (tracks,) response peak
    probe_hat: np.ndarray    # spectra of the patches at the old regions
    probe_energy: np.ndarray
    moved: np.ndarray        # (tracks,) bool: the peak shifted the region


# np.fft.rfft2 and irfft2 of the last two axes: their 1-D passes in their
# order, without their n-D wrappers
def _rfft2(x: np.ndarray) -> np.ndarray:
    return np.fft.fft(np.fft.rfft(x, axis=-1), axis=-2)


def _irfft2(x_hat: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    return np.fft.irfft(np.fft.ifft(x_hat, axis=-2), n=shape[1], axis=-1)


def _energy(x_hat: np.ndarray, width: int) -> np.ndarray:
    """||x||^2 of each row from its rfft2 spectrum (Parseval).

    Columns 1..W/2 stand for their mirrored twins too, except column 0 and,
    for even W, the Nyquist column.
    """
    power = x_hat.real ** 2 + x_hat.imag ** 2
    twice = 2.0 * power.sum(axis=(-2, -1)) - power[..., 0].sum(axis=-1)
    if width % 2 == 0:
        twice -= power[..., -1].sum(axis=-1)
    return twice / (power.shape[-2] * width)


def _kernel(x_hat: np.ndarray, z_hat: np.ndarray, energy,
            shape: tuple[int, int], sigma_k: float) -> np.ndarray:
    """Gaussian kernel map of each row from the rfft2 spectra of x and z.

    ``energy`` is ||x||^2 + ||z||^2 per row; the circular cross-correlation
    takes a single inverse transform.
    """
    # into the conjugate, x_hat first, so numpy's elision of a large
    # temporary cannot swap the operands: a row's bits are the same in a
    # stack of any height
    cross = np.conj(z_hat)
    np.multiply(x_hat, cross, out=cross)
    k = _irfft2(cross, shape)
    k *= -2.0
    k += np.asarray(energy)[..., None, None]
    k /= shape[0] * shape[1]
    np.maximum(k, 0.0, out=k)
    np.negative(k, out=k)
    k /= sigma_k ** 2
    return np.exp(k, out=k)


def gaussian_correlation(x: np.ndarray, z: np.ndarray,
                         sigma_k: float) -> np.ndarray:
    """Gaussian kernel evaluated at every circular lag between x and z.

    k(tau) = exp(-(||x||^2 + ||z||^2 - 2 corr_xz(tau)) / (sigma^2 N)) with the
    inner expression clamped at zero; corr realized with one rfft2/irfft2
    round trip through the same kernel the tracker runs.
    """
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if x.shape != z.shape:
        raise ValueError("patch shapes differ")
    energy = np.sum(x * x) + np.sum(z * z)
    return _kernel(_rfft2(x), _rfft2(z), energy, x.shape, sigma_k)


def in_frame(frame: np.ndarray, region) -> bool:
    """Whether the center of ``region`` lies inside ``frame``."""
    return 0 <= region[0] < frame.shape[1] and 0 <= region[1] < frame.shape[0]


def _extract(frame: np.ndarray, region, size) -> np.ndarray:
    """The patch around ``region``, in the frame's own values; a center
    outside the frame ends the track with TrackLostError."""
    if not in_frame(frame, region):
        raise TrackLostError(f"region center {tuple(region[:2])} left the "
                             f"frame")
    return crop_eye(frame, EyeCenter(region[0], region[1]), size)


def _preprocess(patch: np.ndarray, window: np.ndarray) -> np.ndarray:
    # np.mean and np.std, bit for bit, over a flat view and in place; unit
    # variance keeps the kernel spectrum well above lambda, so the
    # self-response reproduces the target map almost exactly
    x = patch.reshape(*patch.shape[:-2], -1)
    n = x.shape[-1]
    x -= np.add.reduce(x, axis=-1, keepdims=True) / n
    d = x - np.add.reduce(x, axis=-1, keepdims=True) / n
    d *= d
    x /= np.sqrt(np.add.reduce(d, axis=-1, keepdims=True) / n) + 1e-12
    x *= window.reshape(-1)
    return x.reshape(patch.shape)


def _transform(frames, regions, window: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """rfft2 spectrum and energy of the preprocessed patch of each frame at
    its region, stacked."""
    x = _preprocess(np.stack([_extract(frame, region, window.shape)
                              for frame, region in zip(frames, regions)])
                    / 255.0, window)
    return _rfft2(x), np.add.reduce((x * x).reshape(len(x), -1), axis=-1)


def _target_response(size: tuple[int, int]) -> np.ndarray:
    """Gaussian response with peak wrapped to (0, 0)."""
    ph, pw = size
    sigma = np.sqrt(ph * pw) / PADDING * OUTPUT_SIGMA_FACTOR
    ys = (np.arange(ph) + ph // 2) % ph - ph // 2
    xs = (np.arange(pw) + pw // 2) % pw - pw // 2
    return np.exp(-(ys[:, None] ** 2 + xs[None, :] ** 2) / (2.0 * sigma ** 2))


@lru_cache(maxsize=64)
def _size_constants(size: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Hann window and target spectrum ``y_hat`` of a padded
    size."""
    window = np.outer(np.hanning(size[0]), np.hanning(size[1]))
    y_hat = _rfft2(_target_response(size))
    window.flags.writeable = y_hat.flags.writeable = False
    return window, y_hat


def _train(x_hat: np.ndarray, x_energy: np.ndarray, y_hat: np.ndarray,
           shape: tuple[int, int]) -> np.ndarray:
    """Dual coefficients of the ridge regression on each patch x, rfft2
    domain."""
    k_hat = _rfft2(_kernel(x_hat, x_hat, 2.0 * x_energy, shape, SIGMA_K))
    k_hat += LAMBDA
    return np.divide(y_hat, k_hat, out=k_hat)


def _unwrap(idx, n: int):
    return np.where(idx >= (n + 1) // 2, idx - n, idx)


def track_size(frame: np.ndarray, region) -> tuple[int, int]:
    """The patch size a track starting at ``region`` in ``frame`` keeps.
    A padded side below 4 px raises RegionTooSmallError, and a center
    outside the frame TrackLostError, its base."""
    size = (int(round(region[2] * PADDING)), int(round(region[3] * PADDING)))
    if min(size) < 4:
        raise RegionTooSmallError(f"padded region {size[0]}x{size[1]} px is "
                                  f"below 4 px a side")
    if not in_frame(frame, region):
        raise TrackLostError(f"region center {tuple(region[:2])} is outside "
                             f"the frame")
    return size


# ---------------------------------------------------------------------------
# the tracks of one padded size, updated in lockstep


def stack_locate(stack: KcfStack, frames) -> Located:
    """Locate every row's target in its frame (one per row): the response
    map is evaluated at the row's region and its peak, a circular shift
    unwrapped to [-N/2, N/2), moves the region and is its score. The new
    center may lie outside the frame: a caller that re-localizes moves it
    back, and the next crop there raises TrackLostError. The stack is not
    changed."""
    shape = stack.window.shape
    probe_hat, probe_energy = _transform(frames, stack.regions.tolist(),
                                         stack.window)
    energy = probe_energy + _energy(stack.template_hat, shape[1])
    k_zx = _kernel(probe_hat, stack.template_hat, energy, shape, SIGMA_K)
    k_hat = _rfft2(k_zx)
    k_hat *= stack.alpha_hat
    response = _irfft2(k_hat, shape)
    flat = response.reshape(len(response), -1)
    peak = flat.argmax(axis=1)
    dy = _unwrap(peak // shape[1], shape[0])
    dx = _unwrap(peak % shape[1], shape[1])
    scores = flat[np.arange(len(flat)), peak]
    regions = stack.regions.copy()
    regions[:, 0] += dx
    regions[:, 1] += dy
    return Located(regions=regions, scores=scores, probe_hat=probe_hat,
                   probe_energy=probe_energy, moved=(dx != 0) | (dy != 0))


def stack_learn(size: tuple[int, int], stack: KcfStack | None = None,
                frames=(), located: Located | None = None, rows=(),
                fresh=()) -> KcfStack:
    """The stack of padded ``size`` for the next frame. First come
    ``rows`` of ``stack``, in that order, each moved to the region
    ``located`` found for it in ``frames`` (one per row of ``stack``),
    retrained there and blended with its fresh model at rate ``INTERP``;
    a row whose region did not move trains on its probe. The blend runs on
    the spectra, which equals the spectrum of the blended template. Then
    comes one row per ``(key, frame, region)`` of ``fresh``, learned
    afresh. Every other row of ``stack`` is left out, and neither
    ``stack`` nor ``located`` is changed. Each region has padded ``size``
    and its center inside its frame."""
    window, y_hat = _size_constants(size)
    n = len(rows)
    keys, row_frames, regions = zip(*[
        (stack.keys[i], frames[i], located.regions[i]) for i in rows], *fresh)
    regions = np.array(regions)
    # a kept row that moved is transformed anew, as is every fresh row
    learn = [i for i, row in enumerate(rows) if located.moved[row]]
    learn += range(n, len(keys))
    template_hat = np.empty((len(keys), *y_hat.shape), dtype=y_hat.dtype)
    energy = np.empty(len(keys))
    if n:
        template_hat[:n] = located.probe_hat[rows]
        energy[:n] = located.probe_energy[rows]
    if learn:
        template_hat[learn], energy[learn] = _transform(
            [row_frames[i] for i in learn], regions[learn].tolist(), window)
    alpha_hat = _train(template_hat, energy, y_hat, size)
    if n:
        # ``rows`` indexes, never slices: the old model is read from copies
        for old, new in ((stack.template_hat[rows], template_hat[:n]),
                         (stack.alpha_hat[rows], alpha_hat[:n])):
            old *= 1 - INTERP
            new *= INTERP
            new += old
    return KcfStack(window=window, y_hat=y_hat, template_hat=template_hat,
                    alpha_hat=alpha_hat, regions=regions, keys=list(keys))


# ---------------------------------------------------------------------------
# one track: a stack of one row


def kcf_init(frame: np.ndarray, region: tuple[float, float, float, float],
             params: KcfParams | None = None) -> KcfStack:
    """A one-row stack holding the filter learned for the padded patch
    around ``region``. A padded side below 4 px raises RegionTooSmallError,
    a TrackLostError. ``params`` is not read."""
    return stack_learn(track_size(frame, region),
                       fresh=[(None, frame, region)])


def kcf_update(stack: KcfStack,
               frame: np.ndarray) -> tuple[KcfStack, TrackResult]:
    """Locate the one-row ``stack``'s target in ``frame`` (``stack_locate``)
    and return a stack moved there, sharing the filter, which is not
    retrained; ``stack`` itself is not changed."""
    located = stack_locate(stack, [frame])
    return (replace(stack, regions=located.regions),
            TrackResult(region=tuple(located.regions[0].tolist()),
                        score=float(located.scores[0])))
