"""Kernelized correlation filter tracking over grayscale patches.

Single-channel KCF with a Gaussian kernel: ridge regression over all cyclic
shifts of the target patch, solved in the Fourier domain. The model (the
template and the dual coefficients) is kept as ``rfft2`` spectra, as in
Henriques et al., "High-Speed Tracking with Kernelized Correlation Filters"
(TPAMI 2015): each new patch is transformed once, and the learning-rate blend
runs on the spectra. An update only locates the target (``kcf_update``); the
retrain and blend (``kcf_adapt``) is a separate step a caller runs only on a
track it keeps. The region size is fixed for the lifetime of a track; the
peak of the real response map is exposed as the tracking score so callers can
trigger re-localization; a crop centred outside the frame is the one thing
that ends a track. The Hann window and target spectrum are built once
per padded size and shared, read-only, by every track of that size.
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


@dataclass(frozen=True)
class KcfParams:
    interp: float = 0.02           # template/alpha learning rate


@dataclass
class KcfState:
    template_hat: np.ndarray       # rfft2 of the windowed, zero-mean template
    alpha_hat: np.ndarray          # dual coefficients, rfft2 domain
    region: tuple[float, float, float, float]  # cx, cy, h, w
    window: np.ndarray = field(repr=False)     # Hann window, patch shape
    y_hat: np.ndarray = field(repr=False)      # rfft2 of target response
    params: KcfParams = field(default_factory=KcfParams)
    # (spectrum, energy) of the last probe when the region did not move
    probe: tuple | None = field(default=None, repr=False)


@dataclass(frozen=True)
class TrackResult:
    region: tuple[float, float, float, float]
    score: float


def _energy(x_hat: np.ndarray, width: int) -> float:
    """||x||^2 from the rfft2 spectrum of x (Parseval).

    Columns 1..W/2 stand for their mirrored twins too, except column 0 and,
    for even W, the Nyquist column.
    """
    power = x_hat.real ** 2 + x_hat.imag ** 2
    twice = 2.0 * power.sum() - power[:, 0].sum()
    if width % 2 == 0:
        twice -= power[:, -1].sum()
    return float(twice) / (power.shape[0] * width)


def _kernel(x_hat: np.ndarray, z_hat: np.ndarray, energy: float,
            shape: tuple[int, int], sigma_k: float) -> np.ndarray:
    """Gaussian kernel map from the rfft2 spectra of x and z.

    ``energy`` is ||x||^2 + ||z||^2; the circular cross-correlation takes a
    single inverse transform.
    """
    cross = np.fft.irfft2(x_hat * np.conj(z_hat), s=shape)
    d = (energy - 2.0 * cross) / cross.size
    return np.exp(-np.maximum(d, 0.0) / (sigma_k ** 2))


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
    return _kernel(np.fft.rfft2(x), np.fft.rfft2(z), energy, x.shape, sigma_k)


def _extract(frame: np.ndarray, region, size) -> np.ndarray:
    """The patch around ``region``; a center outside the frame ends the
    track with TrackLostError."""
    cx, cy = region[0], region[1]
    if (cx < 0 or cy < 0 or cx >= frame.shape[1] or cy >= frame.shape[0]):
        raise TrackLostError(f"region center {(cx, cy)} left the frame")
    patch = crop_eye(frame, EyeCenter(cx, cy), size).astype(np.float64)
    return patch / 255.0


def _preprocess(patch: np.ndarray, window: np.ndarray) -> np.ndarray:
    # unit variance keeps the kernel spectrum well above lambda, so the
    # self-response reproduces the target map almost exactly
    centered = patch - patch.mean()
    return centered / (centered.std() + 1e-12) * window


def _transform(frame: np.ndarray, region, window: np.ndarray
               ) -> tuple[np.ndarray, float]:
    """rfft2 spectrum and energy of the preprocessed patch at ``region``."""
    x = _preprocess(_extract(frame, region, window.shape), window)
    return np.fft.rfft2(x), np.sum(x * x)


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
    y_hat = np.fft.rfft2(_target_response(size))
    window.flags.writeable = y_hat.flags.writeable = False
    return window, y_hat


def _train(x_hat: np.ndarray, x_energy: float, y_hat: np.ndarray,
           shape: tuple[int, int]) -> np.ndarray:
    """Dual coefficients of the ridge regression on patch x, rfft2 domain."""
    k_xx = _kernel(x_hat, x_hat, 2.0 * x_energy, shape, SIGMA_K)
    return y_hat / (np.fft.rfft2(k_xx) + LAMBDA)


def kcf_init(frame: np.ndarray, region: tuple[float, float, float, float],
             params: KcfParams | None = None) -> KcfState:
    """Learn the correlation filter for the padded patch around ``region``.
    A padded side below 4 px raises RegionTooSmallError, a TrackLostError."""
    size = (int(round(region[2] * PADDING)), int(round(region[3] * PADDING)))
    if min(size) < 4:
        raise RegionTooSmallError(f"padded region {size[0]}x{size[1]} px is "
                                  f"below 4 px a side")
    window, y_hat = _size_constants(size)
    template_hat, energy = _transform(frame, region, window)
    return KcfState(template_hat=template_hat,
                    alpha_hat=_train(template_hat, energy, y_hat, size),
                    region=tuple(float(v) for v in region),
                    window=window, y_hat=y_hat, params=params or KcfParams())


def _unwrap(idx: int, n: int) -> int:
    return idx - n if idx >= (n + 1) // 2 else idx


def kcf_update(state: KcfState,
               frame: np.ndarray) -> tuple[KcfState, TrackResult]:
    """Locate the target in ``frame``; the filter is not retrained.

    The response map is evaluated at the previous region; the argmax
    displacement (circular shifts unwrapped to [-N/2, N/2)) moves the region.
    The new center may lie outside the frame: a caller that re-localizes
    moves it back, and the next crop there (``kcf_adapt`` or the next
    update) raises TrackLostError.
    """
    size = state.window.shape
    probe_hat, probe_energy = _transform(frame, state.region, state.window)
    energy = probe_energy + _energy(state.template_hat, size[1])
    k_zx = _kernel(probe_hat, state.template_hat, energy, size, SIGMA_K)
    response = np.fft.irfft2(np.fft.rfft2(k_zx) * state.alpha_hat, s=size)
    peak = np.unravel_index(int(np.argmax(response)), response.shape)
    dy = _unwrap(peak[0], size[0])
    dx = _unwrap(peak[1], size[1])
    cx, cy, h, w = state.region
    new_region = (cx + dx, cy + dy, h, w)
    probe = None if dx or dy else (probe_hat, probe_energy)
    return (replace(state, region=new_region, probe=probe),
            TrackResult(region=new_region, score=float(response[peak])))


def kcf_adapt(state: KcfState, frame: np.ndarray) -> KcfState:
    """Retrain the filter at the region ``kcf_update`` just found in
    ``frame`` and blend it in with rate ``interp`` (interp=0 keeps the
    initial model unchanged). The blend runs on the spectra, which equals
    the spectrum of the blended template."""
    rate = state.params.interp
    if rate <= 0.0:
        return state
    size = state.window.shape
    if state.probe is None:
        fresh_hat, fresh_energy = _transform(frame, state.region, state.window)
    else:  # the region did not move: the probe is the training patch
        fresh_hat, fresh_energy = state.probe
    template_hat = (1 - rate) * state.template_hat + rate * fresh_hat
    alpha_hat = ((1 - rate) * state.alpha_hat
                 + rate * _train(fresh_hat, fresh_energy, state.y_hat, size))
    return replace(state, template_hat=template_hat, alpha_hat=alpha_hat,
                   probe=None)
