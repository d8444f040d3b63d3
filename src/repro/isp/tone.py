"""Tone transformation stage (Table 3, "Tone transformation").

Baseline applies the standard sRGB gamma (the piecewise linear/exponential
encoding of IEC 61966-2-1).  Option 1 omits the stage (leaving linear data).
Option 2 applies the sRGB gamma followed by histogram (tone) equalization.
Section 3.4 identifies tone transformation as the second most influential ISP
stage (49.2% degradation when omitted).

The gamma curves are elementwise, so they apply to a batch as they are;
equalization estimates a per-image luminance CDF, which its ``(N, H, W, C)``
kernel computes with a vectorized histogram + linear-interpolation lookup that
reproduces ``np.histogram``/``np.interp`` exactly per image.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "tone_transform_batch",
    "TONE_METHODS",
    "srgb_gamma",
    "srgb_gamma_inverse",
    "tone_equalize_batch",
    "tone_none",
]


def srgb_gamma(image: np.ndarray) -> np.ndarray:
    """Encode linear RGB with the sRGB transfer curve."""
    image = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    low = image * 12.92
    high = 1.055 * np.power(image, 1.0 / 2.4) - 0.055
    return np.where(image <= 0.0031308, low, high)


def srgb_gamma_inverse(image: np.ndarray) -> np.ndarray:
    """Decode an sRGB-encoded image back to linear RGB."""
    image = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    low = image / 12.92
    high = np.power((image + 0.055) / 1.055, 2.4)
    return np.where(image <= 0.04045, low, high)


def _rowwise_histogram(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Per-row histogram of ``(N, K)`` values over shared bin edges.

    Matches ``np.histogram(row, bins, range)`` exactly: bins are left-closed,
    the last bin is closed on both sides, and out-of-range values are dropped.
    """
    n, k = values.shape
    bins = len(edges) - 1
    idx = np.searchsorted(edges, values.ravel(), side="right") - 1
    idx[values.ravel() == edges[-1]] = bins - 1
    valid = (idx >= 0) & (idx < bins)
    rows = np.repeat(np.arange(n), k)[valid]
    counts = np.bincount(rows * bins + idx[valid], minlength=n * bins)
    return counts.reshape(n, bins)


def _rowwise_interp(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """Per-row ``np.interp(x[i], xp, fp[i])`` for ``(N, K)`` x and ``(N, B)`` fp.

    Reproduces ``np.interp``'s arithmetic bit-for-bit for strictly increasing
    ``xp``: interior points get ``slope * (x - xp[j]) + fp[j]``; points at or
    beyond the ends clamp to the end values.
    """
    j = np.clip(np.searchsorted(xp, x.ravel(), side="right") - 1, 0, len(xp) - 2)
    j = j.reshape(x.shape)
    fp_lo = np.take_along_axis(fp, j, axis=1)
    fp_hi = np.take_along_axis(fp, j + 1, axis=1)
    slope = (fp_hi - fp_lo) / (xp[j + 1] - xp[j])
    out = slope * (x - xp[j]) + fp_lo
    out = np.where(x >= xp[-1], fp[:, -1:], out)
    out = np.where(x < xp[0], fp[:, :1], out)
    return out


def tone_equalize_batch(images: np.ndarray, bins: int = 64) -> np.ndarray:
    """sRGB gamma followed by per-image luminance histogram equalization."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4:
        raise ValueError(f"expected an (N, H, W, C) batch, got shape {images.shape}")
    encoded = srgb_gamma(images)
    luminance = encoded.mean(axis=-1)                            # (N, H, W)
    n = len(images)
    flat_lum = luminance.reshape(n, -1)
    edges = np.linspace(0.0, 1.0, bins + 1)
    hist = _rowwise_histogram(flat_lum, edges)
    cdf = np.cumsum(hist, axis=1).astype(np.float64)
    totals = cdf[:, -1:]
    # A zero total can only happen for an empty image; such rows return the
    # encoded image unchanged.
    safe_totals = np.maximum(totals, 1.0)
    cdf = cdf / safe_totals
    equalized_lum = _rowwise_interp(flat_lum, edges[:-1], cdf).reshape(luminance.shape)
    # Scale each pixel's channels by the luminance remapping ratio.
    ratio = equalized_lum / np.maximum(luminance, 1e-6)
    ratio = np.where((totals <= 0).reshape(-1, 1, 1), 1.0, ratio)
    return np.clip(encoded * ratio[..., None], 0.0, 1.0)


def tone_none(image: np.ndarray) -> np.ndarray:
    """Pass-through used when tone transformation is omitted (image stays linear)."""
    return np.asarray(image, dtype=np.float64)


TONE_METHODS = {
    "srgb_gamma": srgb_gamma,
    "none": tone_none,
    "srgb_gamma_equalize": tone_equalize_batch,
}


def tone_transform_batch(images: np.ndarray, method: str = "srgb_gamma") -> np.ndarray:
    """Tone-transform an ``(N, H, W, C)`` batch with the named method (see :data:`TONE_METHODS`)."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4:
        raise ValueError(f"expected an (N, H, W, C) batch, got shape {images.shape}")
    try:
        fn = TONE_METHODS[method]
    except KeyError as exc:
        raise ValueError(f"unknown tone method '{method}'; options: {sorted(TONE_METHODS)}") from exc
    return fn(images)
