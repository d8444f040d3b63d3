"""Denoising algorithms (Table 3, "Denoising" row).

Baseline: FBDD-style impulse/readout noise suppression (implemented as an
edge-preserving median + bilateral-flavoured blend).  Option 1 omits the stage
entirely.  Option 2 is wavelet BayesShrink soft-thresholding implemented with
an orthogonal Haar transform, following Chipman et al. (1997).

Every method is an ``(N, H, W, C)`` kernel that processes each image
independently, so an image's output does not depend on the rest of its batch.
"""

from __future__ import annotations

import numpy as np

from .filters import median_filter_3x3

__all__ = [
    "denoise_batch",
    "DENOISE_METHODS",
    "denoise_fbdd_batch",
    "denoise_wavelet_bayes_batch",
    "denoise_none_batch",
]


def _as_batch(images: np.ndarray) -> np.ndarray:
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4:
        raise ValueError(f"expected an (N, H, W, C) batch, got shape {images.shape}")
    return images


def denoise_none_batch(images: np.ndarray) -> np.ndarray:
    """Pass-through used when the denoising stage is omitted."""
    return _as_batch(images)


def denoise_fbdd_batch(images: np.ndarray, strength: float = 0.5) -> np.ndarray:
    """FBDD-style denoising: median suppression blended with the original.

    FBDD (used by dcraw/LibRaw) removes impulse noise before demosaicing; on
    our already-demosaiced float images the practical equivalent is a small
    median filter whose output is blended with the input so edges survive.
    """
    images = _as_batch(images)
    if not 0.0 <= strength <= 1.0:
        raise ValueError(f"strength must be in [0, 1], got {strength}")
    filtered = np.empty_like(images)
    for channel in range(images.shape[-1]):
        filtered[..., channel] = median_filter_3x3(images[..., channel])
    return np.clip((1.0 - strength) * images + strength * filtered, 0.0, 1.0)


def _haar_decompose(channel: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One level of a 2-D Haar wavelet transform (orthonormal) on ``(..., H, W)``."""
    a = channel[..., 0::2, 0::2]
    b = channel[..., 0::2, 1::2]
    c = channel[..., 1::2, 0::2]
    d = channel[..., 1::2, 1::2]
    ll = (a + b + c + d) / 2.0
    lh = (a + b - c - d) / 2.0
    hl = (a - b + c - d) / 2.0
    hh = (a - b - c + d) / 2.0
    return ll, lh, hl, hh


def _haar_reconstruct(ll: np.ndarray, lh: np.ndarray, hl: np.ndarray, hh: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_haar_decompose`."""
    a = (ll + lh + hl + hh) / 2.0
    b = (ll + lh - hl - hh) / 2.0
    c = (ll - lh + hl - hh) / 2.0
    d = (ll - lh - hl + hh) / 2.0
    h, w = ll.shape[-2:]
    out = np.empty(ll.shape[:-2] + (2 * h, 2 * w), dtype=ll.dtype)
    out[..., 0::2, 0::2] = a
    out[..., 0::2, 1::2] = b
    out[..., 1::2, 0::2] = c
    out[..., 1::2, 1::2] = d
    return out


def _bayes_shrink_threshold(detail: np.ndarray, noise_sigma: np.ndarray) -> np.ndarray:
    """BayesShrink threshold per image: ``sigma_n^2 / sigma_x`` with a robust
    signal estimate.  ``detail`` is ``(N, h, w)``, ``noise_sigma`` is ``(N,)``."""
    noise_var = noise_sigma ** 2
    total_var = np.mean((detail ** 2).reshape(len(detail), -1), axis=-1)
    signal_var = np.maximum(total_var - noise_var, 1e-12)
    return noise_var / np.sqrt(signal_var)


def denoise_wavelet_bayes_batch(images: np.ndarray, levels: int = 1) -> np.ndarray:
    """Wavelet BayesShrink soft-thresholding (Table 3 Option 2).

    The noise level is estimated per image per channel from the finest-scale
    HH subband via the median absolute deviation, the classic Donoho estimator.
    """
    images = _as_batch(images)
    out = np.empty_like(images)
    n, h, w = images.shape[0], images.shape[1], images.shape[2]
    for channel in range(images.shape[-1]):
        data = images[..., channel]
        # Pad to even dimensions for the Haar transform if necessary.
        pad_h, pad_w = h % 2, w % 2
        if pad_h or pad_w:
            data = np.pad(data, ((0, 0), (0, pad_h), (0, pad_w)), mode="edge")
        ll, lh, hl, hh = _haar_decompose(data)
        noise_sigma = np.median(np.abs(hh).reshape(n, -1), axis=-1) / 0.6745 + 1e-12
        threshold = _bayes_shrink_threshold(hh, noise_sigma)[:, None, None]

        def soft(band: np.ndarray) -> np.ndarray:
            return np.sign(band) * np.maximum(np.abs(band) - threshold, 0.0)

        recon = _haar_reconstruct(ll, soft(lh), soft(hl), soft(hh))
        out[..., channel] = recon[:, :h, :w]
    return np.clip(out, 0.0, 1.0)


DENOISE_METHODS = {
    "fbdd": denoise_fbdd_batch,
    "none": denoise_none_batch,
    "wavelet_bayes": denoise_wavelet_bayes_batch,
}


def denoise_batch(images: np.ndarray, method: str = "fbdd") -> np.ndarray:
    """Denoise an ``(N, H, W, C)`` batch with the named method (see :data:`DENOISE_METHODS`)."""
    try:
        fn = DENOISE_METHODS[method]
    except KeyError as exc:
        raise ValueError(f"unknown denoise method '{method}'; options: {sorted(DENOISE_METHODS)}") from exc
    return fn(images)
