"""Demosaicing algorithms (Table 3, "Demosaicing" row).

The paper compares three demosaicing choices: PPG (baseline), pixel binning
(Option 1) and AHD (Option 2).  Exact reimplementations of PPG/AHD are not the
point of the reproduction — what matters is that the three options produce
*systematically different* reconstructions of the same mosaic, so models
trained on one and tested on another see a distribution shift.  We therefore
implement three well-separated reconstruction strategies:

* ``ppg``      — gradient-corrected bilinear interpolation at full resolution
  (a faithful stand-in for Pixel-Grouping-style edge-aware demosaicing).
* ``binning``  — 2x2 pixel binning: each Bayer tile collapses into one RGB
  pixel, then the result is upsampled back (lower detail, less noise).
* ``ahd``      — homogeneity-flavoured variant: bilinear interpolation followed
  by a small median-based refinement of the chroma channels, mimicking AHD's
  artifact suppression.

Each method is a kernel over a :class:`~repro.isp.raw.RawBatch` of ``(N, H,
W)`` mosaics that reconstructs every capture independently.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import ndimage

from .filters import median_filter_3x3
from .raw import BAYER_PATTERNS, RawBatch

__all__ = [
    "demosaic_batch",
    "DEMOSAIC_METHODS",
    "demosaic_bilinear_batch",
    "demosaic_binning_batch",
    "demosaic_ahd_batch",
]

_INTERP_KERNEL = np.array([[0.25, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 0.25]])


def _channel_scatter(raw: RawBatch) -> np.ndarray:
    """Scatter mosaic values into an (N, H, W, 3) array with zeros at missing sites."""
    n, h, w = raw.mosaics.shape
    rgb = np.zeros((n, h, w, 3), dtype=np.float64)
    sites = BAYER_PATTERNS[raw.pattern]
    channel_index = {"R": 0, "G1": 1, "G2": 1, "B": 2}
    for key, (dy, dx) in sites.items():
        rgb[:, dy::2, dx::2, channel_index[key]] = raw.mosaics[:, dy::2, dx::2]
    return rgb


@lru_cache(maxsize=None)
def _interp_weights(pattern: str, shape: tuple[int, int], channel: str) -> np.ndarray:
    """Normalization weights for one CFA channel (identical for every capture
    of the same pattern/resolution, so computed once)."""
    from .raw import _channel_mask

    mask = _channel_mask(shape, pattern, channel)
    weights = ndimage.convolve(mask.astype(np.float64), _INTERP_KERNEL, mode="mirror")
    weights.setflags(write=False)
    return weights


def _interpolate_channel(values: np.ndarray, mask: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Fill missing pixels of one channel stack ``(N, H, W)`` by normalized
    convolution; ``values`` is already zero off ``mask`` (scatter output), so
    the numerator needs no masking multiply."""
    weighted = ndimage.convolve(values, _INTERP_KERNEL[None], mode="mirror")
    return np.where(mask, values, weighted / np.maximum(weights, 1e-12))


def demosaic_bilinear_batch(raw: RawBatch) -> np.ndarray:
    """Gradient-agnostic bilinear demosaicing (the PPG baseline stand-in)."""
    scattered = _channel_scatter(raw)
    out = np.empty_like(scattered)
    h, w = raw.mosaics.shape[1:]
    for idx, channel in enumerate("RGB"):
        mask = raw.channel_mask(channel)
        weights = _interp_weights(raw.pattern, (h, w), channel)
        out[..., idx] = _interpolate_channel(scattered[..., idx], mask, weights)
    return np.clip(out, 0.0, 1.0)


def demosaic_binning_batch(raw: RawBatch) -> np.ndarray:
    """2x2 pixel binning: average each Bayer tile into a single RGB value.

    Binning trades spatial resolution for noise reduction; the result is
    upsampled back to the mosaic resolution by nearest-neighbour repetition so
    all demosaicing options produce same-sized images.
    """
    _, h, w = raw.mosaics.shape
    sites = BAYER_PATTERNS[raw.pattern]

    def site(key: str) -> np.ndarray:
        dy, dx = sites[key]
        return raw.mosaics[:, dy::2, dx::2]

    red = site("R")
    green = 0.5 * (site("G1") + site("G2"))
    blue = site("B")
    binned = np.stack([red, green, blue], axis=-1)  # (N, h/2, w/2, 3)
    upsampled = np.repeat(np.repeat(binned, 2, axis=1), 2, axis=2)
    return np.clip(upsampled[:, :h, :w], 0.0, 1.0)


def demosaic_ahd_batch(raw: RawBatch) -> np.ndarray:
    """AHD-flavoured demosaicing: bilinear base + median chroma refinement."""
    base = demosaic_bilinear_batch(raw)
    green = base[..., 1]
    out = base.copy()
    # Refine R and B through their chroma difference to green, the same trick
    # AHD uses to suppress colour fringes at edges.
    for idx in (0, 2):
        chroma = base[..., idx] - green
        chroma = median_filter_3x3(chroma)
        out[..., idx] = green + chroma
    return np.clip(out, 0.0, 1.0)


DEMOSAIC_METHODS = {
    "ppg": demosaic_bilinear_batch,
    "binning": demosaic_binning_batch,
    "ahd": demosaic_ahd_batch,
}


def demosaic_batch(raw: RawBatch, method: str = "ppg") -> np.ndarray:
    """Demosaic a RAW batch with the named method (see :data:`DEMOSAIC_METHODS`)."""
    try:
        fn = DEMOSAIC_METHODS[method]
    except KeyError as exc:
        raise ValueError(f"unknown demosaic method '{method}'; options: {sorted(DEMOSAIC_METHODS)}") from exc
    return fn(raw)
