"""RAW image representation and Bayer colour-filter-array simulation.

The paper's characterization separates hardware effects (lens + sensor,
Section 3.3) from software effects (ISP algorithms, Section 3.4) by collecting
both RAW sensor data and post-ISP images.  This module provides the RAW side:
converting an idealized linear-RGB scene into the single-channel Bayer mosaic
a real sensor records, which the rest of :mod:`repro.isp` then processes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RawBatch",
    "bayer_mosaic_batch",
    "BAYER_PATTERNS",
    "raw_to_training_array_batch",
]

# Offsets of (R, G1, G2, B) sites within the 2x2 Bayer tile for each pattern.
BAYER_PATTERNS = {
    "RGGB": {"R": (0, 0), "G1": (0, 1), "G2": (1, 0), "B": (1, 1)},
    "BGGR": {"B": (0, 0), "G1": (0, 1), "G2": (1, 0), "R": (1, 1)},
    "GRBG": {"G1": (0, 0), "R": (0, 1), "B": (1, 0), "G2": (1, 1)},
    "GBRG": {"G1": (0, 0), "B": (0, 1), "R": (1, 0), "G2": (1, 1)},
}


@dataclass
class RawBatch:
    """A stack of RAW Bayer mosaics plus the metadata needed to process them.

    Attributes
    ----------
    mosaics:
        ``(N, H, W)`` float array in [0, 1]; each pixel holds the response of
        one colour site according to ``pattern``.
    pattern:
        Bayer pattern name (key of :data:`BAYER_PATTERNS`).

    The pattern is shared by the whole stack, which matches how captures are
    produced (one device, one scene pool).
    """

    mosaics: np.ndarray
    pattern: str = "RGGB"

    def __post_init__(self) -> None:
        self.mosaics = np.asarray(self.mosaics, dtype=np.float64)
        if self.mosaics.ndim != 3:
            raise ValueError(f"RAW batch must be (N, H, W), got shape {self.mosaics.shape}")
        if self.mosaics.shape[1] % 2 or self.mosaics.shape[2] % 2:
            raise ValueError("RAW mosaic dimensions must be even (full Bayer tiles)")
        if self.pattern not in BAYER_PATTERNS:
            raise ValueError(f"unknown Bayer pattern '{self.pattern}'")

    def __len__(self) -> int:
        return len(self.mosaics)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.mosaics.shape

    def channel_mask(self, channel: str) -> np.ndarray:
        """Boolean ``(H, W)`` mask of pixels belonging to ``channel``."""
        return _channel_mask(self.mosaics.shape[1:], self.pattern, channel)


def _channel_mask(shape: tuple[int, int], pattern: str, channel: str) -> np.ndarray:
    h, w = shape
    mask = np.zeros((h, w), dtype=bool)
    sites = BAYER_PATTERNS[pattern]
    keys = ["G1", "G2"] if channel == "G" else [channel]
    for key in keys:
        dy, dx = sites[key]
        mask[dy::2, dx::2] = True
    return mask


def bayer_mosaic_batch(rgb: np.ndarray, pattern: str = "RGGB") -> np.ndarray:
    """Sample an ``(N, H, W, 3)`` linear-RGB batch onto ``(N, H, W)`` mosaics.

    Each output pixel keeps only the colour channel its CFA site is sensitive
    to, exactly like a single-chip sensor behind a colour filter array.
    """
    rgb = np.asarray(rgb, dtype=np.float64)
    if rgb.ndim != 4 or rgb.shape[3] != 3:
        raise ValueError(f"expected an (N, H, W, 3) batch, got {rgb.shape}")
    if pattern not in BAYER_PATTERNS:
        raise ValueError(f"unknown Bayer pattern '{pattern}'")
    n, h, w, _ = rgb.shape
    if h % 2 or w % 2:
        raise ValueError("image dimensions must be even for Bayer sampling")
    mosaics = np.zeros((n, h, w), dtype=np.float64)
    sites = BAYER_PATTERNS[pattern]
    channel_index = {"R": 0, "G1": 1, "G2": 1, "B": 2}
    for key, (dy, dx) in sites.items():
        mosaics[:, dy::2, dx::2] = rgb[:, dy::2, dx::2, channel_index[key]]
    return mosaics


def raw_to_training_array_batch(raw: RawBatch) -> np.ndarray:
    """Convert ``(N, H, W)`` RAW mosaics to ``(N, H/2, W/2, 3)`` training arrays.

    The paper's Section 3.3 trains models on RAW data *without* any ISP.  To
    feed a 3-channel network we de-interleave the Bayer tiles into half-
    resolution R / G / B planes (averaging the two green sites) and stack them,
    which preserves the un-processed sensor response while matching the model's
    input layout.
    """
    sites = BAYER_PATTERNS[raw.pattern]

    def plane(key: str) -> np.ndarray:
        dy, dx = sites[key]
        return raw.mosaics[:, dy::2, dx::2]

    red = plane("R")
    green = 0.5 * (plane("G1") + plane("G2"))
    blue = plane("B")
    return np.stack([red, green, blue], axis=-1)
