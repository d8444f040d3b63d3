"""Shared separable bilinear resize, batched over the leading dimension.

Both the sensor (scene -> sensor plane) and the capture layer (processed
image -> training tensor) need the same dependency-light deterministic
resize.  The kernel operates on ``(N, H, W, C)`` arrays with pure elementwise
gather/lerp arithmetic, so resizing a stacked batch is bitwise identical to
resizing each image alone — the property that lets a capture run in chunks
without changing a value.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["resize_bilinear_batch"]


def resize_bilinear_batch(images: np.ndarray, size: Tuple[int, int]) -> np.ndarray:
    """Resize an ``(N, H, W, C)`` batch to ``(N, new_h, new_w, C)``."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4:
        raise ValueError(f"expected an (N, H, W, C) batch, got shape {images.shape}")
    h, w = images.shape[1:3]
    new_h, new_w = size
    if (h, w) == (new_h, new_w):
        return images.copy()
    row_pos = np.linspace(0, h - 1, new_h)
    col_pos = np.linspace(0, w - 1, new_w)
    row_lo = np.floor(row_pos).astype(int)
    col_lo = np.floor(col_pos).astype(int)
    row_hi = np.minimum(row_lo + 1, h - 1)
    col_hi = np.minimum(col_lo + 1, w - 1)
    row_frac = (row_pos - row_lo)[None, :, None, None]
    col_frac = (col_pos - col_lo)[None, None, :, None]
    # Separable two-pass lerp: rows first, then columns of the row-reduced
    # array — half the gather/fma traffic of the naive four-corner blend.
    rows = images[:, row_lo] * (1 - row_frac) + images[:, row_hi] * row_frac
    return rows[:, :, col_lo] * (1 - col_frac) + rows[:, :, col_hi] * col_frac
