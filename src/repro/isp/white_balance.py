"""Colour transformation stage 1: white balance (Table 3, "Color transformation").

The paper's Section 3.4 finds white balance to be one of the two most
influential ISP stages (56.0% accuracy degradation when omitted).  Baseline is
the gray-world assumption, Option 1 omits the stage, Option 2 is white-patch
(a.k.a. max-RGB) balancing.

Gains are estimated per image: the ``(N, H, W, C)`` kernels reduce over each
image's pixels independently, so an image's output does not depend on the
rest of its batch.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "white_balance_batch",
    "WHITE_BALANCE_METHODS",
    "gray_world_batch",
    "white_patch_batch",
    "white_balance_none_batch",
]


def _as_batch(images: np.ndarray) -> np.ndarray:
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4:
        raise ValueError(f"expected an (N, H, W, C) batch, got shape {images.shape}")
    return images


def gray_world_batch(images: np.ndarray) -> np.ndarray:
    """Gray-world white balance: scale channels so their means are equal."""
    images = _as_batch(images)
    means = images.reshape(len(images), -1, 3).mean(axis=1)      # (N, 3)
    target = means.mean(axis=-1, keepdims=True)                  # (N, 1)
    gains = target / np.maximum(means, 1e-6)
    return np.clip(images * gains[:, None, None, :], 0.0, 1.0)


def white_patch_batch(images: np.ndarray, percentile: float = 99.0) -> np.ndarray:
    """White-patch (max-RGB) balance: map the brightest response of each channel to white."""
    images = _as_batch(images)
    maxima = np.percentile(images.reshape(len(images), -1, 3), percentile, axis=1)
    gains = 1.0 / np.maximum(maxima, 1e-6)
    return np.clip(images * gains[:, None, None, :], 0.0, 1.0)


def white_balance_none_batch(images: np.ndarray) -> np.ndarray:
    """Pass-through used when the white-balance stage is omitted."""
    return _as_batch(images)


WHITE_BALANCE_METHODS = {
    "gray_world": gray_world_batch,
    "none": white_balance_none_batch,
    "white_patch": white_patch_batch,
}


def white_balance_batch(images: np.ndarray, method: str = "gray_world") -> np.ndarray:
    """White-balance an ``(N, H, W, C)`` batch (methods: :data:`WHITE_BALANCE_METHODS`)."""
    try:
        fn = WHITE_BALANCE_METHODS[method]
    except KeyError as exc:
        raise ValueError(
            f"unknown white balance method '{method}'; options: {sorted(WHITE_BALANCE_METHODS)}"
        ) from exc
    return fn(images)
