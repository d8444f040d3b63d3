"""Weight initialization for :mod:`repro.nn` layers."""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["kaiming_uniform"]


def _fan_in(shape: Tuple[int, ...]) -> int:
    """Fan-in of a linear or convolutional weight shape."""
    if len(shape) == 2:  # (out_features, in_features)
        return shape[1]
    if len(shape) == 4:  # (out_channels, in_channels, kh, kw)
        return shape[1] * shape[2] * shape[3]
    raise ValueError(f"unsupported weight shape {shape}")


def kaiming_uniform(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming uniform initialization (gain for ReLU)."""
    bound = np.sqrt(6.0 / _fan_in(shape))
    return rng.uniform(-bound, bound, size=shape)
