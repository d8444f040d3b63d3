"""Colour transformation stage 2: gamut mapping (Table 3, "Gamut mapping").

Baseline maps the camera's native colour space to sRGB primaries; Option 1
omits the stage; Option 2 maps to the wide-gamut ProPhoto RGB primaries.  The
3x3 matrices below are the standard linear-RGB conversions via CIE XYZ (D50
white point for ProPhoto, D65 for sRGB), which is all the reproduction needs:
the two options apply *different* linear colour twists to the same data.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gamut_map_batch",
    "GAMUT_METHODS",
    "SRGB_TO_XYZ",
    "XYZ_TO_SRGB",
    "XYZ_TO_PROPHOTO",
]

# Linear sRGB <-> CIE XYZ (D65), IEC 61966-2-1.
SRGB_TO_XYZ = np.array(
    [
        [0.4124564, 0.3575761, 0.1804375],
        [0.2126729, 0.7151522, 0.0721750],
        [0.0193339, 0.1191920, 0.9503041],
    ]
)
XYZ_TO_SRGB = np.linalg.inv(SRGB_TO_XYZ)

# CIE XYZ (D50) -> ProPhoto RGB (ROMM), ISO 22028-2.
XYZ_TO_PROPHOTO = np.array(
    [
        [1.3459433, -0.2556075, -0.0511118],
        [-0.5445989, 1.5081673, 0.0205351],
        [0.0000000, 0.0000000, 1.2118128],
    ]
)


def _apply_matrix(image: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Apply a 3x3 colour matrix to any ``(..., 3)`` array (per-pixel dot
    products, so batching over a leading axis is bitwise identical)."""
    image = np.asarray(image, dtype=np.float64)
    flat = image.reshape(-1, 3) @ matrix.T
    return np.clip(flat.reshape(image.shape), 0.0, 1.0)


def gamut_srgb(image: np.ndarray) -> np.ndarray:
    """Map camera RGB (assumed ~sRGB-linear) through XYZ and back to sRGB.

    For data that is already close to sRGB this is near-identity with small
    clipping at the gamut boundary, mirroring what a real pipeline does.
    """
    xyz = _apply_matrix(image, SRGB_TO_XYZ)
    return _apply_matrix(xyz, XYZ_TO_SRGB)


def gamut_prophoto(image: np.ndarray) -> np.ndarray:
    """Map camera RGB to the ProPhoto primaries (a visibly different rendition)."""
    xyz = _apply_matrix(image, SRGB_TO_XYZ)
    return _apply_matrix(xyz, XYZ_TO_PROPHOTO)


def gamut_none(image: np.ndarray) -> np.ndarray:
    """Pass-through used when gamut mapping is omitted."""
    return np.asarray(image, dtype=np.float64)


GAMUT_METHODS = {
    "srgb": gamut_srgb,
    "none": gamut_none,
    "prophoto": gamut_prophoto,
}


def gamut_map_batch(images: np.ndarray, method: str = "srgb") -> np.ndarray:
    """Gamut-map an ``(N, H, W, C)`` batch with the named method (see :data:`GAMUT_METHODS`)."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4:
        raise ValueError(f"expected an (N, H, W, C) batch, got shape {images.shape}")
    try:
        fn = GAMUT_METHODS[method]
    except KeyError as exc:
        raise ValueError(f"unknown gamut method '{method}'; options: {sorted(GAMUT_METHODS)}") from exc
    return fn(images)
