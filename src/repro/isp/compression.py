"""Image compression stage (Table 3, "Image compression").

The paper uses JPEG at quality 85 (baseline) and quality 50 (Option 2);
Option 1 omits compression.  We implement the lossy core of JPEG — 8x8 block
DCT, quality-scaled quantization of the luma/chroma planes, inverse DCT —
which reproduces the characteristic blocking/ringing distortion without the
entropy-coding bookkeeping (lossless, so irrelevant to data heterogeneity).

The block transform is independent per 8x8 tile, so the ``(N, H, W, C)``
kernels tile the whole batch at once and each image's output does not depend
on the rest of the batch.
"""

from __future__ import annotations

from functools import partial

import numpy as np
from scipy.fft import dctn, idctn

__all__ = [
    "compress_batch",
    "COMPRESSION_METHODS",
    "jpeg_compress_batch",
    "compress_none",
    "quality_to_quant_table",
]

# Standard JPEG luminance quantization table (Annex K of ITU-T T.81).
_BASE_QUANT_TABLE = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)

_BLOCK = 8

# RGB <-> YCbCr (JPEG / JFIF convention).
_RGB_TO_YCBCR = np.array(
    [
        [0.299, 0.587, 0.114],
        [-0.168736, -0.331264, 0.5],
        [0.5, -0.418688, -0.081312],
    ]
)
_YCBCR_TO_RGB = np.linalg.inv(_RGB_TO_YCBCR)


def quality_to_quant_table(quality: int) -> np.ndarray:
    """Scale the base quantization table for a JPEG quality factor in [1, 100]."""
    if not 1 <= quality <= 100:
        raise ValueError(f"quality must be in [1, 100], got {quality}")
    if quality < 50:
        scale = 5000.0 / quality
    else:
        scale = 200.0 - 2.0 * quality
    table = np.floor((_BASE_QUANT_TABLE * scale + 50.0) / 100.0)
    return np.clip(table, 1.0, 255.0)


def _blockwise_quantize(planes: np.ndarray, quant: np.ndarray) -> np.ndarray:
    """DCT-quantize-dequantize-IDCT every 8x8 block of ``(N, H, W)`` planes."""
    n, h, w = planes.shape
    pad_h = (-h) % _BLOCK
    pad_w = (-w) % _BLOCK
    padded = np.pad(planes, ((0, 0), (0, pad_h), (0, pad_w)), mode="edge")
    ph, pw = padded.shape[1:]
    blocks = padded.reshape(n, ph // _BLOCK, _BLOCK, pw // _BLOCK, _BLOCK).transpose(0, 1, 3, 2, 4)
    coeffs = dctn(blocks, axes=(3, 4), norm="ortho")
    quantized = np.round(coeffs / quant) * quant
    recon = idctn(quantized, axes=(3, 4), norm="ortho")
    out = recon.transpose(0, 1, 3, 2, 4).reshape(n, ph, pw)
    return out[:, :h, :w]


def jpeg_compress_batch(images: np.ndarray, quality: int = 85) -> np.ndarray:
    """Apply JPEG-style lossy compression to an ``(N, H, W, 3)`` batch."""
    images = np.clip(np.asarray(images, dtype=np.float64), 0.0, 1.0)
    if images.ndim != 4:
        raise ValueError(f"expected an (N, H, W, C) batch, got shape {images.shape}")
    quant = quality_to_quant_table(quality) / 255.0  # work in [0, 1] space
    flat = images.reshape(-1, 3) @ _RGB_TO_YCBCR.T
    ycbcr = flat.reshape(images.shape)
    out = np.empty_like(ycbcr)
    for channel in range(3):
        # Chroma planes use a stronger effective quantization (JPEG subsamples
        # them; doubling the table is the equivalent distortion here).
        channel_quant = quant if channel == 0 else quant * 2.0
        out[..., channel] = _blockwise_quantize(ycbcr[..., channel], channel_quant)
    rgb = out.reshape(-1, 3) @ _YCBCR_TO_RGB.T
    return np.clip(rgb.reshape(images.shape), 0.0, 1.0)


def compress_none(images: np.ndarray) -> np.ndarray:
    """Pass-through used when the compression stage is omitted."""
    return np.asarray(images, dtype=np.float64)


COMPRESSION_METHODS = {
    "jpeg85": partial(jpeg_compress_batch, quality=85),
    "none": compress_none,
    "jpeg50": partial(jpeg_compress_batch, quality=50),
}


def compress_batch(images: np.ndarray, method: str = "jpeg85") -> np.ndarray:
    """Compress an ``(N, H, W, C)`` batch with the named method."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4:
        raise ValueError(f"expected an (N, H, W, C) batch, got shape {images.shape}")
    try:
        fn = COMPRESSION_METHODS[method]
    except KeyError as exc:
        raise ValueError(
            f"unknown compression method '{method}'; options: {sorted(COMPRESSION_METHODS)}"
        ) from exc
    return fn(images)
