"""Software image-signal-processing (ISP) pipeline simulator.

Implements the six-stage ISP of Fig. 1 / Table 3 of the paper — denoising,
demosaicing, white balance, gamut mapping, tone transformation and JPEG-style
compression — plus the random ISP transformations HeteroSwitch applies on the
client (Eq. 2 and Eq. 3).
"""

from .compression import COMPRESSION_METHODS, compress_batch, jpeg_compress_batch
from .demosaic import DEMOSAIC_METHODS, demosaic_batch
from .denoise import DENOISE_METHODS, denoise_batch
from .gamut import GAMUT_METHODS, gamut_map_batch
from .pipeline import (
    BASELINE_CONFIG,
    ISP_STAGES,
    ISPConfig,
    ISPPipeline,
    OPTION1_CONFIG,
    OPTION2_CONFIG,
    stage_variants,
)
from .raw import BAYER_PATTERNS, RawBatch, bayer_mosaic_batch, raw_to_training_array_batch
from .resize import resize_bilinear_batch
from .tone import TONE_METHODS, srgb_gamma, srgb_gamma_inverse, tone_transform_batch
from .transforms import (
    Compose,
    GaussianNoise,
    RandomAffine,
    RandomGamma,
    RandomGaussianFilter1D,
    RandomWhiteBalance,
    Transform,
    apply_gamma,
    apply_white_balance_gains,
)
from .white_balance import WHITE_BALANCE_METHODS, white_balance_batch

__all__ = [
    "RawBatch",
    "bayer_mosaic_batch",
    "raw_to_training_array_batch",
    "resize_bilinear_batch",
    "BAYER_PATTERNS",
    "ISPConfig",
    "ISPPipeline",
    "BASELINE_CONFIG",
    "OPTION1_CONFIG",
    "OPTION2_CONFIG",
    "ISP_STAGES",
    "stage_variants",
    "demosaic_batch",
    "DEMOSAIC_METHODS",
    "denoise_batch",
    "DENOISE_METHODS",
    "white_balance_batch",
    "WHITE_BALANCE_METHODS",
    "gamut_map_batch",
    "GAMUT_METHODS",
    "tone_transform_batch",
    "TONE_METHODS",
    "srgb_gamma",
    "srgb_gamma_inverse",
    "apply_gamma",
    "compress_batch",
    "jpeg_compress_batch",
    "COMPRESSION_METHODS",
    "Transform",
    "Compose",
    "RandomWhiteBalance",
    "RandomGamma",
    "RandomAffine",
    "GaussianNoise",
    "RandomGaussianFilter1D",
    "apply_white_balance_gains",
]
