"""End-to-end ISP pipeline (Figure 1 / Table 3 of the paper).

An :class:`ISPConfig` names the algorithm used at each of the six stages —
denoising, demosaicing, white balance, gamut mapping, tone transformation and
compression — and :class:`ISPPipeline` runs a batch of RAW captures through
them, producing the processed images a device's camera app would hand to the
training pipeline.

Table 3's Baseline / Option 1 / Option 2 columns are provided as ready-made
configs, and :func:`stage_variants` enumerates the per-stage substitutions the
Fig. 3 ablation sweeps over.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

import numpy as np

from .compression import COMPRESSION_METHODS, compress_batch
from .demosaic import DEMOSAIC_METHODS, demosaic_batch
from .denoise import DENOISE_METHODS, denoise_batch
from .gamut import GAMUT_METHODS, gamut_map_batch
from .raw import RawBatch
from .tone import TONE_METHODS, tone_transform_batch
from .white_balance import WHITE_BALANCE_METHODS, white_balance_batch

__all__ = [
    "ISPConfig",
    "ISPPipeline",
    "BASELINE_CONFIG",
    "OPTION1_CONFIG",
    "OPTION2_CONFIG",
    "ISP_STAGES",
    "stage_variants",
]

# The ISP stages in Table 3's row order; stage_variants and the Fig. 3 rows
# follow it.  Execution order differs: ISPPipeline.process_batch demosaics
# before it denoises, because the denoisers work in the RGB domain.
ISP_STAGES = (
    "denoise",
    "demosaic",
    "white_balance",
    "gamut",
    "tone",
    "compression",
)

_STAGE_METHODS: Dict[str, Dict[str, object]] = {
    "denoise": DENOISE_METHODS,
    "demosaic": DEMOSAIC_METHODS,
    "white_balance": WHITE_BALANCE_METHODS,
    "gamut": GAMUT_METHODS,
    "tone": TONE_METHODS,
    "compression": COMPRESSION_METHODS,
}


@dataclass(frozen=True)
class ISPConfig:
    """Algorithm selection for each ISP stage.

    Defaults correspond to the Baseline column of Table 3: FBDD denoising,
    PPG demosaicing, gray-world white balance, sRGB gamut, sRGB gamma tone
    curve and JPEG quality-85 compression.
    """

    denoise: str = "fbdd"
    demosaic: str = "ppg"
    white_balance: str = "gray_world"
    gamut: str = "srgb"
    tone: str = "srgb_gamma"
    compression: str = "jpeg85"
    name: str = "baseline"

    def __post_init__(self) -> None:
        for stage in ISP_STAGES:
            method = getattr(self, stage)
            methods = _STAGE_METHODS[stage]
            if method not in methods:
                raise ValueError(
                    f"unknown method '{method}' for ISP stage '{stage}'; "
                    f"options: {sorted(methods)}"
                )

    def with_stage(self, stage: str, method: str, name: str | None = None) -> "ISPConfig":
        """Return a copy of this config with one stage's algorithm replaced."""
        if stage not in ISP_STAGES:
            raise ValueError(f"unknown ISP stage '{stage}'; stages: {ISP_STAGES}")
        return replace(self, **{stage: method, "name": name or f"{self.name}:{stage}={method}"})

    def as_dict(self) -> Dict[str, str]:
        """Return the per-stage method mapping."""
        return {stage: getattr(self, stage) for stage in ISP_STAGES}


BASELINE_CONFIG = ISPConfig(name="baseline")

OPTION1_CONFIG = ISPConfig(
    denoise="none",
    demosaic="binning",
    white_balance="none",
    gamut="none",
    tone="none",
    compression="none",
    name="option1",
)

OPTION2_CONFIG = ISPConfig(
    denoise="wavelet_bayes",
    demosaic="ahd",
    white_balance="white_patch",
    gamut="prophoto",
    tone="srgb_gamma_equalize",
    compression="jpeg50",
    name="option2",
)

# Per-stage alternatives used by the Fig. 3 ablation: for each stage, Option 1
# omits it (or uses pixel binning for demosaicing, which cannot be omitted) and
# Option 2 swaps in the alternative algorithm from Table 3.
_STAGE_OPTIONS: Dict[str, Dict[str, str]] = {
    "denoise": {"option1": "none", "option2": "wavelet_bayes"},
    "demosaic": {"option1": "binning", "option2": "ahd"},
    "white_balance": {"option1": "none", "option2": "white_patch"},
    "gamut": {"option1": "none", "option2": "prophoto"},
    "tone": {"option1": "none", "option2": "srgb_gamma_equalize"},
    "compression": {"option1": "none", "option2": "jpeg50"},
}


def stage_variants(base: ISPConfig = BASELINE_CONFIG) -> List[ISPConfig]:
    """Enumerate the single-stage substitutions Fig. 3 evaluates.

    For every stage, returns configs identical to ``base`` except that the
    stage uses Option 1 (omitted) and Option 2 (alternative algorithm).
    """
    variants: List[ISPConfig] = []
    for stage in ISP_STAGES:
        for option, method in _STAGE_OPTIONS[stage].items():
            if method == getattr(base, stage):
                continue
            variants.append(base.with_stage(stage, method, name=f"{stage}:{option}"))
    return variants


class ISPPipeline:
    """Run RAW captures through the six ISP stages of an :class:`ISPConfig`."""

    def __init__(self, config: ISPConfig = BASELINE_CONFIG) -> None:
        self.config = config

    def process_batch(self, raw: RawBatch) -> np.ndarray:
        """Process ``(N, H, W)`` RAW mosaics into ``(N, H, W, 3)`` images in [0, 1].

        The stage order follows Fig. 1: demosaicing must run before the
        colour stages, denoising operates on the demosaiced image (our
        denoisers are RGB-domain), and compression runs last.  Every stage
        kernel treats batch members independently, so this is bitwise
        identical to processing the captures one at a time.
        """
        images = demosaic_batch(raw, self.config.demosaic)
        images = denoise_batch(images, self.config.denoise)
        images = white_balance_batch(images, self.config.white_balance)
        images = gamut_map_batch(images, self.config.gamut)
        images = tone_transform_batch(images, self.config.tone)
        images = compress_batch(images, self.config.compression)
        return np.clip(images, 0.0, 1.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ISPPipeline({self.config.as_dict()})"
