"""Camera sensor (hardware) simulation.

Section 3.3 of the paper attributes a large share of system-induced data
heterogeneity to the image sensor itself: focal length, aperture, pixel size
and resolution all change the RAW response recorded for the same scene.  The
original work measures this with nine physical phones; this module simulates
the same mechanism with a parametric :class:`SensorModel` that converts an
idealized scene into a device-specific Bayer RAW capture.

The per-device knobs (spectral response matrix, exposure, read/shot noise,
vignetting, resolution) are what generate *hardware* heterogeneity; the ISP
configuration attached to the device profile generates the *software* part.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from ..isp.raw import RawBatch, bayer_mosaic_batch
from ..isp.resize import resize_bilinear_batch

__all__ = ["SensorModel"]


@dataclass
class SensorModel:
    """Parametric model of a phone camera sensor.

    Parameters
    ----------
    resolution:
        Native capture resolution ``(height, width)`` — must be even for Bayer
        sampling.  Older/lower-tier devices use lower resolutions.
    color_response:
        3x3 matrix mixing scene RGB into sensor RGB before CFA sampling; models
        the spectral response differences between vendors' sensors.
    exposure:
        Global gain applied to the scene radiance (lens aperture + exposure).
    read_noise:
        Standard deviation of additive Gaussian read noise (in [0, 1] units).
    shot_noise_scale:
        Scale of signal-dependent (Poisson-like) shot noise; larger for small
        pixels on cheap sensors.
    vignetting:
        Strength of radial lens falloff in [0, 1); 0 disables it.
    bayer_pattern:
        CFA layout used when sampling the mosaic.
    black_level:
        Constant sensor offset added before noise and removed afterwards.
    """

    resolution: Tuple[int, int] = (64, 64)
    color_response: np.ndarray = field(default_factory=lambda: np.eye(3))
    exposure: float = 1.0
    read_noise: float = 0.01
    shot_noise_scale: float = 0.01
    vignetting: float = 0.0
    bayer_pattern: str = "RGGB"
    black_level: float = 0.0

    def __post_init__(self) -> None:
        self.color_response = np.asarray(self.color_response, dtype=np.float64)
        if self.color_response.shape != (3, 3):
            raise ValueError("color_response must be a 3x3 matrix")
        h, w = self.resolution
        if h % 2 or w % 2:
            raise ValueError("sensor resolution must be even for Bayer sampling")
        if self.exposure <= 0:
            raise ValueError("exposure must be positive")
        if self.read_noise < 0 or self.shot_noise_scale < 0:
            raise ValueError("noise parameters must be non-negative")
        if not 0.0 <= self.vignetting < 1.0:
            raise ValueError("vignetting must be in [0, 1)")

    # ------------------------------------------------------------------ #
    def _vignette_mask(self) -> np.ndarray:
        h, w = self.resolution
        ys = np.linspace(-1.0, 1.0, h)[:, None]
        xs = np.linspace(-1.0, 1.0, w)[None, :]
        radius_sq = ys ** 2 + xs ** 2
        # cos^4-like radial falloff scaled by the vignetting strength.
        return 1.0 - self.vignetting * radius_sq / 2.0

    def expose_batch(self, scenes: np.ndarray) -> np.ndarray:
        """Deterministically render scenes onto the sensor plane (no noise).

        Returns the ``(N, H, W, 3)`` linear sensor irradiance before CFA
        sampling; every operation is per-pixel, so a scene's irradiance does
        not depend on the rest of its batch.
        """
        scenes = np.clip(np.asarray(scenes, dtype=np.float64), 0.0, 1.0)
        if scenes.ndim != 4 or scenes.shape[-1] != 3:
            raise ValueError(f"expected an (N, H, W, 3) scene batch, got {scenes.shape}")
        resized = resize_bilinear_batch(scenes, self.resolution)
        mixed = resized.reshape(-1, 3) @ self.color_response.T
        mixed = mixed.reshape(resized.shape)
        exposed = mixed * self.exposure
        if self.vignetting > 0:
            exposed = exposed * self._vignette_mask()[..., None]
        return np.clip(exposed, 0.0, 1.0)

    def capture_raw_batch(self, scenes: np.ndarray, rng: np.random.Generator) -> RawBatch:
        """Capture ``(N, H, W)`` RAW Bayer mosaics with sensor noise applied.

        The noise realization is drawn as one ``(N, 2, H, W, 3)`` standard-
        normal block, which consumes the generator's bitstream scene by scene
        (per scene: shot-noise draw, then read-noise draw) — so capturing a
        pool in consecutive chunks from one generator draws the same noise as
        capturing it at once.
        """
        irradiance = self.expose_batch(scenes)
        # Shot noise: variance proportional to the signal; read noise: constant.
        shot_sigma = np.sqrt(np.maximum(irradiance, 0.0)) * self.shot_noise_scale
        draws = rng.normal(0.0, 1.0, size=(len(irradiance), 2) + irradiance.shape[1:])
        noisy = irradiance + draws[:, 0] * shot_sigma
        noisy = noisy + (0.0 + self.read_noise * draws[:, 1])
        if self.black_level:
            noisy = np.clip(noisy + self.black_level, 0.0, 1.0 + self.black_level) - self.black_level
        noisy = np.clip(noisy, 0.0, 1.0)
        mosaics = bayer_mosaic_batch(noisy, pattern=self.bayer_pattern)
        return RawBatch(mosaics=mosaics, pattern=self.bayer_pattern)
