"""Device profiles for the nine smartphones of Table 1.

Each :class:`DeviceProfile` couples a simulated camera sensor (hardware) with
an ISP configuration (software) and the device's market share, mirroring how
the paper's dataset isolates system-induced heterogeneity: the same scene is
captured by every device and each produces a different image because of its
sensor and ISP.

The parameter choices are designed to reproduce the *structure* of the paper's
characterization rather than any specific physical phone:

* devices of the same vendor share a colour-response "family" so same-vendor
  pairs (e.g. Pixel 5 / Pixel 2) are closer to each other than cross-vendor
  pairs, matching the Table 2 observation that Pixel 5 <-> Pixel 2 shows the
  least degradation;
* lower performance tiers get lower resolution, more noise and simpler ISP
  settings (older devices "have lower resolutions and simpler ISP algorithms",
  Section 4.2);
* high-end devices get the most aggressive, most distinctive processing
  (the paper notes the Galaxy S22's "advanced ISP algorithms" make its images
  unlike everyone else's, giving it the worst Mean Others column).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..isp.pipeline import ISPConfig
from .sensor import SensorModel

__all__ = [
    "DeviceProfile",
    "DEVICE_PROFILES",
    "DEVICE_NAMES",
    "DOMINANT_DEVICES",
    "get_device",
    "market_shares",
]


@dataclass(frozen=True)
class DeviceProfile:
    """A single device type participating in FL."""

    name: str
    vendor: str
    tier: str  # "high", "mid", or "low"
    market_share: float  # fraction of participating clients (Table 1 percentages)
    sensor: SensorModel
    isp: ISPConfig

    def __post_init__(self) -> None:
        if self.tier not in ("high", "mid", "low"):
            raise ValueError(f"tier must be high/mid/low, got '{self.tier}'")
        if not 0.0 < self.market_share <= 1.0:
            raise ValueError("market_share must be in (0, 1]")


def _color_matrix(base_hue: float, saturation: float, cross_talk: float) -> np.ndarray:
    """Build a plausible sensor colour-response matrix.

    ``base_hue`` rotates the channel mixing (vendor family), ``saturation``
    scales how much the matrix deviates from identity, and ``cross_talk``
    controls off-diagonal leakage (cheap sensors leak more between channels).
    """
    angle = np.deg2rad(base_hue)
    rotation = np.array(
        [
            [1.0, saturation * np.sin(angle), 0.0],
            [saturation * np.cos(angle) * 0.3, 1.0, saturation * np.sin(angle) * 0.3],
            [0.0, saturation * np.cos(angle), 1.0],
        ]
    )
    leak = np.full((3, 3), cross_talk)
    np.fill_diagonal(leak, 0.0)
    matrix = rotation + leak
    # Normalize rows so a white scene stays (approximately) white.
    return matrix / matrix.sum(axis=1, keepdims=True)


# Vendor colour families: each vendor's sensors share a hue bias.
_VENDOR_HUE = {"google": 10.0, "lg": 140.0, "samsung": 260.0}

# Tier-dependent hardware characteristics.
_TIER_SENSOR = {
    "high": dict(resolution=(64, 64), read_noise=0.005, shot_noise_scale=0.01, vignetting=0.05),
    "mid": dict(resolution=(48, 48), read_noise=0.015, shot_noise_scale=0.03, vignetting=0.12),
    "low": dict(resolution=(32, 32), read_noise=0.03, shot_noise_scale=0.06, vignetting=0.25),
}

# Per-device specification: (vendor, tier, market share, saturation, cross-talk,
# exposure, ISP overrides).  Market shares follow Table 1.
_DEVICE_SPECS: Dict[str, Tuple[str, str, float, float, float, float, Dict[str, str]]] = {
    "Pixel5": ("google", "high", 0.01, 0.10, 0.02, 1.00,
               {"tone": "srgb_gamma", "white_balance": "gray_world", "compression": "jpeg85"}),
    "Pixel2": ("google", "mid", 0.03, 0.12, 0.03, 0.97,
               {"tone": "srgb_gamma", "white_balance": "gray_world", "compression": "jpeg85"}),
    "Nexus5X": ("google", "low", 0.04, 0.22, 0.08, 0.85,
                {"tone": "none", "white_balance": "white_patch", "compression": "jpeg50",
                 "demosaic": "binning", "denoise": "none"}),
    "VELVET": ("lg", "high", 0.02, 0.14, 0.02, 1.02,
               {"tone": "srgb_gamma", "white_balance": "white_patch", "compression": "jpeg85"}),
    "G7": ("lg", "mid", 0.05, 0.18, 0.04, 0.92,
           {"tone": "srgb_gamma_equalize", "white_balance": "white_patch", "compression": "jpeg85",
            "denoise": "wavelet_bayes"}),
    "G4": ("lg", "low", 0.08, 0.24, 0.07, 0.88,
           {"tone": "none", "white_balance": "gray_world", "compression": "jpeg50",
            "demosaic": "binning"}),
    "S22": ("samsung", "high", 0.12, 0.30, 0.02, 1.08,
            {"tone": "srgb_gamma_equalize", "white_balance": "gray_world", "gamut": "prophoto",
             "denoise": "wavelet_bayes", "demosaic": "ahd", "compression": "jpeg85"}),
    "S9": ("samsung", "mid", 0.27, 0.16, 0.03, 1.00,
           {"tone": "srgb_gamma", "white_balance": "gray_world", "compression": "jpeg85"}),
    "S6": ("samsung", "low", 0.38, 0.20, 0.06, 0.90,
           {"tone": "srgb_gamma", "white_balance": "gray_world", "compression": "jpeg50",
            "demosaic": "binning", "denoise": "none"}),
}


def _build_profiles() -> Dict[str, DeviceProfile]:
    profiles: Dict[str, DeviceProfile] = {}
    for name, (vendor, tier, share, saturation, cross_talk, exposure, isp_overrides) in _DEVICE_SPECS.items():
        sensor_kwargs = dict(_TIER_SENSOR[tier])
        sensor = SensorModel(
            color_response=_color_matrix(_VENDOR_HUE[vendor], saturation, cross_talk),
            exposure=exposure,
            **sensor_kwargs,
        )
        isp = ISPConfig(name=f"{name}-isp", **isp_overrides)
        profiles[name] = DeviceProfile(
            name=name,
            vendor=vendor,
            tier=tier,
            market_share=share,
            sensor=sensor,
            isp=isp,
        )
    return profiles


DEVICE_PROFILES: Dict[str, DeviceProfile] = _build_profiles()
DEVICE_NAMES: List[str] = list(DEVICE_PROFILES.keys())

# Devices with the highest participation rate (Section 4.1): Galaxy S9 and S6.
DOMINANT_DEVICES: Tuple[str, str] = ("S9", "S6")


def get_device(name: str) -> DeviceProfile:
    """Look up a device profile by name (case-sensitive, as in Table 1)."""
    try:
        return DEVICE_PROFILES[name]
    except KeyError as exc:
        raise KeyError(f"unknown device '{name}'; available: {DEVICE_NAMES}") from exc


def market_shares(normalize: bool = True) -> Dict[str, float]:
    """Market share per device (Table 1); optionally normalized to sum to 1."""
    shares = {name: profile.market_share for name, profile in DEVICE_PROFILES.items()}
    if normalize:
        total = sum(shares.values())
        if total <= 0.0:
            raise ValueError(
                f"cannot normalize market shares: total share is {total} "
                f"across {len(shares)} device(s)"
            )
        shares = {name: share / total for name, share in shares.items()}
    return shares
