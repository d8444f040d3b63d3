"""Per-device latency and availability models for asynchronous FL.

The paper isolates *system-induced* data heterogeneity; this module extends
the same infrastructure-modeling idea to *temporal* heterogeneity.  Each
:class:`DeviceLatencyModel` is derived from the existing
:class:`~repro.devices.profiles.DeviceProfile` population rather than invented
per experiment:

* **tier → compute speed.**  High/mid/low performance tiers map to local
  training throughput (samples per simulated second), mirroring how the tiers
  already map to sensor resolution and ISP sophistication.
* **vendor + market share → network class.**  Devices with a large installed
  base (Table 1's S6/S9) are treated as the mass-market cohort on congested /
  metered links; rare flagships get fast links.  The vendor applies a small
  multiplier (infrastructure quality differs by ecosystem).
* **tier → availability duty cycle.**  Lower-tier devices are charged less
  often and churn more: they are online a smaller fraction of virtual time,
  in shorter sessions.

All distributions are *sampled by the caller*: every method takes an explicit
``numpy`` generator, so the event-driven simulation can feed it per-(client,
event) streams and keep the virtual clock a pure function of the run seed
(see :mod:`repro.fl.async_sim.events`).

A :class:`LatencyRegime` scales how strongly the profile-derived skew is
expressed — ``uniform`` collapses every device to the same speed (useful as a
control), ``mild`` uses the nominal derivation, and ``extreme`` exaggerates
the tails — so benchmarks can sweep skew without redefining the population.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, Union

import numpy as np

from .profiles import DEVICE_PROFILES, DeviceProfile

__all__ = [
    "DeviceLatencyModel",
    "LatencyRegime",
    "LATENCY_REGIMES",
    "get_regime",
    "build_latency_model",
    "build_latency_models",
    "mean_round_trip",
]

# Nominal local-training throughput per performance tier, in samples per
# simulated second (one sample = one training example for one epoch).
_TIER_COMPUTE = {"high": 360.0, "mid": 140.0, "low": 45.0}
_BASE_COMPUTE = _TIER_COMPUTE["mid"]

# Nominal availability per tier: (fraction of virtual time online,
# mean online-session length in simulated seconds).
_TIER_AVAILABILITY = {
    "high": (0.90, 5400.0),
    "mid": (0.72, 2700.0),
    "low": (0.55, 1200.0),
}

# Vendor multiplier on network transfer time (ecosystem infrastructure).
_VENDOR_NETWORK = {"google": 0.85, "lg": 1.00, "samsung": 1.10}

# Market-share thresholds mapping installed base to a network class: the
# mass-market cohort shares congested links, rare flagships get fast ones.
_NETWORK_CLASSES = (
    (0.15, 28.0),  # share >= 15%: congested
    (0.05, 12.0),  # share >= 5%:  typical
    (0.00, 5.0),   # otherwise:    fast
)
_BASE_NETWORK = 12.0


@dataclass(frozen=True)
class DeviceLatencyModel:
    """Latency and availability distributions for one device type.

    Attributes
    ----------
    device:
        Device name this model was derived for.
    compute_rate:
        Local-training throughput in samples per simulated second.
    network_seconds:
        Mean round-trip transfer time (download + upload) per update.
    jitter_sigma:
        Sigma of the multiplicative log-normal jitter on each round trip.
    on_fraction:
        Long-run fraction of virtual time the device is online.
    mean_session_seconds:
        Mean length of one online session (exponentially distributed).
        ``inf`` disables churn: the device is permanently online.
    """

    device: str
    compute_rate: float
    network_seconds: float
    jitter_sigma: float
    on_fraction: float
    mean_session_seconds: float

    def __post_init__(self) -> None:
        if self.compute_rate <= 0:
            raise ValueError(f"compute_rate must be positive, got {self.compute_rate}")
        if self.network_seconds < 0:
            raise ValueError("network_seconds must be non-negative")
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be non-negative")
        if not 0.0 < self.on_fraction <= 1.0:
            raise ValueError("on_fraction must be in (0, 1]")
        if self.mean_session_seconds <= 0:
            raise ValueError("mean_session_seconds must be positive")

    @property
    def always_online(self) -> bool:
        """True when churn is disabled (no on/off toggling)."""
        return not np.isfinite(self.mean_session_seconds) or self.on_fraction >= 1.0

    def sample_round_trip(self, num_samples: int, rng: np.random.Generator) -> float:
        """Virtual seconds for one dispatched update: compute + network + jitter.

        ``num_samples`` is the total number of training examples processed
        (local dataset size × local epochs).  The caller supplies the RNG so
        the draw belongs to a per-(client, event) stream.
        """
        base = num_samples / self.compute_rate + self.network_seconds
        if self.jitter_sigma > 0:
            base *= float(rng.lognormal(mean=0.0, sigma=self.jitter_sigma))
        return float(base)

    def sample_session(self, online: bool, rng: np.random.Generator) -> float:
        """Virtual seconds until the device next toggles its availability.

        Online sessions are exponential with mean ``mean_session_seconds``;
        offline gaps are scaled so the long-run online fraction equals
        ``on_fraction``.  Raises when churn is disabled (no toggles exist).
        """
        if self.always_online:
            raise RuntimeError(
                f"device '{self.device}' is permanently online; no sessions to sample"
            )
        if online:
            mean = self.mean_session_seconds
        else:
            mean = self.mean_session_seconds * (1.0 - self.on_fraction) / self.on_fraction
        # Clamp away from zero so two toggles can never collapse onto the
        # same timestamp as their own dispatch/completion.
        return float(max(rng.exponential(mean), 1e-6))

    def sample_initially_online(self, rng: np.random.Generator) -> bool:
        """Whether the device starts the run online (stationary distribution)."""
        if self.always_online:
            return True
        return bool(rng.random() < self.on_fraction)


@dataclass(frozen=True)
class LatencyRegime:
    """How strongly profile-derived heterogeneity is expressed.

    ``compute_skew`` / ``network_skew`` are exponents on the per-device ratio
    to the population baseline: ``0`` collapses every device to the baseline,
    ``1`` is the nominal derivation, ``> 1`` exaggerates the spread.
    ``churn`` scales toggle frequency (``0`` disables churn entirely).
    """

    name: str
    compute_skew: float
    network_skew: float
    jitter_sigma: float
    churn: float

    def __post_init__(self) -> None:
        if self.compute_skew < 0 or self.network_skew < 0:
            raise ValueError("skew exponents must be non-negative")
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be non-negative")
        if self.churn < 0:
            raise ValueError("churn must be non-negative")


LATENCY_REGIMES: Dict[str, LatencyRegime] = {
    "uniform": LatencyRegime("uniform", compute_skew=0.0, network_skew=0.0,
                             jitter_sigma=0.05, churn=0.0),
    "mild": LatencyRegime("mild", compute_skew=1.0, network_skew=1.0,
                          jitter_sigma=0.15, churn=1.0),
    "extreme": LatencyRegime("extreme", compute_skew=1.6, network_skew=1.5,
                             jitter_sigma=0.35, churn=2.0),
}


def get_regime(regime: Union[str, LatencyRegime]) -> LatencyRegime:
    """Resolve a regime preset name (or pass an instance through)."""
    if isinstance(regime, LatencyRegime):
        return regime
    try:
        return LATENCY_REGIMES[regime]
    except KeyError:
        raise KeyError(
            f"unknown latency regime '{regime}'; "
            f"available: {sorted(LATENCY_REGIMES)}"
        ) from None


def _network_class_seconds(market_share: float) -> float:
    for threshold, seconds in _NETWORK_CLASSES:
        if market_share >= threshold:
            return seconds
    return _NETWORK_CLASSES[-1][1]


def _fallback_profile_params(device: str) -> Dict[str, float]:
    """Deterministic mid-tier parameters for devices outside Table 1.

    Synthetic datasets (``synthetic_cifar``, ``flair``...) name devices that
    have no :class:`DeviceProfile`; they get mid-tier characteristics with a
    name-hashed perturbation so distinct devices still differ.
    """
    jiggle = (zlib.crc32(device.encode("utf-8")) % 1000) / 1000.0  # [0, 1)
    return {
        "compute_rate": _TIER_COMPUTE["mid"] * (0.7 + 0.6 * jiggle),
        "network_seconds": _BASE_NETWORK * (0.8 + 0.4 * (1.0 - jiggle)),
        "on_fraction": _TIER_AVAILABILITY["mid"][0],
        "mean_session_seconds": _TIER_AVAILABILITY["mid"][1],
    }


def build_latency_model(
    device: Union[str, DeviceProfile],
    regime: Union[str, LatencyRegime] = "mild",
) -> DeviceLatencyModel:
    """Derive the latency model for one device under a regime.

    ``device`` may be a profile, a Table 1 device name, or any other string
    (synthetic-device fallback; see :func:`_fallback_profile_params`).
    """
    regime = get_regime(regime)
    if isinstance(device, DeviceProfile):
        profile = device
    else:
        profile = DEVICE_PROFILES.get(device)

    if profile is not None:
        compute = _TIER_COMPUTE[profile.tier]
        network = (_network_class_seconds(profile.market_share)
                   * _VENDOR_NETWORK.get(profile.vendor, 1.0))
        on_fraction, session = _TIER_AVAILABILITY[profile.tier]
        name = profile.name
    else:
        params = _fallback_profile_params(str(device))
        compute = params["compute_rate"]
        network = params["network_seconds"]
        on_fraction, session = params["on_fraction"], params["mean_session_seconds"]
        name = str(device)

    # Skew exponents interpolate between "everyone at the baseline" (0) and
    # the nominal profile-derived value (1); > 1 widens the spread.
    compute = _BASE_COMPUTE * (compute / _BASE_COMPUTE) ** regime.compute_skew
    network = _BASE_NETWORK * (network / _BASE_NETWORK) ** regime.network_skew

    if regime.churn <= 0:
        on_fraction, session = 1.0, float("inf")
    else:
        session = session / regime.churn

    return DeviceLatencyModel(
        device=name,
        compute_rate=compute,
        network_seconds=network,
        jitter_sigma=regime.jitter_sigma,
        on_fraction=on_fraction,
        mean_session_seconds=session,
    )


def build_latency_models(
    devices: Iterable[str],
    regime: Union[str, LatencyRegime] = "mild",
) -> Dict[str, DeviceLatencyModel]:
    """Latency models for a device population (one per distinct name)."""
    regime = get_regime(regime)
    return {name: build_latency_model(name, regime) for name in dict.fromkeys(devices)}


def mean_round_trip(model: DeviceLatencyModel, num_samples: int) -> float:
    """Expected round-trip seconds (no jitter); used for reporting only."""
    return num_samples / model.compute_rate + model.network_seconds
