"""Device (hardware + ISP software) simulation for system-induced heterogeneity.

Provides the nine smartphone profiles of Table 1, their market shares, the
parametric sensor model behind them, and the synthetic device-type generators
used by the CIFAR and FLAIR-like experiments.
"""

from .profiles import (
    DEVICE_NAMES,
    DEVICE_PROFILES,
    DOMINANT_DEVICES,
    DeviceProfile,
    get_device,
    market_shares,
)
from .sensor import SensorModel
from .synthetic import SyntheticDeviceType, generate_synthetic_devices, long_tailed_population

__all__ = [
    "DeviceProfile",
    "DEVICE_PROFILES",
    "DEVICE_NAMES",
    "DOMINANT_DEVICES",
    "get_device",
    "market_shares",
    "SensorModel",
    "SyntheticDeviceType",
    "generate_synthetic_devices",
    "long_tailed_population",
]
