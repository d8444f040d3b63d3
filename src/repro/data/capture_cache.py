"""Persistent on-disk cache of captured device datasets.

Building the Fig. 3-style stage-ablation sweeps pushes the same scene pools
through the ISP once per device x ISP variant x seed; the captures themselves
never change between runs of the same configuration.  A :class:`CaptureCache`
persists every per-device capture as one ``.npz`` file (the crash-safe
checkpoint codec of :mod:`repro.store.checkpoint`, written atomically via
:func:`repro.io.atomic_write`), keyed by a sha256 digest of everything that
determines the capture bit-for-bit:

* the scene pool (generator seed, samples per class, number of classes,
  scene resolution),
* the device profile (sensor resolution, colour response matrix, exposure,
  noise parameters, vignetting, Bayer pattern, black level) and its ISP
  configuration (or the override in effect),
* the capture configuration (training image size, RAW flag, sensor-noise
  seed),
* the cache format version.

Changing *any* of those fields changes the key, so stale entries are never
returned — invalidation is structural, not time-based.  A cache hit loads the
stored arrays bitwise-identically; a miss builds the capture and persists it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict

import numpy as np

from ..store.checkpoint import CheckpointError, read_checkpoint, write_checkpoint
from .dataset import ArrayDataset

if TYPE_CHECKING:  # pragma: no cover - type-only imports (no runtime cycle)
    from ..devices.profiles import DeviceProfile
    from .capture import CaptureConfig

__all__ = ["CAPTURE_CACHE_VERSION", "CaptureCache", "device_fingerprint"]

# Bump whenever the capture pipeline's numerics change incompatibly: the
# version participates in the key, so old entries simply stop matching.
CAPTURE_CACHE_VERSION = 1


def device_fingerprint(device: "DeviceProfile") -> Dict[str, Any]:
    """JSON-safe description of everything a device contributes to a capture."""
    sensor = device.sensor
    return {
        "name": device.name,
        "vendor": device.vendor,
        "tier": device.tier,
        "sensor": {
            "resolution": list(sensor.resolution),
            "color_response": np.asarray(sensor.color_response).tolist(),
            "exposure": sensor.exposure,
            "read_noise": sensor.read_noise,
            "shot_noise_scale": sensor.shot_noise_scale,
            "vignetting": sensor.vignetting,
            "bayer_pattern": sensor.bayer_pattern,
            "black_level": sensor.black_level,
        },
        "isp": {"name": device.isp.name, **device.isp.as_dict()},
    }


class CaptureCache:
    """Directory of captured datasets keyed by capture-configuration digest.

    Layout: ``<root>/<key[:32]>.npz`` — one entry per (scene pool, device,
    capture config).  Entries are written atomically; unreadable or
    version-incompatible files are treated as misses and rebuilt.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    # -- keys ------------------------------------------------------------- #
    @staticmethod
    def capture_key(scene_seed: int, samples_per_class: int, num_classes: int,
                    scene_size: int, device: "DeviceProfile",
                    config: "CaptureConfig") -> str:
        """sha256 digest of every field that determines a capture bit-for-bit."""
        isp_override = config.isp_override
        payload = {
            "cache_version": CAPTURE_CACHE_VERSION,
            "scene_pool": {
                "seed": scene_seed,
                "samples_per_class": samples_per_class,
                "num_classes": num_classes,
                "scene_size": scene_size,
            },
            "device": device_fingerprint(device),
            "capture": {
                "image_size": config.image_size,
                "raw": config.raw,
                "seed": config.seed,
                "isp_override": (
                    None if isp_override is None
                    else {"name": isp_override.name, **isp_override.as_dict()}
                ),
            },
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def path_for(self, key: str) -> Path:
        return self.root / f"{key[:32]}.npz"

    # -- storage ---------------------------------------------------------- #
    def load(self, key: str) -> "ArrayDataset | None":
        """Load the dataset stored under ``key``, or ``None`` on a miss.

        Corrupt or incompatible entries count as misses; the subsequent
        :meth:`store` atomically replaces them.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            tree, meta = read_checkpoint(path)
        except (CheckpointError, OSError, ValueError):
            return None
        if meta.get("capture_key") != key:
            return None
        metadata = tree.get("metadata")
        return ArrayDataset(tree["features"], tree["labels"],
                            metadata=dict(metadata) if metadata is not None else None)

    def store(self, key: str, dataset: ArrayDataset) -> None:
        """Persist ``dataset`` under ``key`` (atomic write)."""
        self.root.mkdir(parents=True, exist_ok=True)
        tree = {
            "features": dataset.features,
            "labels": dataset.labels,
            "metadata": dict(dataset.metadata) if dataset.metadata is not None else None,
        }
        write_checkpoint(self.path_for(key), tree, extra_meta={"capture_key": key})

    def lookup(self, key: str) -> "ArrayDataset | None":
        """:meth:`load`, counting the outcome as a hit or a miss."""
        cached = self.load(key)
        if cached is None:
            self.misses += 1
        else:
            self.hits += 1
        return cached

    # -- introspection ----------------------------------------------------- #
    @property
    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "entries": len(self.entries())}

    def entries(self) -> list[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.npz"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CaptureCache({str(self.root)!r}, hits={self.hits}, misses={self.misses})"
