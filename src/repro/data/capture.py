"""Device capture simulation: scene -> sensor RAW -> ISP -> training tensor.

This is the data-generation process of Fig. 1: a monitor displays a scene, a
device's sensor records RAW data, the device's ISP produces the final image,
and the image is resized into the tensor the model trains on.  Capturing the
*same* scenes with *different* device profiles yields the per-device datasets
used throughout Sections 3, 4 and 6.

Every step is an ``(n, ...)`` kernel over the batch dimension: sensor
exposure, noise, Bayer sampling, all six ISP stages and the final resize.
They run over fixed chunks of :data:`CAPTURE_CHUNK` scenes that share the
capture's one noise generator in order.  A capture's temporaries are
therefore O(chunk) whatever the pool size, and its output is bit-identical
to running the same kernels one scene at a time (the test oracle).
:func:`build_device_datasets` runs a fleet's captures on one thread per core,
so a build holds O(threads x chunk) temporaries.  Captured datasets can
additionally be persisted in a :class:`~repro.data.capture_cache.CaptureCache`,
so repeated sweeps over one device fleet rebuild nothing.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..devices.profiles import DEVICE_PROFILES, DeviceProfile
from ..isp.pipeline import ISPConfig, ISPPipeline
from ..isp.raw import raw_to_training_array_batch
from ..isp.resize import resize_bilinear_batch
from .capture_cache import CaptureCache
from .dataset import ArrayDataset
from .scenes import generate_scene_dataset

__all__ = [
    "CAPTURE_CHUNK",
    "CaptureConfig",
    "capture_with_device",
    "build_device_datasets",
    "derive_capture_seeds",
    "DeviceDatasetBundle",
]

#: Scenes per chunk of one capture.  Every stage kernel treats scenes
#: independently, so the chunk size bounds memory and never changes a value.
CAPTURE_CHUNK = 8


@dataclass(frozen=True)
class CaptureConfig:
    """Configuration of a capture session.

    Attributes
    ----------
    image_size:
        Side length of the training tensors produced (model input resolution).
    raw:
        If ``True``, skip the ISP and return RAW-derived tensors (Section 3.3).
    isp_override:
        Optional ISP configuration that replaces the device's own ISP, used by
        the Fig. 3 stage-ablation experiment (all devices share one pipeline
        whose stages are then perturbed).
    seed:
        Seed for the sensor noise realisations.
    """

    image_size: int = 32
    raw: bool = False
    isp_override: Optional[ISPConfig] = None
    seed: int = 0


def _validate_capture_inputs(scenes: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scenes = np.asarray(scenes, dtype=np.float64)
    labels = np.asarray(labels)
    if scenes.ndim != 4 or scenes.shape[-1] != 3:
        raise ValueError(f"scenes must be (N, H, W, 3), got {scenes.shape}")
    if len(scenes) != len(labels):
        raise ValueError("scenes and labels must be the same length")
    return scenes, labels


def _capture_metadata(device: DeviceProfile, config: CaptureConfig) -> Dict[str, object]:
    return {
        "device": device.name,
        "vendor": device.vendor,
        "tier": device.tier,
        "raw": config.raw,
        "isp": (config.isp_override or device.isp).name if not config.raw else "raw",
    }


def capture_with_device(
    scenes: np.ndarray,
    labels: np.ndarray,
    device: DeviceProfile,
    config: CaptureConfig = CaptureConfig(),
) -> ArrayDataset:
    """Capture a batch of scenes with one device, returning an NCHW dataset.

    The scene -> RAW -> ISP -> tensor path runs as batched kernels over
    chunks of :data:`CAPTURE_CHUNK` scenes.  The chunks draw from one
    generator in scene order, so the result is bit-identical to a per-scene
    loop of one-scene calls to the same sensor, ISP and resize kernels,
    sensor noise included.
    """
    scenes, labels = _validate_capture_inputs(scenes, labels)
    rng = np.random.default_rng(config.seed)
    pipeline = None if config.raw else ISPPipeline(config.isp_override or device.isp)
    size = (config.image_size, config.image_size)
    features = np.empty((len(scenes), 3) + size)
    images = features.transpose(0, 2, 3, 1)  # the (N, S, S, 3) view each chunk fills
    for start in range(0, len(scenes), CAPTURE_CHUNK):
        chunk = slice(start, start + CAPTURE_CHUNK)
        raw_batch = device.sensor.capture_raw_batch(scenes[chunk], rng)
        if pipeline is None:
            processed = raw_to_training_array_batch(raw_batch)
        else:
            processed = pipeline.process_batch(raw_batch)
        images[chunk] = resize_bilinear_batch(processed, size)
    return ArrayDataset(features, labels, metadata=_capture_metadata(device, config))


@dataclass
class DeviceDatasetBundle:
    """Per-device train/test datasets captured from shared scene pools."""

    train: Dict[str, ArrayDataset]
    test: Dict[str, ArrayDataset]
    num_classes: int
    image_size: int

    def devices(self) -> list[str]:
        return list(self.train.keys())


def derive_capture_seeds(seed: int, device_offset: int) -> tuple[int, int]:
    """Derive independent (train, test) sensor-noise seeds for one device.

    The train and test pools must see *different* noise realisations: reusing
    one seed replays the train noise stream sample-for-sample onto the test
    captures.  Spawning two children from one ``SeedSequence`` keeps the
    derivation deterministic per ``(seed, device)`` while separating the
    streams.
    """
    train_seq, test_seq = np.random.SeedSequence(seed + device_offset).spawn(2)
    return (int(train_seq.generate_state(1)[0]), int(test_seq.generate_state(1)[0]))


def build_device_datasets(
    samples_per_class_train: int = 8,
    samples_per_class_test: int = 4,
    num_classes: int = 12,
    image_size: int = 32,
    scene_size: int = 64,
    devices: Optional[Sequence[str]] = None,
    raw: bool = False,
    isp_override: Optional[ISPConfig] = None,
    seed: int = 0,
    cache: "CaptureCache | str | None" = None,
) -> DeviceDatasetBundle:
    """Build the per-device dataset family used by the characterization study.

    The same train-scene pool and the same test-scene pool are captured by every
    device (the paper controls the displayed content and varies only the
    device), so differences between the per-device datasets are purely
    system-induced.

    The captures that are not cached run on a thread pool of one thread per
    core (at most one per capture); numpy and scipy release the GIL in the
    stage kernels, so the threads need no pickling.  Results are assigned
    by (device, split), so the bundle never depends on thread scheduling,
    and the pool is joined before this returns: no capture thread outlives
    the build.

    With ``cache`` set (a :class:`~repro.data.capture_cache.CaptureCache` or a
    directory path), every per-device capture is persisted on first build and
    loaded bitwise-identically on subsequent builds.  Cache lookups, hit/miss
    counting, stores and scene-pool generation stay on the calling thread; a
    fully cached bundle skips scene generation and the ISP entirely and
    starts no thread.
    """
    device_names = list(devices) if devices is not None else list(DEVICE_PROFILES)
    unknown = [d for d in device_names if d not in DEVICE_PROFILES]
    if unknown:
        raise KeyError(f"unknown devices: {unknown}")
    if cache is not None and not isinstance(cache, CaptureCache):
        cache = CaptureCache(cache)

    # Single source of truth for each split's scene-pool parameters: the
    # cache key and the generated pool must never be derived independently.
    def pool_params(split: str) -> tuple[int, int]:
        """(samples per class, generator seed) of one split's scene pool."""
        if split == "train":
            return samples_per_class_train, seed
        return samples_per_class_test, seed + 10_000

    datasets: Dict[tuple[str, str], ArrayDataset] = {}
    pending: List[tuple[str, str, CaptureConfig, Optional[str]]] = []
    for offset, name in enumerate(device_names):
        for split, capture_seed in zip(("train", "test"), derive_capture_seeds(seed, offset)):
            config = CaptureConfig(image_size=image_size, raw=raw,
                                   isp_override=isp_override, seed=capture_seed)
            key = None
            if cache is not None:
                per_class, pool_seed = pool_params(split)
                key = cache.capture_key(
                    scene_seed=pool_seed, samples_per_class=per_class,
                    num_classes=num_classes, scene_size=scene_size,
                    device=DEVICE_PROFILES[name], config=config,
                )
                cached = cache.lookup(key)
                if cached is not None:
                    datasets[split, name] = cached
                    continue
            pending.append((split, name, config, key))

    if pending:
        # Only the splits with a capture to run pay for scene synthesis.
        pools: Dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for split, _, _, _ in pending:
            if split not in pools:
                per_class, pool_seed = pool_params(split)
                pools[split] = generate_scene_dataset(
                    per_class, num_classes=num_classes, image_size=scene_size, seed=pool_seed
                )
        executor = ThreadPoolExecutor(max_workers=min(len(pending), os.cpu_count() or 1))
        try:
            futures = [executor.submit(capture_with_device, *pools[split],
                                       DEVICE_PROFILES[name], config)
                       for split, name, config, _ in pending]
            built = [future.result() for future in futures]
        finally:
            # After a failed capture, drop the captures not yet started.
            executor.shutdown(wait=True, cancel_futures=True)
        for (split, name, _, key), dataset in zip(pending, built):
            if key is not None:
                cache.store(key, dataset)
            datasets[split, name] = dataset

    train = {name: datasets["train", name] for name in device_names}
    test = {name: datasets["test", name] for name in device_names}
    return DeviceDatasetBundle(train=train, test=test, num_classes=num_classes, image_size=image_size)
