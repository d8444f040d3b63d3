"""The scene-by-scene capture loop, kept as a test-only oracle.

:func:`repro.data.capture.capture_with_device` runs the scene -> RAW -> ISP
-> tensor path as batched kernels over chunks of scenes.  This module holds
the seed loop it replaced: one scene at a time, each a batch of one through
the same sensor, ISP and resize kernels.  Per scene it draws the same RNG
stream the chunked capture consumes in one block, so the two are bitwise
equal, sensor noise included (``tests/data/test_capture.py`` pins that, and
``benchmarks/test_bench_capture.py`` times the two against each other).
"""

from __future__ import annotations

import numpy as np

from repro.data.capture import CaptureConfig, _capture_metadata, _validate_capture_inputs
from repro.data.dataset import ArrayDataset, hwc_to_nchw
from repro.devices.profiles import DeviceProfile
from repro.isp.pipeline import ISPPipeline
from repro.isp.raw import raw_to_training_array_batch
from repro.isp.resize import resize_bilinear_batch

__all__ = ["capture_with_device_scalar"]


def capture_with_device_scalar(
    scenes: np.ndarray,
    labels: np.ndarray,
    device: DeviceProfile,
    config: CaptureConfig = CaptureConfig(),
) -> ArrayDataset:
    """Scene-by-scene reference implementation of ``capture_with_device``."""
    scenes, labels = _validate_capture_inputs(scenes, labels)
    rng = np.random.default_rng(config.seed)
    pipeline = None
    if not config.raw:
        pipeline = ISPPipeline(config.isp_override or device.isp)

    size = (config.image_size, config.image_size)
    images = np.empty((len(scenes),) + size + (3,), dtype=np.float64)
    for index, scene in enumerate(scenes):
        raw = device.sensor.capture_raw_batch(scene[None], rng)
        if config.raw:
            processed = raw_to_training_array_batch(raw)
        else:
            processed = pipeline.process_batch(raw)
        images[index] = resize_bilinear_batch(processed, size)[0]
    return ArrayDataset(hwc_to_nchw(images), labels,
                        metadata=_capture_metadata(device, config))
