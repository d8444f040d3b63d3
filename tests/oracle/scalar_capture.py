"""The scene-by-scene capture loop, kept as a test-only oracle.

:func:`repro.data.capture.capture_with_device` runs the scene -> RAW -> ISP
-> tensor path as batched kernels over chunks of scenes.  This module holds
the seed loop it replaced: one scene at a time through the scalar sensor,
ISP and resize functions.  Per scene it draws the same RNG stream the
batched kernel consumes in one block, so the two are bitwise equal, sensor
noise included (``tests/data/test_capture.py`` pins that, and
``benchmarks/test_bench_capture.py`` times the two against each other).
"""

from __future__ import annotations

import numpy as np

from repro.data.capture import CaptureConfig, _capture_metadata, _validate_capture_inputs
from repro.data.dataset import ArrayDataset, hwc_to_nchw
from repro.devices.profiles import DeviceProfile
from repro.isp.pipeline import ISPPipeline
from repro.isp.raw import raw_to_training_array
from repro.isp.resize import resize_bilinear

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

    images = np.empty((len(scenes), config.image_size, config.image_size, 3), dtype=np.float64)
    for index, scene in enumerate(scenes):
        raw = device.sensor.capture_raw(scene, rng)
        if config.raw:
            processed = raw_to_training_array(raw)
        else:
            processed = pipeline.process(raw)
        images[index] = resize_bilinear(processed, (config.image_size, config.image_size))
    return ArrayDataset(hwc_to_nchw(images), labels,
                        metadata=_capture_metadata(device, config))
