"""Micro-benchmarks of the substrates the experiments run on.

These are conventional pytest-benchmark timings (many iterations) for the
performance-critical building blocks: the ISP pipeline, a device capture, one
forward/backward pass of the primary model, and one FL client update.  They
are not paper artifacts but make regressions in the substrate visible.
"""

import numpy as np
import pytest

from repro.data.capture import CaptureConfig, capture_with_device
from repro.data.dataset import ArrayDataset
from repro.data.scenes import SceneGenerator
from repro.devices.profiles import get_device
from repro.fl.config import FLConfig
from repro.fl.training import local_train
from repro.isp.pipeline import BASELINE_CONFIG, ISPPipeline
from repro.isp.raw import RawBatch, bayer_mosaic_batch
from repro.nn import functional as F
from repro.nn.flat import FlatParams
from repro.nn.models import MobileNetV3Small
from repro.nn.optim import SGD
from repro.nn.tensor import Tensor


@pytest.fixture(scope="module")
def scene():
    return SceneGenerator(image_size=64, num_classes=12, seed=0).generate(0)


def test_bench_isp_pipeline(benchmark, scene):
    raw = RawBatch(bayer_mosaic_batch(scene[None]))
    pipeline = ISPPipeline(BASELINE_CONFIG)
    out = benchmark(pipeline.process_batch, raw)
    assert out.shape == (1, 64, 64, 3)


def test_bench_device_capture(benchmark, scene):
    device = get_device("S9")
    scenes = scene[None]
    labels = np.array([0])

    def capture():
        return capture_with_device(scenes, labels, device, CaptureConfig(image_size=32, seed=0))

    dataset = benchmark(capture)
    assert dataset.features.shape == (1, 3, 32, 32)


def test_bench_mobilenet_forward_backward(benchmark):
    model = MobileNetV3Small(num_classes=12, seed=0)
    optimizer = SGD(FlatParams.from_module(model), lr=0.1)
    x = np.random.default_rng(0).random((10, 3, 32, 32))
    y = np.arange(10) % 12

    def step():
        loss = F.cross_entropy(model(Tensor(x)), y)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        return float(loss.data)

    loss_value = benchmark(step)
    assert np.isfinite(loss_value)


def test_bench_fl_client_update(benchmark):
    model = MobileNetV3Small(num_classes=6, seed=0)
    rng = np.random.default_rng(0)
    dataset = ArrayDataset(rng.random((20, 3, 16, 16)), rng.integers(0, 6, size=20))
    config = FLConfig(num_clients=4, clients_per_round=2, num_rounds=1,
                      batch_size=10, learning_rate=0.1, seed=0)
    global_vec = FlatParams.from_module(model).pack()

    result = benchmark(local_train, model, dataset, config, global_vec)
    assert result.num_samples == 20
