"""Capture-throughput benchmark: scalar vs batched ISP engine, cold vs cached.

Times ``build_device_datasets`` at bench scale four ways — per-scene scalar
reference loop, batched engine, batched with a cold capture cache (miss +
store), and batched with a warm cache (pure hits) — while asserting the
batched outputs stay bitwise identical to the scalar path and cache hits do
no ISP work.  The recorded table is the PR's headline evidence: the batched
engine must beat the scalar loop outright, and warm-cache rebuilds (the
repeated-sweep workload that motivated the cache) are near-instant.
"""

from __future__ import annotations

import time

import numpy as np

from repro.data.capture import (
    CaptureConfig,
    DeviceDatasetBundle,
    build_device_datasets,
    derive_capture_seeds,
)
from repro.data.capture_cache import CaptureCache
from repro.data.scenes import generate_scene_dataset
from repro.devices.profiles import DEVICE_PROFILES
from conftest import run_once
from oracle.scalar_capture import capture_with_device_scalar

from repro.eval.results import ExperimentResult


def _build_scalar(scale) -> DeviceDatasetBundle:
    """``build_device_datasets`` routed through the per-scene scalar loop."""
    train_scenes, train_labels = generate_scene_dataset(
        scale.samples_per_class_train, num_classes=scale.num_classes,
        image_size=scale.scene_size, seed=0)
    test_scenes, test_labels = generate_scene_dataset(
        scale.samples_per_class_test, num_classes=scale.num_classes,
        image_size=scale.scene_size, seed=10_000)
    train, test = {}, {}
    for offset, (name, profile) in enumerate(DEVICE_PROFILES.items()):
        train_seed, test_seed = derive_capture_seeds(0, offset)
        train[name] = capture_with_device_scalar(
            train_scenes, train_labels, profile,
            CaptureConfig(image_size=scale.image_size, seed=train_seed))
        test[name] = capture_with_device_scalar(
            test_scenes, test_labels, profile,
            CaptureConfig(image_size=scale.image_size, seed=test_seed))
    return DeviceDatasetBundle(train=train, test=test,
                               num_classes=scale.num_classes,
                               image_size=scale.image_size)


def _build_batched(scale, cache=None) -> DeviceDatasetBundle:
    return build_device_datasets(
        samples_per_class_train=scale.samples_per_class_train,
        samples_per_class_test=scale.samples_per_class_test,
        num_classes=scale.num_classes,
        image_size=scale.image_size,
        scene_size=scale.scene_size,
        seed=0,
        cache=cache,
    )


def _capture_throughput(scale, cache_root) -> ExperimentResult:
    timings = {}

    start = time.perf_counter()
    scalar_bundle = _build_scalar(scale)
    timings["scalar_loop"] = time.perf_counter() - start

    start = time.perf_counter()
    batched_bundle = _build_batched(scale)
    timings["batched"] = time.perf_counter() - start

    cache = CaptureCache(cache_root)
    start = time.perf_counter()
    miss_bundle = _build_batched(scale, cache=cache)
    timings["cache_miss"] = time.perf_counter() - start

    start = time.perf_counter()
    hit_bundle = _build_batched(scale, cache=cache)
    timings["cache_hit"] = time.perf_counter() - start

    # Correctness gates: bitwise identity across all four paths, and the warm
    # build must be pure cache hits (no ISP work re-run).
    assert cache.stats["misses"] == len(DEVICE_PROFILES) * 2
    assert cache.stats["hits"] == len(DEVICE_PROFILES) * 2
    for name in scalar_bundle.train:
        for split in ("train", "test"):
            reference = getattr(scalar_bundle, split)[name].features
            for bundle in (batched_bundle, miss_bundle, hit_bundle):
                np.testing.assert_array_equal(getattr(bundle, split)[name].features,
                                              reference)

    # Performance gates: batched strictly beats the scalar loop; warm-cache
    # rebuilds are near-instant (a small fraction of one batched build).
    assert timings["batched"] < timings["scalar_loop"], (
        f"batched capture ({timings['batched']:.3f}s) slower than the scalar "
        f"loop ({timings['scalar_loop']:.3f}s)")
    assert timings["cache_hit"] < 0.25 * timings["batched"], (
        f"cache hits not near-instant: {timings['cache_hit']:.3f}s vs "
        f"batched {timings['batched']:.3f}s")

    speedup_batched = timings["scalar_loop"] / timings["batched"]
    speedup_cached = timings["scalar_loop"] / max(timings["cache_hit"], 1e-9)
    rows = [
        ["scalar per-scene loop", f"{timings['scalar_loop']:.3f}", "1.0"],
        ["batched engine (cold)", f"{timings['batched']:.3f}", f"{speedup_batched:.1f}"],
        ["batched + cache (miss)", f"{timings['cache_miss']:.3f}",
         f"{timings['scalar_loop'] / timings['cache_miss']:.1f}"],
        ["batched + cache (hit)", f"{timings['cache_hit']:.3f}", f"{speedup_cached:.1f}"],
    ]
    return ExperimentResult(
        experiment_id="capture",
        description=(
            "Capture throughput at bench scale: scene -> RAW -> ISP -> tensor for "
            f"{len(DEVICE_PROFILES)} devices (train+test pools), scalar loop vs "
            "batched engine vs persistent capture cache. All paths are bitwise "
            "identical; repeated sweeps over one fleet hit the cache and re-run "
            "no ISP work."
        ),
        headers=["path", "wall_clock_s", "speedup_vs_scalar"],
        rows=rows,
        scalars={
            "scalar_loop_s": timings["scalar_loop"],
            "batched_s": timings["batched"],
            "cache_miss_s": timings["cache_miss"],
            "cache_hit_s": timings["cache_hit"],
            "speedup_batched": speedup_batched,
            "speedup_cached": speedup_cached,
        },
        metadata={"devices": list(DEVICE_PROFILES), "scale": scale.name},
    )


def test_bench_capture_throughput(benchmark, bench_scale, tmp_path):
    result = run_once(benchmark, _capture_throughput, bench_scale, tmp_path / "capture-cache")
    assert result.scalars["speedup_cached"] >= 3.0
