"""Tests for the device capture simulation (scene -> RAW -> ISP -> tensor)."""

import threading

import numpy as np
import pytest
from oracle.scalar_capture import capture_with_device_scalar

from repro.data.capture import (
    CAPTURE_CHUNK,
    CaptureConfig,
    build_device_datasets,
    capture_with_device,
    derive_capture_seeds,
)
from repro.data.scenes import generate_scene_dataset
from repro.devices.profiles import DEVICE_PROFILES, get_device
from repro.isp.pipeline import BASELINE_CONFIG, OPTION1_CONFIG, OPTION2_CONFIG
from repro.isp.raw import bayer_mosaic


@pytest.fixture(scope="module")
def scenes_and_labels():
    return generate_scene_dataset(2, num_classes=3, image_size=32, seed=0)


class TestCaptureWithDevice:
    def test_output_layout(self, scenes_and_labels):
        scenes, labels = scenes_and_labels
        dataset = capture_with_device(scenes, labels, get_device("Pixel5"),
                                      CaptureConfig(image_size=16, seed=0))
        assert dataset.features.shape == (len(scenes), 3, 16, 16)
        np.testing.assert_array_equal(dataset.labels, labels)

    def test_value_range(self, scenes_and_labels):
        scenes, labels = scenes_and_labels
        dataset = capture_with_device(scenes, labels, get_device("S6"),
                                      CaptureConfig(image_size=16, seed=0))
        assert dataset.features.min() >= 0.0 and dataset.features.max() <= 1.0

    def test_metadata_populated(self, scenes_and_labels):
        scenes, labels = scenes_and_labels
        dataset = capture_with_device(scenes, labels, get_device("G7"),
                                      CaptureConfig(image_size=16, seed=0))
        assert dataset.metadata["device"] == "G7"
        assert dataset.metadata["vendor"] == "lg"
        assert dataset.metadata["raw"] is False

    def test_raw_mode(self, scenes_and_labels):
        scenes, labels = scenes_and_labels
        dataset = capture_with_device(scenes, labels, get_device("Pixel5"),
                                      CaptureConfig(image_size=16, raw=True, seed=0))
        assert dataset.metadata["isp"] == "raw"
        assert dataset.features.shape == (len(scenes), 3, 16, 16)

    def test_raw_differs_from_processed(self, scenes_and_labels):
        scenes, labels = scenes_and_labels
        device = get_device("Pixel5")
        raw = capture_with_device(scenes, labels, device, CaptureConfig(16, raw=True, seed=0))
        processed = capture_with_device(scenes, labels, device, CaptureConfig(16, seed=0))
        assert not np.allclose(raw.features, processed.features)

    def test_different_devices_produce_different_images(self, scenes_and_labels):
        """The core system-induced heterogeneity mechanism: same scene, different tensors."""
        scenes, labels = scenes_and_labels
        a = capture_with_device(scenes, labels, get_device("Pixel5"), CaptureConfig(16, seed=0))
        b = capture_with_device(scenes, labels, get_device("S22"), CaptureConfig(16, seed=0))
        assert np.abs(a.features - b.features).mean() > 0.01

    def test_same_vendor_devices_more_similar(self, scenes_and_labels):
        """Pixel5 vs Pixel2 captures are closer than Pixel5 vs S22 (Table 2 structure)."""
        scenes, labels = scenes_and_labels
        cfg = CaptureConfig(16, seed=0)
        pixel5 = capture_with_device(scenes, labels, get_device("Pixel5"), cfg).features
        pixel2 = capture_with_device(scenes, labels, get_device("Pixel2"), cfg).features
        s22 = capture_with_device(scenes, labels, get_device("S22"), cfg).features
        same_vendor_gap = np.abs(pixel5 - pixel2).mean()
        cross_vendor_gap = np.abs(pixel5 - s22).mean()
        assert same_vendor_gap < cross_vendor_gap

    def test_isp_override(self, scenes_and_labels):
        scenes, labels = scenes_and_labels
        dataset = capture_with_device(
            scenes, labels, get_device("S6"),
            CaptureConfig(image_size=16, isp_override=BASELINE_CONFIG, seed=0),
        )
        assert dataset.metadata["isp"] == "baseline"

    def test_rejects_bad_scene_shape(self):
        with pytest.raises(ValueError):
            capture_with_device(np.zeros((2, 8, 8)), np.zeros(2), get_device("S6"))

    def test_rejects_mismatched_labels(self, scenes_and_labels):
        scenes, _ = scenes_and_labels
        with pytest.raises(ValueError):
            capture_with_device(scenes, np.zeros(1), get_device("S6"))


class TestBatchedScalarEquivalence:
    """The tentpole guarantee: batched capture == per-scene loop, bitwise."""

    @pytest.mark.parametrize("device", sorted(DEVICE_PROFILES))
    def test_every_device_isp(self, device, scenes_and_labels):
        scenes, labels = scenes_and_labels
        cfg = CaptureConfig(image_size=16, seed=11)
        batched = capture_with_device(scenes, labels, get_device(device), cfg)
        scalar = capture_with_device_scalar(scenes, labels, get_device(device), cfg)
        np.testing.assert_array_equal(batched.features, scalar.features)
        np.testing.assert_array_equal(batched.labels, scalar.labels)
        assert batched.metadata == scalar.metadata

    @pytest.mark.parametrize("device", ["Pixel5", "S22", "S6"])
    def test_raw_path(self, device, scenes_and_labels):
        scenes, labels = scenes_and_labels
        cfg = CaptureConfig(image_size=16, raw=True, seed=12)
        batched = capture_with_device(scenes, labels, get_device(device), cfg)
        scalar = capture_with_device_scalar(scenes, labels, get_device(device), cfg)
        np.testing.assert_array_equal(batched.features, scalar.features)

    def test_isp_override(self, scenes_and_labels):
        scenes, labels = scenes_and_labels
        cfg = CaptureConfig(image_size=16, isp_override=OPTION2_CONFIG, seed=13)
        batched = capture_with_device(scenes, labels, get_device("G4"), cfg)
        scalar = capture_with_device_scalar(scenes, labels, get_device("G4"), cfg)
        np.testing.assert_array_equal(batched.features, scalar.features)

    def test_rng_stream_matches_legacy_per_scene_draws(self, scenes_and_labels):
        """The batched noise block must consume the generator exactly like the
        legacy loop: per scene, a shot-noise draw then a read-noise draw."""
        scenes, _ = scenes_and_labels
        sensor = get_device("S9").sensor
        rng_legacy = np.random.default_rng(99)
        legacy_mosaics = []
        for scene in scenes:
            irradiance = sensor.expose(scene)
            shot_sigma = np.sqrt(np.maximum(irradiance, 0.0)) * sensor.shot_noise_scale
            noisy = irradiance + rng_legacy.normal(0.0, 1.0, size=irradiance.shape) * shot_sigma
            noisy = noisy + rng_legacy.normal(0.0, sensor.read_noise, size=irradiance.shape)
            noisy = np.clip(noisy, 0.0, 1.0)
            from repro.isp.raw import bayer_mosaic
            legacy_mosaics.append(bayer_mosaic(noisy, pattern=sensor.bayer_pattern))
        batched = sensor.capture_raw_batch(scenes, np.random.default_rng(99))
        np.testing.assert_array_equal(batched.mosaics, np.stack(legacy_mosaics))


# One full chunk, and two full chunks plus a one-scene tail.
CHUNKED_POOL_SIZES = [CAPTURE_CHUNK, 2 * CAPTURE_CHUNK + 1]


@pytest.fixture(scope="module", params=CHUNKED_POOL_SIZES, ids=lambda n: f"{n}scenes")
def chunked_scenes(request):
    scenes, labels = generate_scene_dataset(6, num_classes=3, image_size=32, seed=5)
    return scenes[:request.param], labels[:request.param]


def assert_matches_scalar(scenes, labels, device, cfg):
    chunked = capture_with_device(scenes, labels, device, cfg)
    scalar = capture_with_device_scalar(scenes, labels, device, cfg)
    np.testing.assert_array_equal(chunked.features, scalar.features)
    np.testing.assert_array_equal(chunked.labels, scalar.labels)
    assert chunked.features.flags.c_contiguous
    assert chunked.metadata == scalar.metadata


class TestChunkBoundaryEquivalence:
    """Pools that fill a chunk exactly or cross chunk boundaries: the chunks
    share one generator, so they must still match the per-scene loop."""

    @pytest.mark.parametrize("device", sorted(DEVICE_PROFILES))
    def test_every_device_isp(self, device, chunked_scenes):
        assert_matches_scalar(*chunked_scenes, get_device(device),
                              CaptureConfig(image_size=16, seed=21))

    @pytest.mark.parametrize("device", ["Pixel5", "S22", "S6"])
    def test_raw_path(self, device, chunked_scenes):
        assert_matches_scalar(*chunked_scenes, get_device(device),
                              CaptureConfig(image_size=16, raw=True, seed=22))

    @pytest.mark.parametrize("override", [OPTION1_CONFIG, OPTION2_CONFIG], ids=lambda c: c.name)
    def test_isp_override(self, override, chunked_scenes):
        assert_matches_scalar(*chunked_scenes, get_device("G4"),
                              CaptureConfig(image_size=16, isp_override=override, seed=23))

    def test_rng_stream_matches_legacy_per_scene_draws(self, chunked_scenes):
        """Chunk-by-chunk noise draws from one generator consume it exactly
        like the legacy loop: per scene, a shot-noise then a read-noise draw."""
        scenes, _ = chunked_scenes
        sensor = get_device("S9").sensor
        rng_legacy = np.random.default_rng(99)
        legacy_mosaics = []
        for scene in scenes:
            irradiance = sensor.expose(scene)
            shot_sigma = np.sqrt(np.maximum(irradiance, 0.0)) * sensor.shot_noise_scale
            noisy = irradiance + rng_legacy.normal(0.0, 1.0, size=irradiance.shape) * shot_sigma
            noisy = noisy + rng_legacy.normal(0.0, sensor.read_noise, size=irradiance.shape)
            legacy_mosaics.append(bayer_mosaic(np.clip(noisy, 0.0, 1.0),
                                               pattern=sensor.bayer_pattern))
        rng = np.random.default_rng(99)
        chunked = [sensor.capture_raw_batch(scenes[start:start + CAPTURE_CHUNK], rng).mosaics
                   for start in range(0, len(scenes), CAPTURE_CHUNK)]
        np.testing.assert_array_equal(np.concatenate(chunked), np.stack(legacy_mosaics))


class TestBuildDeviceDatasets:
    def test_bundle_structure(self):
        bundle = build_device_datasets(
            samples_per_class_train=2, samples_per_class_test=1, num_classes=3,
            image_size=16, scene_size=32, devices=["Pixel5", "S6"], seed=0,
        )
        assert set(bundle.train) == {"Pixel5", "S6"}
        assert set(bundle.test) == {"Pixel5", "S6"}
        assert bundle.num_classes == 3
        assert len(bundle.train["Pixel5"]) == 6
        assert len(bundle.test["S6"]) == 3

    def test_same_labels_across_devices(self):
        """Every device captures the same scenes, so labels align across devices."""
        bundle = build_device_datasets(
            samples_per_class_train=2, samples_per_class_test=1, num_classes=3,
            image_size=16, scene_size=32, devices=["Pixel5", "S6", "G7"], seed=0,
        )
        np.testing.assert_array_equal(bundle.train["Pixel5"].labels, bundle.train["S6"].labels)
        np.testing.assert_array_equal(bundle.test["S6"].labels, bundle.test["G7"].labels)

    def test_train_test_scenes_disjoint(self):
        bundle = build_device_datasets(
            samples_per_class_train=2, samples_per_class_test=2, num_classes=3,
            image_size=16, scene_size=32, devices=["Pixel5"], seed=0,
        )
        # Train and test pools come from different seeds, so images differ.
        assert not np.allclose(bundle.train["Pixel5"].features[:3],
                               bundle.test["Pixel5"].features[:3])

    def test_unknown_device_rejected(self):
        with pytest.raises(KeyError):
            build_device_datasets(devices=["Pixel5", "iPhone"], samples_per_class_train=1,
                                  samples_per_class_test=1, num_classes=2)

    def test_devices_helper(self):
        bundle = build_device_datasets(
            samples_per_class_train=1, samples_per_class_test=1, num_classes=2,
            image_size=16, scene_size=32, devices=["Pixel5", "S6"], seed=0,
        )
        assert bundle.devices() == ["Pixel5", "S6"]


class TestThreadedBuild:
    """The threaded build returns exactly what sequential captures return."""

    KW = dict(samples_per_class_train=3, samples_per_class_test=2, num_classes=3,
              image_size=16, scene_size=32, seed=4)

    def test_equals_sequential_captures(self):
        bundle = build_device_datasets(**self.KW)
        assert bundle.devices() == list(DEVICE_PROFILES)
        pools = {
            "train": generate_scene_dataset(3, num_classes=3, image_size=32, seed=4),
            "test": generate_scene_dataset(2, num_classes=3, image_size=32, seed=10_004),
        }
        for offset, (name, profile) in enumerate(DEVICE_PROFILES.items()):
            for split, capture_seed in zip(("train", "test"), derive_capture_seeds(4, offset)):
                expected = capture_with_device(*pools[split], profile,
                                               CaptureConfig(image_size=16, seed=capture_seed))
                actual = getattr(bundle, split)[name]
                np.testing.assert_array_equal(actual.features, expected.features)
                np.testing.assert_array_equal(actual.labels, expected.labels)
                assert actual.metadata == expected.metadata

    def test_joins_every_thread(self):
        before = threading.active_count()
        build_device_datasets(**{**self.KW, "devices": ["Pixel5", "S6", "G7"]})
        assert threading.active_count() == before

    def test_capture_error_propagates(self, monkeypatch):
        def failing(scenes, labels, device, config):
            if device.name == "S6":
                raise RuntimeError("sensor fault")
            return capture_with_device(scenes, labels, device, config)

        monkeypatch.setattr("repro.data.capture.capture_with_device", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="sensor fault"):
            build_device_datasets(**{**self.KW, "devices": ["Pixel5", "S6", "G7"]})
        assert threading.active_count() == before
