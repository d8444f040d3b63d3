"""Tests for the persistent capture cache (round-trip, keys, invalidation)."""

import numpy as np
import pytest

from repro.data.capture import (
    CaptureConfig,
    build_device_datasets,
    derive_capture_seeds,
)
from repro.data.capture_cache import CaptureCache, device_fingerprint
from repro.data.dataset import ArrayDataset
from repro.devices.profiles import get_device
from repro.isp.pipeline import BASELINE_CONFIG, OPTION2_CONFIG

BUILD_KW = dict(samples_per_class_train=2, samples_per_class_test=1, num_classes=3,
                image_size=16, scene_size=32, devices=["Pixel5", "S6"], seed=0)


def make_key(**overrides):
    fields = dict(scene_seed=0, samples_per_class=2, num_classes=3, scene_size=32,
                  device=get_device("Pixel5"),
                  config=CaptureConfig(image_size=16, seed=7))
    fields.update(overrides)
    return CaptureCache.capture_key(**fields)


class TestCaptureKey:
    def test_deterministic(self):
        assert make_key() == make_key()

    @pytest.mark.parametrize("field, value", [
        ("scene_seed", 1),
        ("samples_per_class", 3),
        ("num_classes", 4),
        ("scene_size", 64),
    ])
    def test_scene_pool_fields_change_key(self, field, value):
        assert make_key(**{field: value}) != make_key()

    @pytest.mark.parametrize("config", [
        CaptureConfig(image_size=32, seed=7),
        CaptureConfig(image_size=16, seed=8),
        CaptureConfig(image_size=16, raw=True, seed=7),
        CaptureConfig(image_size=16, isp_override=BASELINE_CONFIG, seed=7),
        CaptureConfig(image_size=16, isp_override=OPTION2_CONFIG, seed=7),
    ])
    def test_capture_config_fields_change_key(self, config):
        assert make_key(config=config) != make_key()

    def test_device_changes_key(self):
        assert make_key(device=get_device("S22")) != make_key()

    def test_fingerprint_covers_sensor_and_isp(self):
        fp = device_fingerprint(get_device("S22"))
        assert fp["sensor"]["resolution"] == [64, 64]
        assert fp["isp"]["denoise"] == "wavelet_bayes"
        assert len(fp["sensor"]["color_response"]) == 3


class TestCacheStorage:
    def test_round_trip_bitwise(self, tmp_path):
        cache = CaptureCache(tmp_path)
        rng = np.random.default_rng(0)
        dataset = ArrayDataset(rng.random((4, 3, 8, 8)), np.array([0, 1, 2, 0]),
                               metadata={"device": "Pixel5", "raw": False})
        key = make_key()
        cache.store(key, dataset)
        loaded = cache.load(key)
        np.testing.assert_array_equal(loaded.features, dataset.features)
        np.testing.assert_array_equal(loaded.labels, dataset.labels)
        assert loaded.labels.dtype == dataset.labels.dtype
        assert loaded.metadata == dataset.metadata

    def test_load_missing_returns_none(self, tmp_path):
        assert CaptureCache(tmp_path).load(make_key()) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = CaptureCache(tmp_path)
        path = cache.path_for(make_key())
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a checkpoint")
        assert cache.load(make_key()) is None

    def test_lookup_counts_hits_and_misses(self, tmp_path):
        cache = CaptureCache(tmp_path)
        key = make_key()
        assert cache.lookup(key) is None
        cache.store(key, ArrayDataset(np.zeros((2, 1, 4, 4)), np.array([0, 1])))
        assert cache.lookup(key) is not None
        assert cache.stats == {"hits": 1, "misses": 1, "entries": 1}


class TestBuildWithCache:
    def test_hit_returns_bitwise_equal_bundle(self, tmp_path):
        reference = build_device_datasets(**BUILD_KW)
        cache = CaptureCache(tmp_path)
        first = build_device_datasets(cache=cache, **BUILD_KW)
        second = build_device_datasets(cache=cache, **BUILD_KW)
        assert cache.misses == 4 and cache.hits == 4
        for name in reference.train:
            for split in ("train", "test"):
                ref = getattr(reference, split)[name]
                miss = getattr(first, split)[name]
                hit = getattr(second, split)[name]
                np.testing.assert_array_equal(ref.features, miss.features)
                np.testing.assert_array_equal(miss.features, hit.features)
                np.testing.assert_array_equal(miss.labels, hit.labels)
                assert miss.metadata == hit.metadata

    def test_cache_accepts_path_string(self, tmp_path):
        first = build_device_datasets(cache=str(tmp_path), **BUILD_KW)
        second = build_device_datasets(cache=str(tmp_path), **BUILD_KW)
        np.testing.assert_array_equal(first.train["Pixel5"].features,
                                      second.train["Pixel5"].features)
        assert len(list(tmp_path.glob("*.npz"))) == 4

    def test_full_hit_skips_scene_generation(self, tmp_path, monkeypatch):
        cache = CaptureCache(tmp_path)
        build_device_datasets(cache=cache, **BUILD_KW)

        def boom(*args, **kwargs):  # pragma: no cover - should never run
            raise AssertionError("scene generation ran on a fully cached build")

        monkeypatch.setattr("repro.data.capture.generate_scene_dataset", boom)
        bundle = build_device_datasets(cache=cache, **BUILD_KW)
        assert set(bundle.train) == {"Pixel5", "S6"}

    def test_full_hit_starts_no_thread(self, tmp_path, monkeypatch):
        cache = CaptureCache(tmp_path)
        build_device_datasets(cache=cache, **BUILD_KW)

        def boom(*args, **kwargs):  # pragma: no cover - should never run
            raise AssertionError("a fully cached build started a capture thread")

        monkeypatch.setattr("repro.data.capture.ThreadPoolExecutor", boom)
        build_device_datasets(cache=cache, **BUILD_KW)
        assert cache.hits == 4

    def test_partly_warm_cache_counts_exactly(self, tmp_path):
        cache = CaptureCache(tmp_path)
        build_device_datasets(cache=cache, **BUILD_KW)
        assert (cache.hits, cache.misses) == (0, 4)
        # Noise seeds derive from a device's position, so new devices go last.
        wider = {**BUILD_KW, "devices": ["Pixel5", "S6", "G7", "S22"]}
        bundle = build_device_datasets(cache=cache, **wider)
        assert (cache.hits, cache.misses) == (4, 8)
        assert bundle.devices() == wider["devices"]
        assert len(cache.entries()) == 8
        reference = build_device_datasets(**wider)
        for name in wider["devices"]:
            for split in ("train", "test"):
                np.testing.assert_array_equal(getattr(bundle, split)[name].features,
                                              getattr(reference, split)[name].features)

    def test_different_seed_misses(self, tmp_path):
        cache = CaptureCache(tmp_path)
        build_device_datasets(cache=cache, **BUILD_KW)
        build_device_datasets(cache=cache, **{**BUILD_KW, "seed": 1})
        assert cache.misses == 8

    def test_raw_flag_misses(self, tmp_path):
        cache = CaptureCache(tmp_path)
        build_device_datasets(cache=cache, **BUILD_KW)
        build_device_datasets(cache=cache, raw=True, **BUILD_KW)
        assert cache.misses == 8 and cache.hits == 0


class TestSeedDerivation:
    def test_train_test_seeds_differ(self):
        train_seed, test_seed = derive_capture_seeds(0, 0)
        assert train_seed != test_seed

    def test_deterministic(self):
        assert derive_capture_seeds(3, 2) == derive_capture_seeds(3, 2)

    def test_devices_get_distinct_streams(self):
        assert derive_capture_seeds(0, 0) != derive_capture_seeds(0, 1)

    def test_train_noise_not_replayed_on_test(self):
        """Regression: one CaptureConfig seed for both splits replayed the
        train sensor-noise stream sample-for-sample on the test captures.
        Capturing the *same* scenes under the derived train and test seeds
        must now produce different noise realisations."""
        from repro.data.capture import capture_with_device
        from repro.data.scenes import generate_scene_dataset

        device = get_device("Pixel5")
        scenes, labels = generate_scene_dataset(2, num_classes=2, image_size=32, seed=0)
        train_seed, test_seed = derive_capture_seeds(0, 0)
        train = capture_with_device(scenes, labels, device,
                                    CaptureConfig(image_size=16, seed=train_seed))
        test = capture_with_device(scenes, labels, device,
                                   CaptureConfig(image_size=16, seed=test_seed))
        assert not np.allclose(train.features, test.features)
