"""Tests for the parametric sensor model."""

import numpy as np
import pytest

from repro.devices.sensor import SensorModel
from repro.isp.raw import RawBatch


def make_scene(size=32, seed=0):
    return np.random.default_rng(seed).random((size, size, 3))


def expose(sensor, scene):
    """The sensor-plane irradiance of one scene (a batch of one)."""
    return sensor.expose_batch(scene[None])[0]


def capture(sensor, scene, seed):
    """The RAW mosaic of one scene (a batch of one) under a seeded generator."""
    return sensor.capture_raw_batch(scene[None], np.random.default_rng(seed)).mosaics[0]


class TestSensorValidation:
    def test_default_construction(self):
        sensor = SensorModel()
        assert sensor.resolution == (64, 64)

    def test_rejects_bad_color_matrix(self):
        with pytest.raises(ValueError):
            SensorModel(color_response=np.eye(4))

    def test_rejects_odd_resolution(self):
        with pytest.raises(ValueError):
            SensorModel(resolution=(33, 32))

    def test_rejects_nonpositive_exposure(self):
        with pytest.raises(ValueError):
            SensorModel(exposure=0.0)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            SensorModel(read_noise=-0.1)

    def test_rejects_bad_vignetting(self):
        with pytest.raises(ValueError):
            SensorModel(vignetting=1.0)


class TestExpose:
    def test_output_shape_matches_resolution(self):
        sensor = SensorModel(resolution=(48, 48))
        out = expose(sensor, make_scene(32))
        assert out.shape == (48, 48, 3)

    def test_range(self):
        out = expose(SensorModel(), make_scene())
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_exposure_scales_brightness(self):
        scene = make_scene() * 0.5
        bright = expose(SensorModel(exposure=1.0), scene)
        dim = expose(SensorModel(exposure=0.5), scene)
        assert bright.mean() > dim.mean()

    def test_vignetting_darkens_corners(self):
        scene = np.full((32, 32, 3), 0.8)
        out = expose(SensorModel(resolution=(32, 32), vignetting=0.5), scene)
        center = out[16, 16].mean()
        corner = out[0, 0].mean()
        assert corner < center

    def test_color_response_mixes_channels(self):
        scene = np.zeros((16, 16, 3))
        scene[..., 0] = 1.0  # pure red scene
        mix = np.array([[0.8, 0.2, 0.0], [0.3, 0.7, 0.0], [0.0, 0.0, 1.0]])
        out = expose(SensorModel(resolution=(16, 16), color_response=mix), scene)
        assert out[..., 1].mean() > 0.1  # red leaks into green

    def test_deterministic(self):
        sensor = SensorModel()
        scene = make_scene()
        np.testing.assert_allclose(expose(sensor, scene), expose(sensor, scene))


class TestCaptureRaw:
    def test_returns_raw_image(self):
        raw = SensorModel(resolution=(32, 32)).capture_raw_batch(make_scene()[None],
                                                                 np.random.default_rng(0))
        assert isinstance(raw, RawBatch)
        assert raw.shape == (1, 32, 32)

    def test_range(self):
        mosaic = capture(SensorModel(), make_scene(), 0)
        assert mosaic.min() >= 0.0 and mosaic.max() <= 1.0

    def test_noise_makes_captures_differ(self):
        sensor = SensorModel(read_noise=0.05)
        scene = make_scene()
        a = capture(sensor, scene, 0)
        b = capture(sensor, scene, 1)
        assert not np.allclose(a, b)

    def test_seeded_captures_reproducible(self):
        sensor = SensorModel(read_noise=0.05)
        scene = make_scene()
        a = capture(sensor, scene, 7)
        b = capture(sensor, scene, 7)
        np.testing.assert_allclose(a, b)

    def test_noisier_sensor_deviates_more_from_clean(self):
        scene = make_scene()
        clean_sensor = SensorModel(read_noise=0.0, shot_noise_scale=0.0)
        noisy_sensor = SensorModel(read_noise=0.08, shot_noise_scale=0.08)
        reference = capture(clean_sensor, scene, 0)
        clean = capture(clean_sensor, scene, 1)
        noisy = capture(noisy_sensor, scene, 1)
        assert np.abs(noisy - reference).mean() > np.abs(clean - reference).mean()
