"""Tests for RAW / Bayer mosaic handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isp.raw import BAYER_PATTERNS, RawBatch, bayer_mosaic_batch, raw_to_training_array_batch


def make_rgb(h=8, w=8, seed=0):
    return np.random.default_rng(seed).random((h, w, 3))


def one_mosaic(rgb, pattern="RGGB"):
    """The mosaic of one (H, W, 3) image (a batch of one)."""
    return bayer_mosaic_batch(rgb[None], pattern=pattern)[0]


def one_training_array(rgb):
    """The RAW training array of one (H, W, 3) image's mosaic (a batch of one)."""
    return raw_to_training_array_batch(RawBatch(bayer_mosaic_batch(rgb[None])))[0]


class TestBayerMosaic:
    def test_shape_preserved(self):
        rgb = make_rgb(8, 10)
        assert one_mosaic(rgb).shape == (8, 10)

    def test_rggb_sites_pick_correct_channels(self):
        rgb = np.zeros((4, 4, 3))
        rgb[..., 0] = 1.0  # red everywhere
        rgb[..., 1] = 2.0  # green everywhere
        rgb[..., 2] = 3.0  # blue everywhere
        mosaic = one_mosaic(rgb, pattern="RGGB")
        assert mosaic[0, 0] == 1.0  # R site
        assert mosaic[0, 1] == 2.0  # G site
        assert mosaic[1, 0] == 2.0  # G site
        assert mosaic[1, 1] == 3.0  # B site

    @pytest.mark.parametrize("pattern", sorted(BAYER_PATTERNS))
    def test_all_patterns_supported(self, pattern):
        mosaic = one_mosaic(make_rgb(), pattern=pattern)
        assert mosaic.shape == (8, 8)

    def test_unknown_pattern_raises(self):
        with pytest.raises(ValueError):
            one_mosaic(make_rgb(), pattern="XYZW")

    def test_odd_dimensions_rejected(self):
        with pytest.raises(ValueError):
            one_mosaic(np.zeros((5, 4, 3)))

    def test_non_rgb_rejected(self):
        with pytest.raises(ValueError):
            one_mosaic(np.zeros((4, 4, 4)))

    @given(st.integers(2, 8))
    @settings(max_examples=10, deadline=None)
    def test_values_come_from_input(self, half_size):
        size = half_size * 2
        rgb = make_rgb(size, size, seed=half_size)
        mosaic = one_mosaic(rgb)
        assert mosaic.min() >= rgb.min() - 1e-12
        assert mosaic.max() <= rgb.max() + 1e-12


class TestRawBatch:
    def test_valid_construction(self):
        raw = RawBatch(np.zeros((2, 4, 4)))
        assert raw.shape == (2, 4, 4)
        assert len(raw) == 2

    def test_rejects_unknown_pattern(self):
        with pytest.raises(ValueError):
            RawBatch(np.zeros((1, 4, 4)), pattern="ABCD")

    def test_channel_mask_partition(self):
        """R, G and B masks tile the sensor exactly once."""
        raw = RawBatch(np.zeros((1, 6, 6)))
        total = (raw.channel_mask("R").astype(int) + raw.channel_mask("G").astype(int)
                 + raw.channel_mask("B").astype(int))
        np.testing.assert_array_equal(total, np.ones((6, 6), dtype=int))

    def test_green_mask_has_double_density(self):
        raw = RawBatch(np.zeros((1, 8, 8)))
        assert raw.channel_mask("G").sum() == 2 * raw.channel_mask("R").sum()


class TestRawToTrainingArray:
    def test_half_resolution_planes(self):
        out = one_training_array(make_rgb(8, 8))
        assert out.shape == (4, 4, 3)

    def test_constant_image_preserved(self):
        rgb = np.full((8, 8, 3), 0.5)
        out = one_training_array(rgb)
        np.testing.assert_allclose(out, 0.5)

    def test_channels_track_scene_channels(self):
        rgb = np.zeros((8, 8, 3))
        rgb[..., 0] = 0.9  # strong red scene
        out = one_training_array(rgb)
        assert out[..., 0].mean() > out[..., 2].mean()
