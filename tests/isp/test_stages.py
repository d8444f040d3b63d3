"""Tests for the individual ISP stages: demosaic, denoise, WB, gamut, tone, compression."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isp.compression import (
    COMPRESSION_METHODS,
    compress_batch,
    jpeg_compress_batch,
    quality_to_quant_table,
)
from repro.isp.demosaic import DEMOSAIC_METHODS, demosaic_batch
from repro.isp.denoise import DENOISE_METHODS, denoise_batch
from repro.isp.gamut import GAMUT_METHODS, gamut_map_batch
from repro.isp.raw import RawBatch, bayer_mosaic_batch
from repro.isp.tone import TONE_METHODS, srgb_gamma, srgb_gamma_inverse, tone_transform_batch
from repro.isp.transforms import apply_gamma, apply_white_balance_gains
from repro.isp.white_balance import WHITE_BALANCE_METHODS, white_balance_batch


def make_image(h=16, w=16, seed=0):
    return np.random.default_rng(seed).random((h, w, 3))


def make_raw(h=16, w=16, seed=0):
    return mosaic_of(make_image(h, w, seed))


def mosaic_of(rgb):
    """The one-capture RAW batch of an (H, W, 3) image."""
    return RawBatch(bayer_mosaic_batch(rgb[None]))


def one(kernel, image, *args):
    """Run an (N, H, W, C) stage kernel on one (H, W, C) image (N=1)."""
    return kernel(image[None], *args)[0]


class TestDemosaic:
    @pytest.mark.parametrize("method", sorted(DEMOSAIC_METHODS))
    def test_output_shape_and_range(self, method):
        out = demosaic_batch(make_raw(), method)[0]
        assert out.shape == (16, 16, 3)
        assert out.min() >= 0.0 and out.max() <= 1.0

    @pytest.mark.parametrize("method", sorted(DEMOSAIC_METHODS))
    def test_constant_scene_reconstructed_exactly(self, method):
        rgb = np.full((16, 16, 3), 0.4)
        out = demosaic_batch(mosaic_of(rgb), method)[0]
        np.testing.assert_allclose(out, 0.4, atol=1e-8)

    def test_methods_differ_on_textured_scene(self):
        raw = make_raw(seed=3)
        results = {m: demosaic_batch(raw, m)[0] for m in DEMOSAIC_METHODS}
        assert not np.allclose(results["ppg"], results["binning"])
        assert not np.allclose(results["ppg"], results["ahd"]) or not np.allclose(
            results["binning"], results["ahd"]
        )

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            demosaic_batch(make_raw(), "magic")

    def test_binning_reduces_detail(self):
        """Binning collapses 2x2 tiles, so its output has lower spatial variance."""
        raw = make_raw(seed=5)
        fine = demosaic_batch(raw, "ppg")[0]
        binned = demosaic_batch(raw, "binning")[0]
        # Binned output repeats each value in 2x2 blocks.
        assert np.allclose(binned[0::2, 0::2], binned[1::2, 1::2], atol=1e-9) or (
            np.var(binned) <= np.var(fine) + 1e-6
        )


class TestDenoise:
    @pytest.mark.parametrize("method", sorted(DENOISE_METHODS))
    def test_shape_and_range(self, method):
        out = one(denoise_batch, make_image(), method)
        assert out.shape == (16, 16, 3)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_none_is_identity(self):
        image = make_image()
        np.testing.assert_allclose(one(denoise_batch, image, "none"), image)

    def test_fbdd_reduces_impulse_noise(self):
        clean = np.full((16, 16, 3), 0.5)
        noisy = clean.copy()
        noisy[4, 4] = 1.0  # impulse
        out = one(denoise_batch, noisy, "fbdd")
        assert abs(out[4, 4] - 0.5).max() < abs(noisy[4, 4] - 0.5).max()

    def test_wavelet_reduces_gaussian_noise(self):
        rng = np.random.default_rng(0)
        clean = np.full((32, 32, 3), 0.5)
        noisy = np.clip(clean + rng.normal(0, 0.1, clean.shape), 0, 1)
        out = one(denoise_batch, noisy, "wavelet_bayes")
        assert np.mean((out - clean) ** 2) < np.mean((noisy - clean) ** 2)

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            one(denoise_batch, make_image(), "nlmeans")


class TestWhiteBalance:
    @pytest.mark.parametrize("method", sorted(WHITE_BALANCE_METHODS))
    def test_shape_and_range(self, method):
        out = one(white_balance_batch, make_image(), method)
        assert out.shape == (16, 16, 3)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_gray_world_balances_channel_means(self):
        rng = np.random.default_rng(0)
        image = rng.random((32, 32, 3)) * np.array([0.9, 0.5, 0.3])
        out = one(white_balance_batch, image, "gray_world")
        means = out.reshape(-1, 3).mean(axis=0)
        assert means.std() < image.reshape(-1, 3).mean(axis=0).std()

    def test_white_patch_maps_maxima_near_one(self):
        image = make_image() * 0.5
        out = one(white_balance_batch, image, "white_patch")
        maxima = np.percentile(out.reshape(-1, 3), 99, axis=0)
        assert (maxima > 0.9).all()

    def test_none_is_identity(self):
        image = make_image()
        np.testing.assert_allclose(one(white_balance_batch, image, "none"), image)

    def test_apply_gains(self):
        image = np.full((4, 4, 3), 0.5)
        out = apply_white_balance_gains(image, (2.0, 1.0, 0.5))
        np.testing.assert_allclose(out[..., 0], 1.0)
        np.testing.assert_allclose(out[..., 1], 0.5)
        np.testing.assert_allclose(out[..., 2], 0.25)

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            one(white_balance_batch, make_image(), "magic")


class TestGamut:
    @pytest.mark.parametrize("method", sorted(GAMUT_METHODS))
    def test_shape_and_range(self, method):
        out = one(gamut_map_batch, make_image(), method)
        assert out.shape == (16, 16, 3)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_none_is_identity(self):
        image = make_image()
        np.testing.assert_allclose(one(gamut_map_batch, image, "none"), image)

    def test_srgb_near_identity_for_in_gamut_colors(self):
        image = make_image() * 0.5 + 0.25  # well inside the gamut
        out = one(gamut_map_batch, image, "srgb")
        assert np.abs(out - image).mean() < 0.05

    def test_prophoto_differs_from_srgb(self):
        image = make_image(seed=2)
        assert not np.allclose(one(gamut_map_batch, image, "srgb"),
                               one(gamut_map_batch, image, "prophoto"))

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError):
            one(gamut_map_batch, make_image(), "adobe")


class TestTone:
    @pytest.mark.parametrize("method", sorted(TONE_METHODS))
    def test_shape_and_range(self, method):
        out = one(tone_transform_batch, make_image(), method)
        assert out.shape == (16, 16, 3)
        assert out.min() >= 0.0 and out.max() <= 1.0 + 1e-9

    def test_srgb_gamma_monotonic(self):
        x = np.linspace(0, 1, 100).reshape(10, 10, 1).repeat(3, axis=2)
        out = srgb_gamma(x)
        flat = out[..., 0].reshape(-1)
        assert (np.diff(np.sort(flat)) >= -1e-12).all()

    def test_srgb_gamma_brightens_midtones(self):
        assert srgb_gamma(np.array([[[0.2, 0.2, 0.2]]]))[0, 0, 0] > 0.2

    def test_gamma_inverse_round_trip(self):
        image = make_image()
        np.testing.assert_allclose(srgb_gamma_inverse(srgb_gamma(image)), image, atol=1e-9)

    def test_apply_gamma_identity_at_one(self):
        image = make_image()
        np.testing.assert_allclose(apply_gamma(image, 1.0), image)

    def test_apply_gamma_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            apply_gamma(make_image(), 0.0)

    def test_equalize_differs_from_plain_gamma(self):
        image = make_image(seed=7) * 0.3  # low-contrast image
        assert not np.allclose(one(tone_transform_batch, image, "srgb_gamma"),
                               one(tone_transform_batch, image, "srgb_gamma_equalize"))

    def test_none_is_identity(self):
        image = make_image()
        np.testing.assert_allclose(one(tone_transform_batch, image, "none"), image)


class TestCompression:
    @pytest.mark.parametrize("method", sorted(COMPRESSION_METHODS))
    def test_shape_and_range(self, method):
        out = one(compress_batch, make_image(), method)
        assert out.shape == (16, 16, 3)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_none_is_identity(self):
        image = make_image()
        np.testing.assert_allclose(one(compress_batch, image, "none"), image)

    def test_lower_quality_more_distortion(self):
        image = make_image(32, 32, seed=1)
        err85 = np.mean((one(jpeg_compress_batch, image, 85) - image) ** 2)
        err50 = np.mean((one(jpeg_compress_batch, image, 50) - image) ** 2)
        err10 = np.mean((one(jpeg_compress_batch, image, 10) - image) ** 2)
        assert err50 >= err85
        assert err10 > err85

    def test_smooth_image_survives_compression(self):
        image = np.full((16, 16, 3), 0.5)
        out = one(jpeg_compress_batch, image, 85)
        assert np.abs(out - image).max() < 0.05

    def test_quant_table_monotone_in_quality(self):
        assert quality_to_quant_table(10).mean() > quality_to_quant_table(90).mean()

    def test_quality_bounds(self):
        with pytest.raises(ValueError):
            quality_to_quant_table(0)
        with pytest.raises(ValueError):
            quality_to_quant_table(101)

    def test_non_multiple_of_8_shapes(self):
        image = make_image(20, 12)
        out = one(jpeg_compress_batch, image, 85)
        assert out.shape == image.shape

    @given(st.integers(1, 100))
    @settings(max_examples=20, deadline=None)
    def test_any_quality_stays_in_range(self, quality):
        out = one(jpeg_compress_batch, make_image(16, 16, seed=quality), quality)
        assert out.min() >= 0.0 and out.max() <= 1.0
