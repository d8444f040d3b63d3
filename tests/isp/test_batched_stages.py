"""Batch-independence of every ISP stage kernel (Table 3).

The chunked capture engine's hard guarantee: for every method of all six ISP
stages — and for the composed pipeline, the RAW path and the resize — an
``(N, ...)`` kernel's output for a batch is *bitwise* equal to running the
same kernel on each batch member alone (N=1).  A second family of tests pins
the kernels to the legacy per-image formulations they replaced (``ndimage``'s
rank filter, ``np.histogram``/``np.interp``) so silent numeric drift in a
reimplementation cannot hide behind the kernel-vs-itself equivalence; the
capture goldens in ``tests/data/test_capture.py`` pin whole captures.
"""

import numpy as np
import pytest
from scipy import ndimage

from repro.isp.compression import COMPRESSION_METHODS, compress_batch
from repro.isp.demosaic import DEMOSAIC_METHODS, demosaic_batch
from repro.isp.denoise import DENOISE_METHODS, denoise_batch
from repro.isp.filters import median_filter_3x3
from repro.isp.gamut import GAMUT_METHODS, gamut_map_batch
from repro.isp.pipeline import (
    BASELINE_CONFIG,
    OPTION1_CONFIG,
    OPTION2_CONFIG,
    ISPPipeline,
    stage_variants,
)
from repro.isp.raw import BAYER_PATTERNS, RawBatch, bayer_mosaic_batch, raw_to_training_array_batch
from repro.isp.resize import resize_bilinear_batch
from repro.isp.tone import TONE_METHODS, tone_transform_batch
from repro.isp.white_balance import WHITE_BALANCE_METHODS, white_balance_batch


def make_batch(n=5, h=16, w=16, seed=0):
    return np.random.default_rng(seed).random((n, h, w, 3))


def make_raw_batch(n=5, h=16, w=16, seed=0, pattern="RGGB"):
    return RawBatch(bayer_mosaic_batch(make_batch(n, h, w, seed), pattern), pattern=pattern)


def captures(raw):
    """Each capture of a RAW batch as a batch of its own."""
    return [RawBatch(mosaic[None], pattern=raw.pattern) for mosaic in raw.mosaics]


def alone(kernel, *args):
    """``kernel`` applied to one item as a batch of one (N=1)."""
    return lambda item: kernel(item[None], *args)[0]


def assert_batch_equals_scalar(batch_out, scalar_fn, items):
    """Exact (bitwise) equality of the batch output vs the per-item loop."""
    for index, item in enumerate(items):
        np.testing.assert_array_equal(batch_out[index], scalar_fn(item))


class TestStageEquivalence:
    """Every method of every Table 3 stage: batched == one at a time, bit for bit."""

    @pytest.mark.parametrize("method", sorted(DEMOSAIC_METHODS))
    def test_demosaic(self, method):
        raw = make_raw_batch(seed=1)
        out = demosaic_batch(raw, method)
        assert_batch_equals_scalar(out, lambda r: demosaic_batch(r, method)[0], captures(raw))

    @pytest.mark.parametrize("method", sorted(DENOISE_METHODS))
    def test_denoise(self, method):
        batch = make_batch(seed=2)
        out = denoise_batch(batch, method)
        assert_batch_equals_scalar(out, alone(denoise_batch, method), batch)

    @pytest.mark.parametrize("method", sorted(WHITE_BALANCE_METHODS))
    def test_white_balance(self, method):
        batch = make_batch(seed=3)
        out = white_balance_batch(batch, method)
        assert_batch_equals_scalar(out, alone(white_balance_batch, method), batch)

    @pytest.mark.parametrize("method", sorted(GAMUT_METHODS))
    def test_gamut(self, method):
        batch = make_batch(seed=4)
        out = gamut_map_batch(batch, method)
        assert_batch_equals_scalar(out, alone(gamut_map_batch, method), batch)

    @pytest.mark.parametrize("method", sorted(TONE_METHODS))
    def test_tone(self, method):
        batch = make_batch(seed=5)
        out = tone_transform_batch(batch, method)
        assert_batch_equals_scalar(out, alone(tone_transform_batch, method), batch)

    @pytest.mark.parametrize("method", sorted(COMPRESSION_METHODS))
    def test_compression(self, method):
        batch = make_batch(n=4, h=20, w=12, seed=6)  # non-multiple-of-8 planes
        out = compress_batch(batch, method)
        assert_batch_equals_scalar(out, alone(compress_batch, method), batch)


class TestPipelineEquivalence:
    @pytest.mark.parametrize("config", [BASELINE_CONFIG, OPTION1_CONFIG, OPTION2_CONFIG],
                             ids=lambda c: c.name)
    def test_table3_columns(self, config):
        raw = make_raw_batch(seed=7)
        pipeline = ISPPipeline(config)
        out = pipeline.process_batch(raw)
        assert_batch_equals_scalar(out, lambda r: pipeline.process_batch(r)[0], captures(raw))

    @pytest.mark.parametrize("config", stage_variants(), ids=lambda c: c.name)
    def test_all_stage_variants(self, config):
        """The full Fig. 3 substitution grid, end to end."""
        raw = make_raw_batch(seed=8)
        pipeline = ISPPipeline(config)
        out = pipeline.process_batch(raw)
        assert_batch_equals_scalar(out, lambda r: pipeline.process_batch(r)[0], captures(raw))

    @pytest.mark.parametrize("pattern", sorted(BAYER_PATTERNS))
    def test_raw_training_path(self, pattern):
        raw = make_raw_batch(seed=9, pattern=pattern)
        out = raw_to_training_array_batch(raw)
        assert_batch_equals_scalar(out, lambda r: raw_to_training_array_batch(r)[0],
                                   captures(raw))

    @pytest.mark.parametrize("pattern", sorted(BAYER_PATTERNS))
    def test_bayer_mosaic(self, pattern):
        batch = make_batch(seed=10)
        out = bayer_mosaic_batch(batch, pattern)
        assert_batch_equals_scalar(out, alone(bayer_mosaic_batch, pattern), batch)

    @pytest.mark.parametrize("size", [(8, 8), (16, 16), (33, 17), (48, 48)])
    def test_resize(self, size):
        batch = make_batch(n=4, h=24, w=20, seed=11)
        out = resize_bilinear_batch(batch, size)
        assert out.shape == (4, size[0], size[1], 3)
        assert_batch_equals_scalar(out, alone(resize_bilinear_batch, size), batch)

    def test_resize_same_size_returns_copy(self):
        batch = make_batch(n=2, h=8, w=8)
        out = resize_bilinear_batch(batch, (8, 8))
        np.testing.assert_array_equal(out, batch)
        out[0, 0, 0, 0] = -1.0
        assert batch[0, 0, 0, 0] != -1.0


class TestLegacyFormulations:
    """Pin reimplemented kernels to the library functions they replaced."""

    def test_median_network_matches_ndimage_rank_filter(self):
        rng = np.random.default_rng(12)
        planes = rng.random((6, 23, 17))
        expected = np.stack([ndimage.median_filter(p, size=3, mode="mirror") for p in planes])
        np.testing.assert_array_equal(median_filter_3x3(planes), expected)

    def test_median_network_with_ties(self):
        rng = np.random.default_rng(13)
        planes = np.round(rng.random((4, 16, 16)) * 4) / 4  # many duplicates
        expected = np.stack([ndimage.median_filter(p, size=3, mode="mirror") for p in planes])
        np.testing.assert_array_equal(median_filter_3x3(planes), expected)

    def test_rowwise_histogram_matches_np_histogram(self):
        from repro.isp.tone import _rowwise_histogram

        rng = np.random.default_rng(14)
        values = rng.random((5, 400))
        values[0, :5] = [0.0, 1.0, 0.5, 1.0 - 1e-12, 1e-12]  # bin-edge cases
        edges = np.linspace(0.0, 1.0, 65)
        ours = _rowwise_histogram(values, edges)
        for row, counts in zip(values, ours):
            expected, _ = np.histogram(row, bins=64, range=(0.0, 1.0))
            np.testing.assert_array_equal(counts, expected)

    def test_rowwise_interp_matches_np_interp(self):
        from repro.isp.tone import _rowwise_interp

        rng = np.random.default_rng(15)
        edges = np.linspace(0.0, 1.0, 65)
        xp = edges[:-1]
        fp = np.sort(rng.random((3, 64)), axis=1)
        x = rng.random((3, 500))
        x[0, :4] = [0.0, xp[3], xp[-1], 1.0]  # exact hits and out-of-range
        ours = _rowwise_interp(x, xp, fp)
        for row_x, row_fp, row_out in zip(x, fp, ours):
            np.testing.assert_array_equal(row_out, np.interp(row_x, xp, row_fp))

    def test_resize_reassociation_is_intentional(self):
        """The shared resize uses a separable rows-then-columns lerp; the
        deleted per-image implementations blended the four corners columns-
        first.  The reassociation is algebraically the same bilinear weights
        (agreement to ~1 ulp) but NOT bitwise — an intentional drift, noted
        in CHANGES.md, that contributes (with the train/test seed fix) to the
        regenerated benchmark realizations."""
        batch = make_batch(n=3, h=24, w=20, seed=17)
        size = (16, 16)
        h, w = batch.shape[1:3]
        row_pos = np.linspace(0, h - 1, size[0])
        col_pos = np.linspace(0, w - 1, size[1])
        row_lo = np.floor(row_pos).astype(int)
        col_lo = np.floor(col_pos).astype(int)
        row_hi = np.minimum(row_lo + 1, h - 1)
        col_hi = np.minimum(col_lo + 1, w - 1)
        row_frac = (row_pos - row_lo)[:, None, None]
        col_frac = (col_pos - col_lo)[None, :, None]
        legacy = np.stack([
            (image[row_lo][:, col_lo] * (1 - col_frac) + image[row_lo][:, col_hi] * col_frac)
            * (1 - row_frac)
            + (image[row_hi][:, col_lo] * (1 - col_frac) + image[row_hi][:, col_hi] * col_frac)
            * row_frac
            for image in batch
        ])
        np.testing.assert_allclose(resize_bilinear_batch(batch, size), legacy,
                                   rtol=0.0, atol=1e-12)

    def test_equalize_matches_legacy_np_interp_formulation(self):
        """The full equalize kernel against the seed's np.histogram/np.interp code."""
        from repro.isp.tone import srgb_gamma, tone_equalize_batch

        rng = np.random.default_rng(16)
        image = rng.random((16, 16, 3)) * 0.4

        encoded = srgb_gamma(image)
        luminance = encoded.mean(axis=-1)
        hist, bin_edges = np.histogram(luminance, bins=64, range=(0.0, 1.0))
        cdf = np.cumsum(hist).astype(np.float64)
        cdf /= cdf[-1]
        equalized_lum = np.interp(luminance, bin_edges[:-1], cdf)
        ratio = equalized_lum / np.maximum(luminance, 1e-6)
        legacy = np.clip(encoded * ratio[..., None], 0.0, 1.0)

        np.testing.assert_array_equal(tone_equalize_batch(image[None])[0], legacy)


class TestBatchValidation:
    def test_raw_batch_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            RawBatch(np.zeros((4, 4)))

    def test_raw_batch_rejects_odd_dims(self):
        with pytest.raises(ValueError):
            RawBatch(np.zeros((2, 5, 4)))

    @pytest.mark.parametrize("dispatch", [denoise_batch, white_balance_batch, gamut_map_batch,
                                          tone_transform_batch, compress_batch])
    def test_image_stage_batches_reject_single_images(self, dispatch):
        with pytest.raises(ValueError):
            dispatch(np.zeros((8, 8, 3)))

    @pytest.mark.parametrize("dispatch", [denoise_batch, white_balance_batch, gamut_map_batch,
                                          tone_transform_batch, compress_batch])
    def test_unknown_method_raises(self, dispatch):
        with pytest.raises(ValueError):
            dispatch(make_batch(n=2), "no_such_method")

    def test_unknown_demosaic_method_raises(self):
        with pytest.raises(ValueError):
            demosaic_batch(make_raw_batch(n=2), "no_such_method")
