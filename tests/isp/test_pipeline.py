"""Tests for ISPConfig / ISPPipeline and the Table 3 stage variants."""

import numpy as np
import pytest

from repro.isp.pipeline import (
    BASELINE_CONFIG,
    ISP_STAGES,
    ISPConfig,
    ISPPipeline,
    OPTION1_CONFIG,
    OPTION2_CONFIG,
    stage_variants,
)
from repro.isp.raw import RawBatch, bayer_mosaic_batch


def make_raw(seed=0, size=16):
    """A one-capture RAW batch of a random scene."""
    rgb = np.random.default_rng(seed).random((1, size, size, 3))
    return RawBatch(bayer_mosaic_batch(rgb))


class TestISPConfig:
    def test_baseline_matches_table3(self):
        assert BASELINE_CONFIG.denoise == "fbdd"
        assert BASELINE_CONFIG.demosaic == "ppg"
        assert BASELINE_CONFIG.white_balance == "gray_world"
        assert BASELINE_CONFIG.gamut == "srgb"
        assert BASELINE_CONFIG.tone == "srgb_gamma"
        assert BASELINE_CONFIG.compression == "jpeg85"

    def test_option2_matches_table3(self):
        assert OPTION2_CONFIG.denoise == "wavelet_bayes"
        assert OPTION2_CONFIG.demosaic == "ahd"
        assert OPTION2_CONFIG.white_balance == "white_patch"
        assert OPTION2_CONFIG.gamut == "prophoto"
        assert OPTION2_CONFIG.compression == "jpeg50"

    def test_option1_omits_stages(self):
        assert OPTION1_CONFIG.denoise == "none"
        assert OPTION1_CONFIG.white_balance == "none"
        assert OPTION1_CONFIG.tone == "none"
        assert OPTION1_CONFIG.demosaic == "binning"  # demosaicing cannot be omitted

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError):
            ISPConfig(denoise="nonexistent")

    def test_with_stage_returns_new_config(self):
        cfg = BASELINE_CONFIG.with_stage("tone", "none")
        assert cfg.tone == "none"
        assert BASELINE_CONFIG.tone == "srgb_gamma"  # original unchanged

    def test_with_stage_invalid_stage(self):
        with pytest.raises(ValueError):
            BASELINE_CONFIG.with_stage("sharpening", "none")

    def test_as_dict_covers_all_stages(self):
        assert set(BASELINE_CONFIG.as_dict()) == set(ISP_STAGES)


class TestISPPipeline:
    def test_output_shape_and_range(self):
        out = ISPPipeline(BASELINE_CONFIG).process_batch(make_raw())[0]
        assert out.shape == (16, 16, 3)
        assert out.min() >= 0.0 and out.max() <= 1.0

    @pytest.mark.parametrize("config", [BASELINE_CONFIG, OPTION1_CONFIG, OPTION2_CONFIG])
    def test_all_reference_configs_run(self, config):
        out = ISPPipeline(config).process_batch(make_raw(seed=1))[0]
        assert np.isfinite(out).all()

    def test_different_configs_produce_different_images(self):
        raw = make_raw(seed=2)
        base = ISPPipeline(BASELINE_CONFIG).process_batch(raw)[0]
        alt = ISPPipeline(OPTION2_CONFIG).process_batch(raw)[0]
        assert np.abs(base - alt).mean() > 0.01

    def test_deterministic(self):
        raw = make_raw(seed=3)
        a = ISPPipeline(BASELINE_CONFIG).process_batch(raw)[0]
        b = ISPPipeline(BASELINE_CONFIG).process_batch(raw)[0]
        np.testing.assert_allclose(a, b)


class TestStageVariants:
    def test_two_variants_per_stage(self):
        variants = stage_variants(BASELINE_CONFIG)
        # Six stages x two options each, minus duplicates identical to baseline.
        assert len(variants) == 12

    def test_each_variant_differs_in_exactly_one_stage(self):
        for variant in stage_variants(BASELINE_CONFIG):
            differences = [
                stage for stage in ISP_STAGES
                if getattr(variant, stage) != getattr(BASELINE_CONFIG, stage)
            ]
            assert len(differences) == 1

    def test_variant_names_mention_stage(self):
        for variant in stage_variants(BASELINE_CONFIG):
            stage = variant.name.split(":")[0]
            assert stage in ISP_STAGES

    def test_variants_runnable(self):
        raw = make_raw(seed=4)
        for variant in stage_variants(BASELINE_CONFIG):
            out = ISPPipeline(variant).process_batch(raw)[0]
            assert out.shape == (16, 16, 3)
