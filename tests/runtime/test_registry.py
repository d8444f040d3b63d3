"""Tests for the generic component registry."""

import pytest

from repro.registry import Registry
from repro.runtime import (
    CALLBACK_REGISTRY,
    DATASET_REGISTRY,
    MODEL_REGISTRY,
    SAMPLER_REGISTRY,
    STRATEGY_REGISTRY,
)


class TestRegistryBasics:
    def test_mapping_protocol(self):
        registry = Registry("widget", {"a": int, "b": float})
        assert len(registry) == 2
        assert set(registry) == {"a", "b"}
        assert "a" in registry
        assert registry["a"] is int
        assert sorted(registry) == ["a", "b"]

    def test_create_passes_kwargs(self):
        registry = Registry("widget", {"value": dict})
        assert registry.create("value", x=1) == {"x": 1}

    def test_register_decorator(self):
        registry = Registry("widget")

        @registry.register("thing")
        def make_thing():
            return "thing"

        assert registry.create("thing") == "thing"

    def test_register_direct(self):
        registry = Registry("widget")
        registry.register("x", int)
        assert registry["x"] is int

    def test_register_duplicate_raises(self):
        registry = Registry("widget", {"x": int})
        with pytest.raises(ValueError, match="already registered"):
            registry.register("x", float)

    def test_replace_overrides(self):
        registry = Registry("widget", {"x": int})
        registry.replace("x", float)
        assert registry["x"] is float


class TestErrorMessages:
    def test_unknown_key_lists_available(self):
        registry = Registry("widget", {"alpha": int, "beta": float})
        with pytest.raises(KeyError, match=r"unknown widget 'gamma'.*alpha.*beta"):
            registry["gamma"]

    @pytest.mark.parametrize("registry, kind", [
        (STRATEGY_REGISTRY, "strategy"),
        (MODEL_REGISTRY, "model"),
        (DATASET_REGISTRY, "dataset"),
        (SAMPLER_REGISTRY, "sampler"),
        (CALLBACK_REGISTRY, "callback"),
    ])
    def test_component_registries_list_keys_on_miss(self, registry, kind):
        with pytest.raises(KeyError) as excinfo:
            registry["definitely_not_registered"]
        message = str(excinfo.value)
        assert f"unknown {kind}" in message
        for key in registry.available():
            assert key in message


class TestComponentRegistryContents:
    def test_all_table4_strategies_registered(self):
        for name in ("fedavg", "fedprox", "scaffold", "qfedavg",
                     "heteroswitch", "isp_transform", "isp_swad"):
            assert name in STRATEGY_REGISTRY

    def test_dataset_builders_registered(self):
        for name in ("device_capture", "synthetic_cifar", "flair", "ecg", "scenes"):
            assert name in DATASET_REGISTRY

    def test_samplers_registered(self):
        assert {"uniform", "round_robin"} <= set(SAMPLER_REGISTRY)

    def test_callbacks_registered(self):
        assert {"eval_every", "early_stopping", "switch_telemetry",
                "round_logger"} <= set(CALLBACK_REGISTRY)


class TestDeviceCaptureShares:
    def test_bad_shares_refused_before_any_capture(self, monkeypatch):
        """A typo'd ``shares`` fails fast instead of after capturing the fleet."""
        from repro.eval.scale import get_scale

        calls = []
        monkeypatch.setattr("repro.runtime.registries.build_device_datasets",
                            lambda **kwargs: calls.append(kwargs))
        with pytest.raises(ValueError, match="shares must be 'market' or 'uniform'"):
            DATASET_REGISTRY.create("device_capture", scale=get_scale("smoke"), seed=0,
                                    shares="Market")
        assert calls == []


class TestDeviceCaptureISPOverride:
    def test_dict_becomes_the_isp_config_of_every_capture(self, monkeypatch):
        import dataclasses

        from repro.eval.scale import get_scale
        from repro.isp.pipeline import OPTION2_CONFIG

        calls = []

        def spy(**kwargs):
            calls.append(kwargs)
            raise RuntimeError("stop before capturing")

        monkeypatch.setattr("repro.runtime.registries.build_device_datasets", spy)
        with pytest.raises(RuntimeError, match="stop before capturing"):
            DATASET_REGISTRY.create("device_capture", scale=get_scale("smoke"), seed=0,
                                    isp_override=dataclasses.asdict(OPTION2_CONFIG))
        assert [call["isp_override"] for call in calls] == [OPTION2_CONFIG]

    def test_unknown_fields_refused_before_any_capture(self, monkeypatch):
        from repro.eval.scale import get_scale

        calls = []
        monkeypatch.setattr("repro.runtime.registries.build_device_datasets",
                            lambda **kwargs: calls.append(kwargs))
        with pytest.raises(ValueError, match=r"unknown isp_override field\(s\) \['gama'\]"):
            DATASET_REGISTRY.create("device_capture", scale=get_scale("smoke"), seed=0,
                                    isp_override={"gama": "srgb"})
        assert calls == []

    def test_unknown_method_refused_naming_the_kwarg(self, monkeypatch):
        from repro.eval.scale import get_scale

        calls = []
        monkeypatch.setattr("repro.runtime.registries.build_device_datasets",
                            lambda **kwargs: calls.append(kwargs))
        with pytest.raises(ValueError, match=r"^isp_override: unknown method 'foo' "
                                             r"for ISP stage 'denoise'") as info:
            DATASET_REGISTRY.create("device_capture", scale=get_scale("smoke"), seed=0,
                                    isp_override={"denoise": "foo"})
        assert isinstance(info.value.__cause__, ValueError)
        assert calls == []
