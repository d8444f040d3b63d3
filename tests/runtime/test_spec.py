"""Tests for the declarative RunSpec: validation and JSON round-trip."""

import dataclasses

import pytest

from repro.eval.scale import SCALES
from repro.runtime import RunSpec, spec_scale


class TestValidation:
    def test_defaults_valid(self):
        spec = RunSpec()
        assert spec.kind == "federated"
        assert spec.strategy == "fedavg"
        assert spec.seeds == [0]

    def test_unknown_strategy_lists_available(self):
        with pytest.raises(KeyError, match="unknown strategy 'sgd'.*fedavg"):
            RunSpec(strategy="sgd")

    def test_unknown_model_lists_available(self):
        with pytest.raises(KeyError, match="unknown model.*simple_mlp"):
            RunSpec(model="resnet50")

    def test_unknown_dataset(self):
        with pytest.raises(KeyError, match="unknown dataset.*device_capture"):
            RunSpec(dataset="imagenet")

    def test_unknown_sampler(self):
        with pytest.raises(KeyError, match="unknown sampler.*uniform"):
            RunSpec(sampler="importance")

    def test_unknown_callback(self):
        with pytest.raises(KeyError, match="unknown callback.*eval_every"):
            RunSpec(callbacks={"telemetry2": {}})

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            RunSpec(kind="quantum")

    def test_unknown_scale_preset(self):
        with pytest.raises(KeyError, match="unknown scale"):
            RunSpec(scale="huge")

    def test_unknown_config_override(self):
        with pytest.raises(ValueError, match="unknown FLConfig override.*lr"):
            RunSpec(config_overrides={"lr": 0.1})

    def test_unknown_partition_kwargs_rejected(self):
        with pytest.raises(ValueError, match=r"unknown partition_kwargs \['exclud'\].*exclude"):
            RunSpec(partition_kwargs={"exclud": ["S6"]})

    def test_partition_exclude_accepted(self):
        spec = RunSpec(partition_kwargs={"exclude": ["S6"]})
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_centralized_partition_kwargs_share_the_key_check(self):
        spec = RunSpec(kind="centralized", partition_kwargs={"exclude": ["S6"]})
        assert RunSpec.from_json(spec.to_json()) == spec
        with pytest.raises(ValueError, match=r"unknown partition_kwargs \['exclud'\].*exclude"):
            RunSpec(kind="centralized", partition_kwargs={"exclud": ["S6"]})

    def test_empty_seeds(self):
        with pytest.raises(ValueError, match="seeds"):
            RunSpec(seeds=[])

    def test_non_integer_seeds(self):
        with pytest.raises(ValueError, match="seeds must be integers"):
            RunSpec(seeds=["zero"])

    def test_custom_scale_dict_must_be_complete(self):
        with pytest.raises(ValueError, match="ExperimentScale fields"):
            RunSpec(scale={"num_clients": 4})

    def test_custom_scale_dict_round_trips(self):
        scale_dict = dataclasses.asdict(SCALES["smoke"])
        spec = RunSpec(scale=scale_dict)
        assert spec.resolve_scale() == SCALES["smoke"]

    def test_spec_scale_helper(self):
        assert spec_scale("smoke") == "smoke"
        as_dict = spec_scale(SCALES["smoke"])
        assert as_dict == dataclasses.asdict(SCALES["smoke"])
        assert RunSpec(scale=as_dict).resolve_scale() == SCALES["smoke"]

    def test_federated_rejects_trainer_kwargs(self):
        with pytest.raises(ValueError, match="trainer_kwargs only applies"):
            RunSpec(trainer_kwargs={"averager": "swad"})

    def test_unknown_executor_lists_available(self):
        with pytest.raises(KeyError, match="unknown executor 'gpu'.*shm"):
            RunSpec(executor="gpu")

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True, "four"])
    def test_invalid_max_workers_rejected(self, bad):
        with pytest.raises(ValueError, match="max_workers"):
            RunSpec(max_workers=bad)

    def test_executor_defaults_serial(self):
        spec = RunSpec()
        assert spec.executor == "serial"
        assert spec.max_workers is None

    def test_parallel_executor_valid(self):
        spec = RunSpec(executor="shm", max_workers=4)
        assert spec.executor == "shm"
        assert spec.max_workers == 4

    @pytest.mark.parametrize("engine", ["reference", "warp"])
    def test_removed_train_engine_refused(self, engine):
        with pytest.raises(ValueError, match=f"train_engine '{engine}' was removed"):
            RunSpec(config_overrides={"train_engine": engine})

    def test_legacy_flat_engine_override_accepted(self):
        spec = RunSpec(config_overrides={"train_engine": "flat", "num_rounds": 2})
        assert spec.config_overrides["train_engine"] == "flat"

    def test_removed_process_executor_refused(self):
        with pytest.raises(KeyError, match="unknown executor 'process'.*shm"):
            RunSpec(executor="process")

    def test_centralized_rejects_executor_fields(self):
        with pytest.raises(ValueError, match="centralized specs do not use.*executor"):
            RunSpec(kind="centralized", dataset="scenes", executor="shm")
        with pytest.raises(ValueError, match="centralized specs do not use.*max_workers"):
            RunSpec(kind="centralized", dataset="scenes", max_workers=2)

    def test_centralized_rejects_silently_ignored_fields(self):
        with pytest.raises(ValueError, match="centralized specs do not use.*config_overrides"):
            RunSpec(kind="centralized", dataset="scenes",
                    config_overrides={"learning_rate": 0.5})
        with pytest.raises(ValueError, match="centralized specs do not use.*callbacks"):
            RunSpec(kind="centralized", dataset="scenes",
                    callbacks={"round_logger": {}})
        with pytest.raises(ValueError, match="centralized specs do not use.*strategy"):
            RunSpec(kind="centralized", dataset="scenes", strategy="heteroswitch")
        with pytest.raises(ValueError, match="centralized specs do not use.*sampler"):
            RunSpec(kind="centralized", dataset="scenes", sampler="round_robin")


class TestSerialization:
    def _rich_spec(self) -> RunSpec:
        return RunSpec(
            name="test",
            strategy="heteroswitch",
            strategy_kwargs={},
            model="simple_mlp",
            dataset="device_capture",
            dataset_kwargs={"devices": ["Pixel5", "S6"]},
            sampler="round_robin",
            executor="shm",
            max_workers=4,
            scale="smoke",
            config_overrides={"num_rounds": 2, "learning_rate": 0.05},
            callbacks={"early_stopping": {"patience": 2}},
            seeds=[0, 1, 2],
        )

    def test_dict_round_trip(self):
        spec = self._rich_spec()
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = self._rich_spec()
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = self._rich_spec()
        path = tmp_path / "spec.json"
        spec.save(path)
        assert RunSpec.load(path) == spec

    def test_to_dict_is_deep_copy(self):
        spec = self._rich_spec()
        data = spec.to_dict()
        data["dataset_kwargs"]["devices"].append("G7")
        assert spec.dataset_kwargs["devices"] == ["Pixel5", "S6"]

    def test_legacy_spec_without_executor_defaults_serial(self):
        """Spec files written before the execution engine still load."""
        spec = RunSpec.from_dict({"strategy": "fedavg", "dataset": "device_capture"})
        assert spec.executor == "serial"
        assert spec.max_workers is None

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown RunSpec field.*optimizer"):
            RunSpec.from_dict({"optimizer": "adam"})

    def test_from_dict_validates_contents(self):
        with pytest.raises(KeyError, match="unknown strategy"):
            RunSpec.from_dict({"strategy": "sgd"})


class TestDerivation:
    def test_with_overrides_returns_independent_copy(self):
        spec = RunSpec(dataset_kwargs={"devices": ["Pixel5", "S6"]})
        variant = spec.with_overrides(strategy="heteroswitch")
        assert variant.strategy == "heteroswitch"
        assert spec.strategy == "fedavg"
        variant.dataset_kwargs["devices"].append("G7")
        assert spec.dataset_kwargs["devices"] == ["Pixel5", "S6"]

    def test_with_overrides_validates(self):
        with pytest.raises(KeyError, match="unknown strategy"):
            RunSpec().with_overrides(strategy="sgd")

    def test_label(self):
        assert RunSpec().label == "fedavg/device_capture"
        assert RunSpec(name="custom").label == "custom"
        assert RunSpec(kind="centralized", dataset="scenes").label == "centralized/scenes"


class TestAsyncSpec:
    """kind='federated_async': field acceptance/rejection and round-trip."""

    def _async_spec(self, **overrides) -> RunSpec:
        fields = dict(kind="federated_async", strategy="fedasync",
                      latency_kwargs={"regime": "extreme"}, concurrency=3,
                      config_overrides={"num_rounds": 3}, seeds=[0, 1])
        fields.update(overrides)
        return RunSpec(**fields)

    def test_valid_async_spec(self):
        spec = self._async_spec()
        assert spec.label == "fedasync/device_capture"
        assert spec.latency_kwargs == {"regime": "extreme"}

    def test_json_round_trip(self):
        spec = self._async_spec(strategy="fedbuff",
                                strategy_kwargs={"buffer_size": 2})
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_async_strategy_requires_async_kind(self):
        with pytest.raises(ValueError, match="asynchronous-only"):
            RunSpec(strategy="fedasync")
        with pytest.raises(ValueError, match="asynchronous-only"):
            RunSpec(strategy="fedbuff")

    def test_async_kind_requires_async_strategy(self):
        with pytest.raises(ValueError, match="requires an asynchronous strategy"):
            RunSpec(kind="federated_async", strategy="fedavg")
        with pytest.raises(ValueError, match="requires an asynchronous strategy"):
            RunSpec(kind="federated_async", strategy="heteroswitch")

    def test_async_rejects_sampler_fields(self):
        with pytest.raises(ValueError, match="do not use sampler"):
            self._async_spec(sampler="round_robin")
        with pytest.raises(ValueError, match="do not use sampler"):
            self._async_spec(sampler_kwargs={"weight_by": "availability"})

    def test_async_rejects_trainer_kwargs(self):
        with pytest.raises(ValueError, match="trainer_kwargs only applies"):
            self._async_spec(trainer_kwargs={"epochs": 2})

    @pytest.mark.parametrize("override", [
        {"faults": {"seed": 0, "crash_rate": 0.1}},
        {"fault_policy": {"max_retries": 1}},
    ], ids=["faults", "fault_policy"])
    def test_async_rejects_fault_settings(self, override):
        with pytest.raises(ValueError, match="federated_async specs do not support"):
            self._async_spec(config_overrides={"num_rounds": 3, **override})

    def test_async_accepts_fault_settings_left_unset(self):
        self._async_spec(config_overrides={"num_rounds": 3, "faults": None,
                                           "fault_policy": None})

    def test_unknown_latency_kwargs_rejected(self):
        with pytest.raises(ValueError, match="unknown latency_kwargs.*jitter"):
            self._async_spec(latency_kwargs={"jitter": 0.5})

    def test_unknown_regime_rejected(self):
        with pytest.raises(KeyError, match="unknown latency regime"):
            self._async_spec(latency_kwargs={"regime": "chaotic"})

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "two"])
    def test_invalid_concurrency_rejected(self, bad):
        with pytest.raises(ValueError, match="concurrency"):
            self._async_spec(concurrency=bad)

    def test_sync_federated_rejects_async_fields(self):
        with pytest.raises(ValueError, match="latency_kwargs"):
            RunSpec(latency_kwargs={"regime": "mild"})
        with pytest.raises(ValueError, match="concurrency"):
            RunSpec(concurrency=2)

    def test_centralized_rejects_async_fields(self):
        with pytest.raises(ValueError, match="centralized specs do not use"):
            RunSpec(kind="centralized", dataset="scenes",
                    latency_kwargs={"regime": "mild"})
        with pytest.raises(ValueError, match="centralized specs do not use"):
            RunSpec(kind="centralized", dataset="scenes", concurrency=2)

    def test_async_accepts_executor_and_callbacks(self):
        spec = self._async_spec(executor="thread", max_workers=2,
                                callbacks={"async_telemetry": {}})
        assert spec.executor == "thread"
        assert "async_telemetry" in spec.callbacks
