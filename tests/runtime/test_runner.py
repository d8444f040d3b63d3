"""Tests for the Runner: spec execution, legacy equivalence, callbacks, seeds."""

import pytest

from repro.data.capture import build_device_datasets
from repro.devices.profiles import market_shares
from repro.eval.evaluation import run_fl_method
from repro.eval.factories import make_model_factory
from repro.eval.scale import get_scale
from repro.runtime import Runner, RunSpec

DEVICES = ["Pixel5", "S6", "G7"]


@pytest.fixture(scope="module")
def runner():
    """One shared runner so the module's specs reuse the memoised datasets."""
    return Runner()


def _legacy_table4_metrics(method: str, seed: int):
    """The legacy Table-4 engine: hand-assembled factory/partition/strategy."""
    scale = get_scale("smoke")
    bundle = build_device_datasets(
        samples_per_class_train=scale.samples_per_class_train,
        samples_per_class_test=scale.samples_per_class_test,
        num_classes=scale.num_classes,
        image_size=scale.image_size,
        scene_size=scale.scene_size,
        devices=DEVICES,
        seed=seed,
    )
    factory = make_model_factory(scale, bundle.num_classes, bundle.image_size, seed=seed)
    shares = {name: share for name, share in market_shares().items() if name in DEVICES}
    history = run_fl_method(method, factory, bundle.train, bundle.test, scale,
                            shares=shares, seed=seed)
    return history.per_device_metric


class TestLegacyEquivalence:
    @pytest.mark.parametrize("method", ["fedavg", "heteroswitch"])
    def test_json_spec_matches_legacy_table4_path(self, runner, method):
        """Acceptance: a Table-4 run expressed as a JSON RunSpec reproduces the
        legacy ``table4_main_evaluation`` engine's metrics exactly."""
        spec = RunSpec.from_json(RunSpec(
            strategy=method,
            dataset="device_capture",
            dataset_kwargs={"devices": DEVICES},
            scale="smoke",
            seeds=[0],
        ).to_json())
        result = runner.run(spec)
        assert result.history.per_device_metric == _legacy_table4_metrics(method, seed=0)

    def test_summary_matches_history_summary(self, runner):
        spec = RunSpec(dataset_kwargs={"devices": DEVICES}, seeds=[0])
        result = runner.run(spec)
        expected = result.history.summary
        for key in ("worst_case", "variance", "average"):
            assert result.summary[key] == pytest.approx(expected[key])


class TestMultiSeed:
    def test_replicates_over_seeds(self, runner):
        spec = RunSpec(dataset_kwargs={"devices": DEVICES}, seeds=[0, 1])
        result = runner.run(spec)
        assert result.seeds == [0, 1]
        assert len(result.histories) == 2
        assert len(result.metrics) == 2
        assert result.summary["num_seeds"] == 2
        assert "average_std" in result.summary

    def test_single_seed_history_accessor_guards(self, runner):
        spec = RunSpec(dataset_kwargs={"devices": DEVICES}, seeds=[0, 1])
        result = runner.run(spec)
        with pytest.raises(ValueError, match="exactly one history"):
            result.history

    def test_seeds_change_the_run(self, runner):
        spec = RunSpec(dataset_kwargs={"devices": DEVICES}, seeds=[0, 1])
        result = runner.run(spec)
        selected = [[r.selected_clients for r in h.rounds] for h in result.histories]
        assert selected[0] != selected[1]

    def test_deterministic_across_runners(self):
        spec = RunSpec(dataset_kwargs={"devices": DEVICES}, seeds=[3])
        first = Runner().run(spec).history.per_device_metric
        second = Runner().run(spec).history.per_device_metric
        assert first == second


class TestSpecComponents:
    def test_callbacks_attach_via_spec(self, runner):
        spec = RunSpec(
            dataset_kwargs={"devices": DEVICES},
            config_overrides={"num_rounds": 4},
            callbacks={"early_stopping": {"monitor": "mean_train_loss",
                                          "patience": 1, "min_delta": 10.0}},
            seeds=[0],
        )
        history = runner.run(spec).history
        # An impossible min_delta means round 2 never improves: stop after patience.
        assert len(history.rounds) < 4
        assert "early_stopped_at" in history.metadata

    def test_switch_telemetry_always_present(self, runner):
        spec = RunSpec(strategy="isp_swad", dataset_kwargs={"devices": DEVICES}, seeds=[0])
        history = runner.run(spec).history
        assert history.metadata["total_switch1"] == sum(
            len(r.selected_clients) for r in history.rounds)

    def test_sampler_choice_changes_selection(self, runner):
        base = RunSpec(dataset_kwargs={"devices": DEVICES}, seeds=[0])
        uniform = runner.run(base).history
        robin = runner.run(base.with_overrides(sampler="round_robin")).history
        assert [r.selected_clients for r in uniform.rounds] != \
               [r.selected_clients for r in robin.rounds]

    def test_config_overrides_apply(self, runner):
        spec = RunSpec(dataset_kwargs={"devices": DEVICES},
                       config_overrides={"num_rounds": 1}, seeds=[0])
        assert len(runner.run(spec).history.rounds) == 1

    def test_removed_fault_policy_field_refused(self, runner):
        """A spec still setting FaultPolicy.worker_timeout is refused when
        its FLConfig is built, not silently ignored."""
        spec = RunSpec(dataset_kwargs={"devices": DEVICES},
                       config_overrides={"fault_policy": {"worker_timeout": 5.0}},
                       seeds=[0])
        with pytest.raises(ValueError, match="worker_timeout"):
            runner.run(spec)

    def test_eval_every_override_records_evaluations(self, runner):
        spec = RunSpec(dataset_kwargs={"devices": DEVICES},
                       config_overrides={"num_rounds": 2, "eval_every": 1}, seeds=[0])
        history = runner.run(spec).history
        assert len(history.evaluations) == 2


class TestDatasetCache:
    def test_bundle_memoised_across_specs(self):
        runner = Runner()
        spec = RunSpec(dataset_kwargs={"devices": DEVICES}, seeds=[0])
        first = runner.build_bundle(spec, seed=0)
        second = runner.build_bundle(spec.with_overrides(strategy="heteroswitch"), seed=0)
        assert first is second

    def test_cache_keyed_by_seed_and_kwargs(self):
        runner = Runner()
        spec = RunSpec(dataset_kwargs={"devices": DEVICES}, seeds=[0])
        assert runner.build_bundle(spec, seed=0) is not runner.build_bundle(spec, seed=1)
        other = spec.with_overrides(dataset_kwargs={"devices": DEVICES[:2]})
        assert runner.build_bundle(spec, seed=0) is not runner.build_bundle(other, seed=0)

    def test_cache_can_be_disabled(self):
        runner = Runner(cache_datasets=False)
        spec = RunSpec(dataset_kwargs={"devices": DEVICES}, seeds=[0])
        assert runner.build_bundle(spec, seed=0) is not runner.build_bundle(spec, seed=0)


class TestCentralizedKind:
    def test_centralized_run(self, runner):
        spec = RunSpec(kind="centralized", dataset="scenes",
                       trainer_kwargs={"averager": "swad", "transform_degree": 0.3},
                       seeds=[0])
        result = runner.run(spec)
        assert len(result.models) == 1
        assert "scenes" in result.metrics[0]
        assert 0.0 <= result.metrics[0]["scenes"] <= 1.0

    def test_unknown_averager(self, runner):
        spec = RunSpec(kind="centralized", dataset="scenes",
                       trainer_kwargs={"averager": "ema"}, seeds=[0])
        with pytest.raises(ValueError, match="averager"):
            runner.run(spec)

    def test_unknown_trainer_kwarg(self, runner):
        spec = RunSpec(kind="centralized", dataset="scenes",
                       trainer_kwargs={"optimizer": "adam"}, seeds=[0])
        with pytest.raises(ValueError, match="unknown trainer_kwargs"):
            runner.run(spec)

    def test_run_seed_rejects_centralized(self, runner):
        spec = RunSpec(kind="centralized", dataset="scenes", seeds=[0])
        with pytest.raises(ValueError, match="federated"):
            runner.run_seed(spec, seed=0)


class TestReporting:
    def test_to_experiment_result(self, runner):
        spec = RunSpec(dataset_kwargs={"devices": DEVICES}, seeds=[0, 1])
        result = runner.run(spec).to_experiment_result("bench")
        assert result.experiment_id == "bench"
        assert len(result.rows) == 2
        assert result.metadata["spec"]["dataset"] == "device_capture"
        assert "worst_case" in result.scalars
