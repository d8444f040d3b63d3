"""Tests for the Runner: spec execution, hand-built equivalence, callbacks, seeds."""

import pytest
from oracle.states import states_equal

from repro.core.swad import SWAAverager, SWADAverager
from repro.core.transforms import ecg_transform
from repro.data.capture import build_device_datasets
from repro.data.cifar_synthetic import SyntheticCifarConfig, build_synthetic_cifar
from repro.data.ecg import build_ecg_datasets
from repro.data.flair_synthetic import FlairConfig, build_flair_dataset
from repro.data.partition import build_client_specs
from repro.devices.profiles import market_shares
from repro.eval.factories import make_model_factory
from repro.eval.scale import get_scale
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation
from repro.fl.strategies import create_strategy
from repro.fl.training import local_train
from repro.nn.flat import FlatParams
from repro.runtime import Runner, RunSpec

DEVICES = ["Pixel5", "S6", "G7"]
SMOKE = get_scale("smoke")


@pytest.fixture(scope="module")
def runner():
    """One shared runner so the module's specs reuse the memoised datasets."""
    return Runner()


def _hand_built_metrics(method, factory, train_sets, test_sets, task="classification",
                        shares=None, exclude=None, strategy_kwargs=None, seed=0):
    """One FL run assembled by hand: partition, scale-derived config, strategy."""
    clients = build_client_specs(train_sets, num_clients=SMOKE.num_clients,
                                 shares=shares, seed=seed, exclude=exclude)
    config = FLConfig(
        num_clients=SMOKE.num_clients,
        clients_per_round=min(SMOKE.clients_per_round, SMOKE.num_clients),
        num_rounds=SMOKE.num_rounds,
        local_epochs=SMOKE.local_epochs,
        batch_size=SMOKE.batch_size,
        learning_rate=SMOKE.learning_rate,
        task=task,
        seed=seed,
    )
    strategy = create_strategy(method, **(strategy_kwargs or {}))
    return FederatedSimulation(factory, clients, test_sets, strategy,
                               config).run().per_device_metric


def _capture(seed):
    bundle = build_device_datasets(
        samples_per_class_train=SMOKE.samples_per_class_train,
        samples_per_class_test=SMOKE.samples_per_class_test,
        num_classes=SMOKE.num_classes,
        image_size=SMOKE.image_size,
        scene_size=SMOKE.scene_size,
        devices=DEVICES,
        seed=seed,
    )
    factory = make_model_factory(SMOKE, bundle.num_classes, bundle.image_size, seed=seed)
    return factory, bundle.train, bundle.test


def _capture_market(method, seed):
    shares = {name: share for name, share in market_shares().items() if name in DEVICES}
    return _hand_built_metrics(method, *_capture(seed), shares=shares, seed=seed)


def _capture_uniform_without_s6(method, seed):
    return _hand_built_metrics(method, *_capture(seed), shares={name: 1.0 for name in DEVICES},
                               exclude=["S6"], seed=seed)


def _flair(method, seed):
    config = FlairConfig(num_labels=6, num_device_types=6,
                         samples_per_device_train=max(SMOKE.samples_per_class_train * 3, 9),
                         samples_per_device_test=max(SMOKE.samples_per_class_test * 3, 6),
                         image_size=SMOKE.image_size, seed=seed)
    train_sets, test_sets, _ = build_flair_dataset(config)
    factory = make_model_factory(SMOKE, config.num_labels, config.image_size,
                                 model_name="simple_mlp", seed=seed)
    return _hand_built_metrics(method, factory, train_sets, test_sets, task="multilabel",
                               seed=seed)


def _synthetic_cifar(method, seed):
    config = SyntheticCifarConfig(num_classes=5,
                                  samples_per_class_train=SMOKE.samples_per_class_train * 2,
                                  samples_per_class_test=SMOKE.samples_per_class_test * 2,
                                  image_size=SMOKE.image_size, num_device_types=4, seed=seed)
    train_sets, test_sets, _ = build_synthetic_cifar(config)
    factory = make_model_factory(SMOKE, config.num_classes, config.image_size,
                                 model_name="simple_mlp", seed=seed)
    return _hand_built_metrics(method, factory, train_sets, test_sets, seed=seed)


def _ecg(method, seed):
    train_sets, test_sets, _ = build_ecg_datasets(
        samples_per_sensor_train=max(SMOKE.samples_per_class_train * 6, 24),
        samples_per_sensor_test=max(SMOKE.samples_per_class_test * 6, 12),
        window_size=64, seed=seed)
    factory = make_model_factory(SMOKE, 1, 64, model_name="ecg_regressor", seed=seed)
    return _hand_built_metrics(method, factory, train_sets, test_sets, task="regression",
                               strategy_kwargs={"transform": ecg_transform()}, seed=seed)


# (case id, spec fields, hand-built reference): every dataset family the
# experiment runners of repro.eval run through the Runner.
HAND_BUILT_CASES = [
    ("device_capture-market",
     dict(strategy="fedavg", dataset_kwargs={"devices": DEVICES}), _capture_market),
    ("device_capture-uniform-exclude",
     dict(strategy="fedavg", dataset_kwargs={"devices": DEVICES, "shares": "uniform"},
          partition_kwargs={"exclude": ["S6"]}), _capture_uniform_without_s6),
    ("flair", dict(strategy="heteroswitch", dataset="flair"), _flair),
    ("synthetic_cifar", dict(strategy="heteroswitch", dataset="synthetic_cifar"),
     _synthetic_cifar),
    ("ecg-heteroswitch", dict(strategy="heteroswitch", dataset="ecg"), _ecg),
]


class TestLegacyEquivalence:
    @pytest.mark.parametrize("method", ["fedavg", "heteroswitch"])
    def test_json_spec_matches_legacy_table4_path(self, runner, method):
        """Acceptance: a Table-4 run expressed as a JSON RunSpec reproduces a
        hand-assembled FederatedSimulation's metrics exactly."""
        spec = RunSpec.from_json(RunSpec(
            strategy=method,
            dataset="device_capture",
            dataset_kwargs={"devices": DEVICES},
            scale="smoke",
            seeds=[0],
        ).to_json())
        result = runner.run(spec)
        assert result.history.per_device_metric == _capture_market(method, seed=0)

    @pytest.mark.parametrize("fields, reference",
                             [case[1:] for case in HAND_BUILT_CASES],
                             ids=[case[0] for case in HAND_BUILT_CASES])
    def test_runner_matches_hand_built_simulation(self, runner, fields, reference):
        """Every dataset family the experiment runners use: the Runner's run
        equals the same run assembled by hand, bitwise."""
        spec = RunSpec(scale="smoke", seeds=[3], **fields)
        metrics = runner.run(spec).history.per_device_metric
        assert metrics == reference(spec.strategy, seed=3)

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


def _hand_trained(bundle, train_set, **kwargs):
    """A centralized smoke run assembled by hand: one ``local_train`` call."""
    model = make_model_factory(SMOKE, bundle.num_classes, bundle.image_size, seed=0)()
    config = FLConfig(num_clients=1, clients_per_round=1, local_epochs=SMOKE.central_epochs,
                      batch_size=SMOKE.batch_size, learning_rate=SMOKE.learning_rate)
    local_train(model, train_set, config, FlatParams.from_module(model).pack(), seed=0,
                **kwargs)
    return model


class TestCentralizedKind:
    def test_centralized_run(self, runner):
        spec = RunSpec(kind="centralized", dataset="scenes",
                       trainer_kwargs={"averager": "swad", "transform_degree": 0.3},
                       seeds=[0])
        result = runner.run(spec)
        assert len(result.models) == 1
        assert "scenes" in result.metrics[0]
        assert 0.0 <= result.metrics[0]["scenes"] <= 1.0

    def test_federated_run_leaves_models_empty(self, runner):
        """``models`` is centralized-only: a federated seed's final weights
        live in the run store's final checkpoint, not in memory."""
        spec = RunSpec(dataset_kwargs={"devices": DEVICES}, seeds=[0])
        result = runner.run(spec)
        assert len(result.histories) == 1
        assert result.models == []

    def test_swad_run_loads_the_average(self, runner):
        """The returned model holds exactly the SWAD average of a hand-built
        ``local_train`` on the same data, from the same initial weights."""
        spec = RunSpec(kind="centralized", dataset="scenes",
                       trainer_kwargs={"averager": "swad"}, seeds=[0])
        bundle = runner.build_bundle(spec, seed=0)
        averager = SWADAverager()
        _hand_trained(bundle, bundle.train["scenes"], batch_hook=averager.on_batch_end)
        assert averager.count > 0
        assert FlatParams.from_module(runner.run(spec).models[0]).pack().tobytes() == \
            averager.average().tobytes()

    def test_swa_averages_once_per_epoch(self, runner, monkeypatch):
        averagers = []

        class RecordingSWA(SWAAverager):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                averagers.append(self)

        monkeypatch.setattr("repro.runtime.runner.SWAAverager", RecordingSWA)
        spec = RunSpec(kind="centralized", dataset="scenes",
                       trainer_kwargs={"averager": "swa", "epochs": 3}, seeds=[0])
        runner.run(spec)
        assert [averager.count for averager in averagers] == [3]

    def test_exclude_pools_the_remaining_train_sets(self, runner):
        """A centralized run trains on the non-excluded train sets merged in
        bundle order, and still scores every device's test set."""
        spec = RunSpec(kind="centralized", dataset_kwargs={"devices": DEVICES},
                       partition_kwargs={"exclude": ["S6"]}, seeds=[0])
        bundle = runner.build_bundle(spec, seed=0)
        model = _hand_trained(bundle, bundle.train["Pixel5"].merge(bundle.train["G7"]))
        result = runner.run(spec)
        assert list(result.metrics[0]) == DEVICES
        assert states_equal(result.models[0].state_dict(), model.state_dict())

    @pytest.mark.parametrize("exclude, message", [
        (["Pixel5"], r"partition_kwargs\.exclude names unknown device\(s\) \['Pixel5'\]"),
        (["scenes"], r"partition_kwargs\.exclude leaves no train set"),
    ], ids=["unknown_device", "nothing_left"])
    def test_bad_exclude_refused(self, runner, exclude, message):
        spec = RunSpec(kind="centralized", dataset="scenes",
                       partition_kwargs={"exclude": exclude}, seeds=[0])
        with pytest.raises(ValueError, match=message):
            runner.run(spec)

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
