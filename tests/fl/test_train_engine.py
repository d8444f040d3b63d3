"""Equivalence suite for the flat-parameter training engine.

The hard guarantee of the flat engine (``FLConfig.train_engine="flat"``, the
default): final weights, per-round metrics and run fingerprints are
**bitwise-identical** to the seed per-parameter path
(``train_engine="reference"``) for every strategy, on every execution
backend, including a checkpoint/resume round-trip through the flat
representation.  Where the engines differ is only wall clock — the
training-throughput benchmark (``benchmarks/test_bench_train.py``) records
that.
"""

import dataclasses
import multiprocessing
import os
import sys

import numpy as np
import pytest

from repro.fl.config import FLConfig
from repro.fl.execution import create_executor
from repro.fl.simulation import FederatedSimulation
from repro.fl.strategies import FLContext, create_strategy
from repro.nn.serialization import state_fingerprint, states_equal
from repro.store.checkpoint import read_checkpoint, write_checkpoint

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
HAS_SHM = HAS_FORK and sys.platform != "darwin" and os.path.isdir("/dev/shm")

BACKENDS = [
    pytest.param("serial", id="serial"),
    pytest.param("thread", id="thread"),
    pytest.param("shm", id="shm",
                 marks=pytest.mark.skipif(not HAS_SHM, reason="needs Linux fork + /dev/shm")),
]

ALL_STRATEGIES = ["fedavg", "fedprox", "qfedavg", "scaffold", "heteroswitch"]


def engine_config(config: FLConfig, engine: str, **overrides) -> FLConfig:
    return dataclasses.replace(config, train_engine=engine, **overrides)


def run_simulation(strategy_name, bundle, clients, config, model_fn,
                   executor="serial", max_workers=None):
    backend = create_executor(executor, max_workers=max_workers)
    with backend:
        sim = FederatedSimulation(model_fn, clients, bundle.test,
                                  create_strategy(strategy_name), config,
                                  executor=backend)
        history = sim.run()
    return history, sim.global_state


def assert_run_identical(reference, candidate):
    ref_history, ref_state = reference
    cand_history, cand_state = candidate
    assert [r.mean_train_loss for r in cand_history.rounds] == \
        [r.mean_train_loss for r in ref_history.rounds]
    assert [r.ema_loss for r in cand_history.rounds] == \
        [r.ema_loss for r in ref_history.rounds]
    assert cand_history.per_device_metric == ref_history.per_device_metric
    assert states_equal(ref_state, cand_state)
    assert state_fingerprint(ref_state) == state_fingerprint(cand_state)


# Reference-engine serial baselines, one per (strategy, config) at module scope.
_BASELINE = {}


def reference_baseline(strategy_name, bundle, clients, config, model_fn):
    key = (strategy_name, config)
    if key not in _BASELINE:
        _BASELINE[key] = run_simulation(strategy_name, bundle, clients,
                                        config, model_fn)
    return _BASELINE[key]


class TestFlatMatchesReference:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("strategy_name", ALL_STRATEGIES)
    def test_engine_equivalence(self, strategy_name, backend, tiny_bundle,
                                tiny_clients, tiny_fl_config, tiny_model_fn):
        reference = reference_baseline(
            strategy_name, tiny_bundle, tiny_clients,
            engine_config(tiny_fl_config, "reference"), tiny_model_fn)
        candidate = run_simulation(
            strategy_name, tiny_bundle, tiny_clients,
            engine_config(tiny_fl_config, "flat"), tiny_model_fn,
            executor=backend, max_workers=2 if backend != "serial" else None)
        assert_run_identical(reference, candidate)

    @pytest.mark.parametrize("strategy_name", ["fedavg", "fedprox"])
    def test_engine_equivalence_with_momentum_and_decay(
            self, strategy_name, tiny_bundle, tiny_clients, tiny_fl_config,
            tiny_model_fn):
        """Momentum + weight decay exercise the fused velocity/decay terms."""
        reference = run_simulation(
            strategy_name, tiny_bundle, tiny_clients,
            engine_config(tiny_fl_config, "reference", momentum=0.9,
                          weight_decay=1e-4), tiny_model_fn)
        candidate = run_simulation(
            strategy_name, tiny_bundle, tiny_clients,
            engine_config(tiny_fl_config, "flat", momentum=0.9,
                          weight_decay=1e-4), tiny_model_fn)
        assert_run_identical(reference, candidate)

    def test_flat_is_the_default_engine(self, tiny_fl_config):
        assert tiny_fl_config.train_engine == "flat"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            FLConfig(num_clients=2, clients_per_round=1, train_engine="warp")


class TestCheckpointResumeThroughFlat:
    @pytest.mark.parametrize("strategy_name", ALL_STRATEGIES)
    def test_resume_matches_uninterrupted_reference(
            self, strategy_name, tiny_bundle, tiny_clients, tiny_fl_config,
            tiny_model_fn, tmp_path):
        """Flat run -> snapshot at round 2 -> npz round trip -> resume ==
        the *reference-engine* uninterrupted run, bit for bit."""
        rounds = 4
        config = engine_config(tiny_fl_config, "reference", num_rounds=rounds)
        ref_history, ref_state = run_simulation(
            strategy_name, tiny_bundle, tiny_clients, config, tiny_model_fn)

        flat_config = engine_config(tiny_fl_config, "flat", num_rounds=rounds)
        first = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                    create_strategy(strategy_name), flat_config)
        first.run(num_rounds=2)
        snapshot = first.snapshot()
        path = tmp_path / f"{strategy_name}.ckpt.npz"
        write_checkpoint(path, snapshot)
        restored, _meta = read_checkpoint(path)

        second = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                     create_strategy(strategy_name), flat_config)
        second.restore(restored)
        history = second.run()
        assert [r.mean_train_loss for r in history.rounds] == \
            [r.mean_train_loss for r in ref_history.rounds]
        assert history.per_device_metric == ref_history.per_device_metric
        assert states_equal(second.global_state, ref_state)

    def test_cross_engine_resume(self, tiny_bundle, tiny_clients, tiny_fl_config,
                                 tiny_model_fn):
        """A reference-engine checkpoint resumes under the flat engine (and
        vice versa) with identical outcomes: the dict state boundary is
        engine-neutral."""
        rounds = 4
        outcomes = {}
        for first_engine, second_engine in (("reference", "flat"),
                                            ("flat", "reference")):
            first = FederatedSimulation(
                tiny_model_fn, tiny_clients, tiny_bundle.test,
                create_strategy("scaffold"),
                engine_config(tiny_fl_config, first_engine, num_rounds=rounds))
            first.run(num_rounds=2)
            snapshot = first.snapshot()
            second = FederatedSimulation(
                tiny_model_fn, tiny_clients, tiny_bundle.test,
                create_strategy("scaffold"),
                engine_config(tiny_fl_config, second_engine, num_rounds=rounds))
            second.restore(snapshot)
            second.run()
            outcomes[(first_engine, second_engine)] = second.global_state
        assert states_equal(outcomes[("reference", "flat")],
                            outcomes[("flat", "reference")])


class TestFlatAggregationPrimitives:
    def test_average_states_flat_matches_reference(self):
        from repro.nn.engine import engine_mode
        from repro.nn.serialization import average_states

        rng = np.random.default_rng(0)
        states = [{"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4)}
                  for _ in range(5)]
        weights = [3, 1, 4, 1, 5]
        with engine_mode("reference"):
            reference = average_states(states, weights)
        with engine_mode("flat"):
            flat = average_states(states, weights)
        assert states_equal(reference, flat)

    def test_qfedavg_aggregate_flat_matches_reference(self, tiny_fl_config):
        from repro.core.ema import EMALossTracker
        from repro.fl.training import ClientResult
        from repro.nn.engine import engine_mode

        rng = np.random.default_rng(1)
        template = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)}
        results = [
            ClientResult(
                state={key: value + rng.normal(scale=0.1, size=value.shape)
                       for key, value in template.items()},
                num_samples=int(rng.integers(5, 20)),
                train_loss=float(rng.uniform(0.5, 2.0)),
                init_loss=float(rng.uniform(0.5, 2.0)),
                client_id=index,
            )
            for index in range(4)
        ]
        strategy = create_strategy("qfedavg")
        outputs = {}
        for mode in ("reference", "flat"):
            context = FLContext(config=tiny_fl_config,
                                ema=EMALossTracker(alpha=0.9))
            with engine_mode(mode):
                outputs[mode] = strategy.aggregate(
                    {key: value.copy() for key, value in template.items()},
                    list(results), context)
        assert states_equal(outputs["reference"], outputs["flat"])

    def test_weight_averager_flat_matches_reference(self):
        from repro.core.swad import WeightAverager
        from repro.nn.engine import engine_mode

        rng = np.random.default_rng(2)
        snapshots = [{"w": rng.normal(size=(3, 3)), "b": rng.normal(size=2)}
                     for _ in range(7)]
        averages = {}
        for mode in ("reference", "flat"):
            with engine_mode(mode):
                averager = WeightAverager()
                for snapshot in snapshots:
                    averager.update({key: value.copy()
                                     for key, value in snapshot.items()})
                averages[mode] = averager.average()
        assert states_equal(averages["reference"], averages["flat"])

    def test_weight_averager_arena_fast_path_matches_dict_path(self):
        from repro.core.swad import WeightAverager
        from repro.nn.flat import FlatParams
        from repro.nn.models import SimpleMLP

        plain_model = SimpleMLP(4, 2, hidden=3, seed=0)
        flat_model = SimpleMLP(4, 2, hidden=3, seed=0)
        FlatParams.from_module(flat_model)
        rng = np.random.default_rng(3)
        plain_avg, flat_avg = WeightAverager(), WeightAverager()
        for _ in range(5):
            noise = {name: rng.normal(scale=0.1, size=param.data.shape)
                     for name, param in plain_model.named_parameters()}
            for model in (plain_model, flat_model):
                for name, param in model.named_parameters():
                    param.data += noise[name]
            plain_avg.update_from_model(plain_model)
            flat_avg.update_from_model(flat_model)
        assert states_equal(plain_avg.average(), flat_avg.average())
