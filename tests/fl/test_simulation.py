"""Tests for the federated simulation loop and the scaffold both loops share."""

import dataclasses

import numpy as np
import pytest
from oracle.states import states_equal

from repro.fl.async_sim import AsyncFederatedSimulation, FedAsync
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation, FLHistory
from repro.fl.strategies import FedAvg, create_strategy
from repro.nn.serialization import StateLayout


def build_sync(model_fn, clients, test_sets, config):
    return FederatedSimulation(model_fn, clients, test_sets, FedAvg(), config)


def build_async(model_fn, clients, test_sets, config):
    return AsyncFederatedSimulation(model_fn, clients, test_sets, FedAsync(), config)


BUILDERS = {"sync": build_sync, "async": build_async}
KINDS = list(BUILDERS)

# Each simulation's public attributes and checkpoint tree keys, pinned as
# literals: the shared base must not take anything away from either class.
PUBLIC_ATTRIBUTES = {
    "sync": ["callbacks", "clients", "config", "context", "evaluate", "executor",
             "global_model", "global_state", "history", "model_fn", "request_stop",
             "restore", "run", "run_round", "sampler", "select_clients",
             "snapshot", "strategy", "test_sets", "tracer"],
    "async": ["callbacks", "clients", "clock", "concurrency", "config", "context",
              "evaluate", "executor", "global_model", "global_state", "history",
              "latency_models", "max_events", "model_fn", "model_for",
              "request_stop", "restore", "run", "snapshot", "strategy",
              "test_sets", "tracer", "version"],
}
SNAPSHOT_KEYS = {
    "sync": ["ema", "global_state", "history", "next_round", "seed", "strategy",
             "strategy_state"],
    "async": ["avail_counts", "batch_count", "batches", "busy", "clock",
              "dispatch_count", "ema", "global_state", "history", "job_count",
              "jobs", "kind", "latency_counts", "online", "open_batch", "queue",
              "results", "seed", "strategy", "strategy_state", "updates_lost",
              "version"],
}


@pytest.mark.parametrize("kind", KINDS)
class TestSimulationConstruction:
    def test_rejects_empty_clients(self, kind, tiny_bundle, tiny_fl_config, tiny_model_fn):
        with pytest.raises(ValueError, match="population"):
            BUILDERS[kind](tiny_model_fn, [], tiny_bundle.test, tiny_fl_config)

    def test_rejects_empty_test_sets(self, kind, tiny_clients, tiny_fl_config, tiny_model_fn):
        with pytest.raises(ValueError, match="test_sets"):
            BUILDERS[kind](tiny_model_fn, tiny_clients, {}, tiny_fl_config)

    def test_rejects_mismatched_client_count(self, kind, tiny_bundle, tiny_clients,
                                             tiny_model_fn):
        config = FLConfig(num_clients=99, clients_per_round=3, num_rounds=1)
        with pytest.raises(ValueError, match="num_clients"):
            BUILDERS[kind](tiny_model_fn, tiny_clients, tiny_bundle.test, config)


@pytest.mark.parametrize("kind", KINDS)
class TestSharedContract:
    def test_public_attributes(self, kind, tiny_bundle, tiny_clients, tiny_fl_config,
                               tiny_model_fn):
        sim = BUILDERS[kind](tiny_model_fn, tiny_clients, tiny_bundle.test, tiny_fl_config)
        public = sorted(name for name in dir(sim) if not name.startswith("_"))
        assert public == PUBLIC_ATTRIBUTES[kind]

    def test_snapshot_keys(self, kind, tiny_bundle, tiny_clients, tiny_fl_config,
                           tiny_model_fn):
        sim = BUILDERS[kind](tiny_model_fn, tiny_clients, tiny_bundle.test, tiny_fl_config)
        sim.run(1)
        assert sorted(sim.snapshot()) == SNAPSHOT_KEYS[kind]

    def test_second_run_refused(self, kind, tiny_bundle, tiny_clients, tiny_fl_config,
                                tiny_model_fn):
        """A finished simulation is not replayed on its own trained weights."""
        sim = BUILDERS[kind](tiny_model_fn, tiny_clients, tiny_bundle.test, tiny_fl_config)
        sim.run(1)
        weights, history = sim.global_state, sim.history.to_dict()
        with pytest.raises(ValueError, match="already run"):
            sim.run(1)
        assert states_equal(sim.global_state, weights)
        assert sim.history.to_dict() == history

    def test_second_run_after_restore_continues(self, kind, tiny_bundle, tiny_clients,
                                                tiny_fl_config, tiny_model_fn):
        full = BUILDERS[kind](tiny_model_fn, tiny_clients, tiny_bundle.test, tiny_fl_config)
        expected = full.run(2)
        sim = BUILDERS[kind](tiny_model_fn, tiny_clients, tiny_bundle.test, tiny_fl_config)
        sim.run(1)
        sim.restore(sim.snapshot())
        history = sim.run(2)
        assert [r.to_dict() for r in history.rounds] == [r.to_dict() for r in expected.rounds]
        assert history.per_device_metric == expected.per_device_metric
        assert states_equal(sim.global_state, full.global_state)

    @pytest.mark.parametrize("corruption", ["missing_key", "reshaped"])
    def test_restore_refuses_malformed_weights(self, kind, corruption, tiny_bundle,
                                               tiny_clients, tiny_fl_config,
                                               tiny_model_fn):
        source = BUILDERS[kind](tiny_model_fn, tiny_clients, tiny_bundle.test,
                                tiny_fl_config)
        source.run(1)
        snapshot = source.snapshot()
        weights = dict(snapshot["global_state"])
        key = next(iter(weights))
        if corruption == "missing_key":
            del weights[key]
        else:
            weights[key] = weights[key][np.newaxis]
        target = BUILDERS[kind](tiny_model_fn, tiny_clients, tiny_bundle.test,
                                tiny_fl_config)
        before = target.global_state
        # The refusal names the key and comes from restore() itself, before
        # any weights are loaded: nothing waits to fail in a later round.
        with pytest.raises((KeyError, ValueError), match=key):
            target.restore({**snapshot, "global_state": weights})
        assert states_equal(target.global_state, before)

    @pytest.mark.parametrize("written,restored", [("float32", "float64"),
                                                  ("float64", "float32")])
    def test_restore_refuses_cross_dtype_weights(self, kind, written, restored, tiny_bundle,
                                                 tiny_clients, tiny_fl_config, tiny_model_fn):
        source = BUILDERS[kind](tiny_model_fn, tiny_clients, tiny_bundle.test,
                                dataclasses.replace(tiny_fl_config, dtype=written))
        source.run(1)
        snapshot = source.snapshot()
        target = BUILDERS[kind](tiny_model_fn, tiny_clients, tiny_bundle.test,
                                dataclasses.replace(tiny_fl_config, dtype=restored))
        before = target.global_state
        with pytest.raises(ValueError, match=f"holds {written} .*dtype is '{restored}'"):
            target.restore(snapshot)
        assert states_equal(target.global_state, before)
        assert all(value.dtype == np.dtype(restored) for value in target.global_state.values())


class TestSimulationRun:
    def test_history_structure(self, tiny_bundle, tiny_clients, tiny_fl_config, tiny_model_fn):
        sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test, FedAvg(),
                                  tiny_fl_config)
        history = sim.run()
        assert isinstance(history, FLHistory)
        assert len(history.rounds) == tiny_fl_config.num_rounds
        assert set(history.per_device_metric) == set(tiny_bundle.test)
        assert set(history.summary) == {"worst_case", "variance", "average"}

    def test_selects_k_clients_per_round(self, tiny_bundle, tiny_clients, tiny_fl_config,
                                         tiny_model_fn):
        sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test, FedAvg(),
                                  tiny_fl_config)
        history = sim.run()
        for record in history.rounds:
            assert len(record.selected_clients) == tiny_fl_config.clients_per_round
            assert len(set(record.selected_clients)) == len(record.selected_clients)

    def test_global_weights_change(self, tiny_bundle, tiny_clients, tiny_fl_config, tiny_model_fn):
        sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test, FedAvg(),
                                  tiny_fl_config)
        layout = StateLayout(sim.global_state)
        before = layout.pack(sim.global_state)
        sim.run()
        after = layout.pack(sim.global_state)
        assert not np.allclose(before, after)

    def test_ema_tracked_each_round(self, tiny_bundle, tiny_clients, tiny_fl_config, tiny_model_fn):
        sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test, FedAvg(),
                                  tiny_fl_config)
        history = sim.run()
        assert all(np.isfinite(record.ema_loss) for record in history.rounds)
        assert len(sim.context.ema.history) == tiny_fl_config.num_rounds

    def test_deterministic_given_seed(self, tiny_bundle, tiny_clients, tiny_fl_config,
                                      tiny_model_fn):
        run1 = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test, FedAvg(),
                                   tiny_fl_config).run()
        run2 = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test, FedAvg(),
                                   tiny_fl_config).run()
        assert run1.per_device_metric == run2.per_device_metric
        assert [r.selected_clients for r in run1.rounds] == [r.selected_clients for r in run2.rounds]

    def test_periodic_evaluation(self, tiny_bundle, tiny_clients, tiny_model_fn):
        config = FLConfig(num_clients=6, clients_per_round=3, num_rounds=4, batch_size=4,
                          learning_rate=0.1, eval_every=2, seed=0)
        sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test, FedAvg(), config)
        history = sim.run()
        assert len(history.evaluations) == 2

    def test_run_with_explicit_round_count(self, tiny_bundle, tiny_clients, tiny_fl_config,
                                           tiny_model_fn):
        sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test, FedAvg(),
                                  tiny_fl_config)
        history = sim.run(num_rounds=1)
        assert len(history.rounds) == 1

    def test_invalid_round_count(self, tiny_bundle, tiny_clients, tiny_fl_config, tiny_model_fn):
        sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test, FedAvg(),
                                  tiny_fl_config)
        with pytest.raises(ValueError):
            sim.run(num_rounds=0)

    def test_global_model_reflects_training(self, tiny_bundle, tiny_clients, tiny_fl_config,
                                            tiny_model_fn):
        sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test, FedAvg(),
                                  tiny_fl_config)
        sim.run()
        model = sim.global_model()
        layout = StateLayout(sim.global_state)
        np.testing.assert_allclose(layout.pack(model.state_dict()), layout.pack(sim.global_state))

    def test_final_train_loss_property(self, tiny_bundle, tiny_clients, tiny_fl_config,
                                       tiny_model_fn):
        sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test, FedAvg(),
                                  tiny_fl_config)
        history = sim.run()
        assert history.final_train_loss == history.rounds[-1].mean_train_loss

    def test_empty_history_raises(self):
        with pytest.raises(RuntimeError):
            FLHistory(strategy="x").final_train_loss


class TestAllStrategiesEndToEnd:
    @pytest.mark.parametrize("strategy_name", [
        "fedavg", "qfedavg", "fedprox", "scaffold", "isp_transform", "isp_swad", "heteroswitch",
    ])
    def test_every_strategy_completes(self, strategy_name, tiny_bundle, tiny_clients,
                                      tiny_fl_config, tiny_model_fn):
        sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                  create_strategy(strategy_name), tiny_fl_config)
        history = sim.run()
        assert history.strategy == strategy_name
        assert all(0.0 <= value <= 1.0 for value in history.per_device_metric.values())
        assert np.isfinite(history.final_train_loss)

    def test_heteroswitch_records_switch_counts(self, tiny_bundle, tiny_clients, tiny_fl_config,
                                                tiny_model_fn):
        sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                  create_strategy("heteroswitch"), tiny_fl_config)
        history = sim.run()
        # Counts are recorded per round and bounded by the number of selected clients.
        for record in history.rounds:
            assert 0 <= record.num_switch2 <= record.num_switch1 <= len(record.selected_clients)

    def test_isp_swad_always_switches(self, tiny_bundle, tiny_clients, tiny_fl_config,
                                      tiny_model_fn):
        sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                  create_strategy("isp_swad"), tiny_fl_config)
        history = sim.run()
        for record in history.rounds:
            assert record.num_switch1 == len(record.selected_clients)
            assert record.num_switch2 == len(record.selected_clients)
