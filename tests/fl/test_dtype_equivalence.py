"""Float32 equivalence suite: the opt-in fast precision path.

Guarantees under test (FLConfig.dtype="float32"):

* **Cross-executor bit-identity is dtype-independent** — a float32 run is
  bitwise identical across serial/thread/shm backends, exactly like
  the float64 golden path.
* **Tolerance equivalence to float64** — final weights and metrics of a
  float32 run match the float64 run of the same spec within
  ``states_allclose`` tolerances (single-precision rounding only, no
  accumulation drift: every aggregation primitive accumulates in float64).
* **Oracle agreement under float32** — the flat engine and the seed oracle
  (``tests/oracle/seed_engine.py``) agree on float32 runs to tolerance (they
  are pinned bitwise-equal per dtype for elementwise ops; reductions may
  associate differently).
* **Async path** — the event-driven simulation honours the dtype too.
"""

import dataclasses
import multiprocessing
import os
import sys

import numpy as np
import pytest
from oracle import seed_engine
from oracle.states import states_allclose, states_equal

from repro.fl.async_sim import AsyncFederatedSimulation, FedAsync
from repro.fl.config import FLConfig
from repro.fl.execution import create_executor
from repro.fl.simulation import FederatedSimulation
from repro.fl.strategies import create_strategy
from repro.nn.serialization import state_fingerprint

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
HAS_SHM = HAS_FORK and sys.platform != "darwin" and os.path.isdir("/dev/shm")

BACKENDS = [
    pytest.param("serial", id="serial"),
    pytest.param("thread", id="thread"),
    pytest.param("shm", id="shm",
                 marks=pytest.mark.skipif(not HAS_SHM,
                                          reason="shm executor needs Linux fork + /dev/shm")),
]

ALL_STRATEGIES = ["fedavg", "fedprox", "qfedavg", "scaffold", "heteroswitch"]

# Single-precision rounding budget for a 2-round run: ~1e-3 relative covers
# the float32 epsilon (1.2e-7) amplified through a few hundred fused
# multiply-adds; anything past that indicates a real dtype leak.
RTOL, ATOL = 1e-3, 1e-5


def run_simulation(strategy_name, bundle, clients, config, model_fn,
                   executor="serial", max_workers=None):
    backend = create_executor(executor, max_workers=max_workers)
    with backend:
        sim = FederatedSimulation(model_fn, clients, bundle.test,
                                  create_strategy(strategy_name), config,
                                  executor=backend)
        history = sim.run()
    return history, sim.global_state


# Serial baselines per (strategy, dtype) at module scope — every test
# compares against these, so each pair runs once.
_BASELINE = {}


def baseline(strategy_name, dtype, bundle, clients, config, model_fn):
    key = (strategy_name, dtype, config)
    if key not in _BASELINE:
        _BASELINE[key] = run_simulation(
            strategy_name, bundle, clients,
            dataclasses.replace(config, dtype=dtype), model_fn)
    return _BASELINE[key]


class TestFloat32CrossExecutor:
    @pytest.mark.parametrize("backend", BACKENDS[1:])
    @pytest.mark.parametrize("strategy_name", ALL_STRATEGIES)
    def test_bitwise_identical_across_executors(
            self, strategy_name, backend, tiny_bundle, tiny_clients,
            tiny_fl_config, tiny_model_fn):
        ref_history, ref_state = baseline(
            strategy_name, "float32", tiny_bundle, tiny_clients,
            tiny_fl_config, tiny_model_fn)
        history, state = run_simulation(
            strategy_name, tiny_bundle, tiny_clients,
            dataclasses.replace(tiny_fl_config, dtype="float32"),
            tiny_model_fn, executor=backend, max_workers=2)
        assert states_equal(ref_state, state)
        assert state_fingerprint(ref_state) == state_fingerprint(state)
        assert history.per_device_metric == ref_history.per_device_metric
        assert [r.mean_train_loss for r in history.rounds] == \
            [r.mean_train_loss for r in ref_history.rounds]

    @pytest.mark.parametrize("strategy_name", ALL_STRATEGIES)
    def test_final_weights_are_float32(self, strategy_name, tiny_bundle,
                                       tiny_clients, tiny_fl_config,
                                       tiny_model_fn):
        _history, state = baseline(
            strategy_name, "float32", tiny_bundle, tiny_clients,
            tiny_fl_config, tiny_model_fn)
        assert all(value.dtype == np.float32 for value in state.values())
        assert all(np.all(np.isfinite(value)) for value in state.values())


class TestFloat32MatchesFloat64:
    @pytest.mark.parametrize("strategy_name", ALL_STRATEGIES)
    def test_weights_within_tolerance(self, strategy_name, tiny_bundle,
                                      tiny_clients, tiny_fl_config,
                                      tiny_model_fn):
        _h64, state64 = baseline(strategy_name, "float64", tiny_bundle,
                                 tiny_clients, tiny_fl_config, tiny_model_fn)
        _h32, state32 = baseline(strategy_name, "float32", tiny_bundle,
                                 tiny_clients, tiny_fl_config, tiny_model_fn)
        assert states_allclose(state64, state32, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("strategy_name", ALL_STRATEGIES)
    def test_metrics_within_tolerance(self, strategy_name, tiny_bundle,
                                      tiny_clients, tiny_fl_config,
                                      tiny_model_fn):
        h64, _ = baseline(strategy_name, "float64", tiny_bundle,
                          tiny_clients, tiny_fl_config, tiny_model_fn)
        h32, _ = baseline(strategy_name, "float32", tiny_bundle,
                          tiny_clients, tiny_fl_config, tiny_model_fn)
        assert h32.per_device_metric.keys() == h64.per_device_metric.keys()
        for device, value in h64.per_device_metric.items():
            assert h32.per_device_metric[device] == pytest.approx(
                value, rel=1e-2, abs=1e-3)
        for r32, r64 in zip(h32.rounds, h64.rounds):
            assert r32.mean_train_loss == pytest.approx(
                r64.mean_train_loss, rel=1e-3)


class TestFloat32EngineEquivalence:
    @pytest.mark.parametrize("strategy_name", ALL_STRATEGIES)
    def test_flat_matches_reference_under_float32(
            self, strategy_name, tiny_bundle, tiny_clients, tiny_fl_config,
            tiny_model_fn):
        config32 = dataclasses.replace(tiny_fl_config, dtype="float32")
        with seed_engine.engine("reference"):
            _rh, ref_state = run_simulation(
                strategy_name, tiny_bundle, tiny_clients, config32, tiny_model_fn)
        _fh, flat_state = run_simulation(
            strategy_name, tiny_bundle, tiny_clients, config32, tiny_model_fn)
        assert all(value.dtype == np.float32 for value in ref_state.values())
        assert states_allclose(ref_state, flat_state, rtol=1e-4, atol=1e-6)


class TestAsyncFloat32:
    def _run(self, tiny_model_fn, tiny_clients, tiny_bundle, executor=None,
             dtype="float32"):
        config = FLConfig(num_clients=6, clients_per_round=3, num_rounds=4,
                          local_epochs=1, batch_size=4, learning_rate=0.02,
                          seed=0, dtype=dtype)
        sim = AsyncFederatedSimulation(
            tiny_model_fn, tiny_clients, tiny_bundle.test, FedAsync(),
            config, latency="mild", executor=executor)
        history = sim.run()
        return history, sim.global_state

    def test_async_runs_in_float32(self, tiny_bundle, tiny_clients,
                                   tiny_model_fn):
        history, state = self._run(tiny_model_fn, tiny_clients, tiny_bundle)
        assert len(history.commits) == 4
        assert all(value.dtype == np.float32 for value in state.values())
        assert all(np.all(np.isfinite(value)) for value in state.values())

    def test_async_float32_bitwise_across_executors(self, tiny_bundle,
                                                    tiny_clients,
                                                    tiny_model_fn):
        _sh, serial_state = self._run(tiny_model_fn, tiny_clients, tiny_bundle)
        with create_executor("thread", max_workers=2) as backend:
            _th, thread_state = self._run(tiny_model_fn, tiny_clients,
                                          tiny_bundle, executor=backend)
        assert states_equal(serial_state, thread_state)

    def test_async_float32_metrics_match_float64(self, tiny_bundle,
                                                 tiny_clients, tiny_model_fn):
        h64, state64 = self._run(tiny_model_fn, tiny_clients, tiny_bundle,
                                 dtype="float64")
        h32, state32 = self._run(tiny_model_fn, tiny_clients, tiny_bundle)
        assert states_allclose(state64, state32, rtol=RTOL, atol=ATOL)
        assert h32.per_device_metric.keys() == h64.per_device_metric.keys()
        for device, value in h64.per_device_metric.items():
            assert h32.per_device_metric[device] == pytest.approx(
                value, rel=1e-2, abs=1e-3)
