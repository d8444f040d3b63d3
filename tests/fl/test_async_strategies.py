"""Tests for the staleness-aware asynchronous strategies (FedAsync/FedBuff)."""

import numpy as np
import pytest

from repro.fl.async_sim.strategies import (
    AsyncCommit,
    AsyncStrategy,
    AsyncUpdate,
    FedAsync,
    FedBuff,
    polynomial_staleness,
)
from repro.core.ema import EMALossTracker
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation
from repro.fl.strategies import ASYNC_STRATEGY_NAMES, STRATEGY_REGISTRY, create_strategy
from repro.fl.strategies.base import FLContext
from repro.fl.training import ClientResult


def make_update(vec, dispatched, num_samples=10, client_id=0, loss=1.0):
    vec = np.asarray(vec, dtype=np.float64)
    dispatched = np.asarray(dispatched, dtype=np.float64)
    result = ClientResult(vector=vec, num_samples=num_samples, train_loss=loss,
                          init_loss=loss, client_id=client_id,
                          metadata={"device": "S6"})
    return AsyncUpdate(result=result, delta=vec - dispatched,
                       dispatch_version=0)


def make_context():
    config = FLConfig(num_clients=4, clients_per_round=2, num_rounds=2,
                      batch_size=2, seed=0)
    return FLContext(config=config, ema=EMALossTracker(alpha=config.ema_alpha))


class TestPolynomialStaleness:
    def test_fresh_update_undiscounted(self):
        assert polynomial_staleness(0, 0.5) == pytest.approx(1.0)

    def test_zero_exponent_disables_discount(self):
        assert polynomial_staleness(9, 0.0) == pytest.approx(1.0)

    def test_polynomial_decay(self):
        assert polynomial_staleness(3, 0.5) == pytest.approx((1 + 3) ** -0.5)
        assert polynomial_staleness(3, 2.0) < polynomial_staleness(3, 0.5)

    def test_negative_staleness_raises(self):
        with pytest.raises(ValueError):
            polynomial_staleness(-1, 0.5)


class TestFedAsync:
    def test_mix_math(self):
        strategy = FedAsync(alpha=0.5, staleness_exponent=1.0)
        global_vec = np.array([1.0, 1.0])
        update = make_update([3.0, 5.0], global_vec)
        commit = strategy.server_update(global_vec, update, staleness=1,
                                        context=make_context())
        # mix = 0.5 * (1 + 1)^-1 = 0.25
        assert np.allclose(commit.vector, 0.75 * global_vec + 0.25 * update.result.vector)

    def test_every_update_commits(self):
        strategy = FedAsync()
        commit = strategy.server_update(np.zeros(3), make_update(np.ones(3),
                                        np.zeros(3)), 0, make_context())
        assert isinstance(commit, AsyncCommit)
        assert len(commit.entries) == 1
        assert commit.staleness == [0]
        assert commit.entries[0]["device"] == "S6"

    def test_stale_updates_weigh_less(self):
        strategy = FedAsync(alpha=1.0, staleness_exponent=1.0)
        global_vec = np.zeros(2)
        update = make_update(np.ones(2), global_vec)
        fresh = strategy.server_update(global_vec, update, 0, make_context())
        stale = strategy.server_update(global_vec, update, 4, make_context())
        assert np.all(stale.vector < fresh.vector)

    def test_validation(self):
        with pytest.raises(ValueError):
            FedAsync(alpha=0.0)
        with pytest.raises(ValueError):
            FedAsync(alpha=1.5)
        with pytest.raises(ValueError):
            FedAsync(staleness_exponent=-1.0)


class TestFedBuff:
    def test_buffers_until_k_then_commits(self):
        strategy = FedBuff(buffer_size=3, staleness_exponent=0.0, server_lr=1.0)
        context = make_context()
        global_vec = np.zeros(2)
        updates = [make_update(np.full(2, float(i + 1)), global_vec,
                               num_samples=10, client_id=i) for i in range(3)]
        assert strategy.server_update(global_vec, updates[0], 0, context) is None
        assert strategy.server_update(global_vec, updates[1], 0, context) is None
        assert len(strategy.pending_entries(context)) == 2
        commit = strategy.server_update(global_vec, updates[2], 0, context)
        # Equal weights: merged delta is the plain average of [1, 2, 3].
        assert np.allclose(commit.vector, np.full(2, 2.0))
        assert [e["client_id"] for e in commit.entries] == [0, 1, 2]
        assert strategy.pending_entries(context) == []  # buffer cleared

    def test_staleness_discounts_buffer_weights(self):
        strategy = FedBuff(buffer_size=2, staleness_exponent=1.0, server_lr=1.0)
        context = make_context()
        global_vec = np.zeros(1)
        fresh = make_update(np.array([1.0]), global_vec, num_samples=10)
        stale = make_update(np.array([5.0]), global_vec, num_samples=10)
        strategy.server_update(global_vec, fresh, 0, context)
        commit = strategy.server_update(global_vec, stale, 3, context)
        # weights: 10*1 and 10*(1+3)^-1 = 2.5 -> (10*1 + 2.5*5)/12.5 = 1.8
        assert np.allclose(commit.vector, np.array([1.8]))
        assert commit.staleness == [0, 3]

    def test_server_lr_scales_the_step(self):
        context = make_context()
        global_vec = np.ones(2)
        update = make_update(np.full(2, 3.0), global_vec)
        half = FedBuff(buffer_size=1, server_lr=0.5).server_update(
            global_vec, update, 0, context)
        assert np.allclose(half.vector, np.full(2, 2.0))

    def test_pending_entries_carry_no_arrays(self):
        strategy = FedBuff(buffer_size=2)
        context = make_context()
        strategy.server_update(np.zeros(2), make_update(np.ones(2), np.zeros(2)),
                               0, context)
        (entry,) = strategy.pending_entries(context)
        assert "delta" not in entry
        assert entry["client_id"] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            FedBuff(buffer_size=0)
        with pytest.raises(ValueError):
            FedBuff(buffer_size=True)
        with pytest.raises(ValueError):
            FedBuff(server_lr=0.0)


class TestAsyncOnlyContract:
    def test_aggregate_raises(self):
        with pytest.raises(RuntimeError, match="asynchronous-only"):
            FedAsync().aggregate_stream({}, [], iter([]), make_context())
        with pytest.raises(RuntimeError, match="federated_async"):
            FedBuff().aggregate_stream({}, [], iter([]), make_context())

    def test_registry_names_and_flag(self):
        assert ASYNC_STRATEGY_NAMES == {"fedasync", "fedbuff"}
        for name in ASYNC_STRATEGY_NAMES:
            assert name in STRATEGY_REGISTRY
            strategy = create_strategy(name)
            assert isinstance(strategy, AsyncStrategy)
            assert strategy.requires_async

    def test_sync_simulation_rejects_async_strategy(
            self, tiny_bundle, tiny_clients, tiny_fl_config, tiny_model_fn):
        with pytest.raises(ValueError, match="AsyncFederatedSimulation"):
            FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                FedAsync(), tiny_fl_config)
