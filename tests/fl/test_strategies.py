"""Tests for FL strategies: FedAvg aggregation, q-FedAvg, FedProx, SCAFFOLD."""

import numpy as np
import pytest

from repro.core.ema import EMALossTracker
from repro.data.dataset import ArrayDataset
from repro.data.partition import ClientSpec
from repro.fl.config import FLConfig
from repro.fl.strategies import (
    STRATEGY_REGISTRY,
    FedAvg,
    FedProx,
    FLContext,
    QFedAvg,
    Scaffold,
    create_strategy,
)
from repro.fl.training import ClientResult
from repro.nn.models import SimpleMLP
from repro.nn.serialization import StateLayout


def make_context(config=None, seed=0):
    config = config or FLConfig(num_clients=4, clients_per_round=2, num_rounds=1,
                                batch_size=4, learning_rate=0.1, seed=seed)
    return FLContext(config=config, ema=EMALossTracker())


def make_spec(client_id=0, device="S6", n=12, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 5))
    labels = (features[:, 0] > 0).astype(int)
    return ClientSpec(client_id=client_id, device=device, dataset=ArrayDataset(features, labels))


def make_result(value, num_samples=1, loss=1.0):
    """A client's update of the one-entry state ``{"w": [value]}``, packed."""
    return ClientResult(vector=np.array([float(value)]), num_samples=num_samples,
                        train_loss=loss, init_loss=loss)


def packed(model):
    """The model's weights as the round protocol broadcasts them."""
    state = model.state_dict()
    return StateLayout(state).pack(state)


def aggregate(strategy, global_state, results, context):
    """Fold ``results`` as one round's cohort through ``aggregate_stream``.

    The global state crosses packed by its layout, which the context
    carries; the new global vector comes back unpacked.  Each result gets
    the client id of its position, and its client a dataset of exactly
    ``num_samples`` rows, as ``consume_stream`` requires.
    """
    context.layout = StateLayout(global_state)
    specs = []
    for client_id, result in enumerate(results):
        result.client_id = client_id
        rows = result.num_samples
        specs.append(ClientSpec(client_id=client_id, device="S6",
                                dataset=ArrayDataset(np.zeros((rows, 1)),
                                                     np.zeros(rows, dtype=int))))
    new_vec, _ = strategy.aggregate_stream(context.layout.pack(global_state), specs,
                                           iter(results), context)
    return context.layout.unpack(new_vec)


class TestRegistry:
    def test_all_table4_methods_registered(self):
        for name in ("fedavg", "qfedavg", "fedprox", "scaffold",
                     "isp_transform", "isp_swad", "heteroswitch"):
            assert name in STRATEGY_REGISTRY

    def test_create_strategy(self):
        assert isinstance(create_strategy("fedavg"), FedAvg)
        assert isinstance(create_strategy("fedprox", mu=0.5), FedProx)

    def test_unknown_strategy(self):
        with pytest.raises(KeyError):
            create_strategy("fedsgd")

    def test_lazy_heteroswitch_import(self):
        from repro.core.heteroswitch import HeteroSwitch

        assert isinstance(create_strategy("heteroswitch"), HeteroSwitch)


class TestFedAvgAggregation:
    def test_equal_sample_average(self):
        strategy = FedAvg()
        results = [make_result(0.0, 5), make_result(2.0, 5)]
        out = aggregate(strategy, {"w": np.array([1.0])}, results, make_context())
        np.testing.assert_allclose(out["w"], [1.0])

    def test_sample_weighted_average(self):
        strategy = FedAvg()
        results = [make_result(0.0, 30), make_result(10.0, 10)]
        out = aggregate(strategy, {"w": np.array([0.0])}, results, make_context())
        np.testing.assert_allclose(out["w"], [2.5])

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            aggregate(FedAvg(), {"w": np.zeros(1)}, [], make_context())

    def test_on_round_end_updates_ema(self):
        context = make_context()
        FedAvg().on_round_end(context, [make_result(0.0, loss=2.0), make_result(0.0, loss=4.0)])
        assert context.ema.value == pytest.approx(3.0)

    def test_client_update_trains(self):
        strategy = FedAvg()
        context = make_context()
        model = SimpleMLP(5, 2, hidden=8, seed=0)
        spec = make_spec()
        global_vec = packed(model)
        result = strategy.client_update(model, spec, global_vec, context)
        assert result.metadata["device"] == "S6"
        assert not np.allclose(result.vector, global_vec)


class TestQFedAvg:
    def test_q_zero_behaves_like_scaled_fedavg_direction(self):
        """With q=0 all clients get equal weight; the update moves toward the client mean."""
        strategy = QFedAvg(q=0.0)
        global_state = {"w": np.array([0.0])}
        results = [make_result(1.0, loss=1.0), make_result(3.0, loss=1.0)]
        out = aggregate(strategy, global_state, results, make_context())
        # Update direction is toward the average of client weights (positive).
        assert out["w"][0] > 0.0

    def test_higher_loss_client_weighted_more(self):
        strategy = QFedAvg(q=2.0)
        global_state = {"w": np.array([0.0])}
        low_loss = ClientResult(vector=np.array([1.0]), num_samples=1,
                                train_loss=0.1, init_loss=0.1)
        high_loss = ClientResult(vector=np.array([-1.0]), num_samples=1,
                                 train_loss=5.0, init_loss=5.0)
        out = aggregate(strategy, global_state, [low_loss, high_loss], make_context())
        # The high-loss client (pushing negative) should dominate the update.
        assert out["w"][0] < 0.0

    def test_negative_q_rejected(self):
        with pytest.raises(ValueError):
            QFedAvg(q=-1.0)

    def test_aggregation_finite(self):
        strategy = QFedAvg(q=1e-6)
        global_state = {"w": np.array([0.5, -0.5])}
        results = [ClientResult(vector=np.array([0.3, -0.2]), num_samples=4,
                                train_loss=1.2, init_loss=1.5),
                   ClientResult(vector=np.array([0.6, -0.9]), num_samples=4,
                                train_loss=0.8, init_loss=0.9)]
        out = aggregate(strategy, global_state, results, make_context())
        assert np.isfinite(out["w"]).all()

    def test_client_update_same_as_fedavg(self):
        """q-FedAvg differs only at aggregation; its client update is FedAvg's."""
        model = SimpleMLP(5, 2, hidden=8, seed=0)
        spec = make_spec()
        global_vec = packed(model)
        fed = FedAvg().client_update(model, spec, global_vec, make_context())
        qfed = QFedAvg().client_update(model, spec, global_vec, make_context())
        np.testing.assert_allclose(fed.vector, qfed.vector)


class TestFedProx:
    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            FedProx(mu=-0.5)

    def test_large_mu_limits_drift(self):
        model = SimpleMLP(5, 2, hidden=8, seed=0)
        spec = make_spec(n=20)
        global_vec = packed(model)
        # Keep lr * mu well below 1 so the proximal update stays contractive.
        config = FLConfig(num_clients=4, clients_per_round=2, num_rounds=1,
                          batch_size=5, learning_rate=0.1, local_epochs=5, seed=0)
        free = FedProx(mu=0.0).client_update(model, spec, global_vec, make_context(config))
        constrained = FedProx(mu=2.0).client_update(model, spec, global_vec, make_context(config))
        drift_free = np.linalg.norm(free.vector - global_vec)
        drift_constrained = np.linalg.norm(constrained.vector - global_vec)
        assert drift_constrained < drift_free

    def test_mu_zero_matches_fedavg(self):
        model = SimpleMLP(5, 2, hidden=8, seed=0)
        spec = make_spec()
        global_vec = packed(model)
        fed = FedAvg().client_update(model, spec, global_vec, make_context())
        prox = FedProx(mu=0.0).client_update(model, spec, global_vec, make_context())
        np.testing.assert_allclose(fed.vector, prox.vector, atol=1e-10)


class TestScaffold:
    def test_client_update_leaves_context_untouched(self):
        """Client steps are context-read-only so they can run in any worker."""
        strategy = Scaffold()
        context = make_context()
        model = SimpleMLP(5, 2, hidden=8, seed=0)
        spec = make_spec()
        strategy.client_update(model, spec, packed(model), context)
        assert context.server_storage == {}
        assert context.client_storage == {}

    def test_aggregate_stream_commits_client_control_variate(self):
        strategy = Scaffold()
        context = make_context()
        model = SimpleMLP(5, 2, hidden=8, seed=0)
        global_vec = packed(model)
        spec = make_spec()
        result = strategy.client_update(model, spec, global_vec, context)
        result.client_id = spec.client_id
        shipped = result.metadata["new_c_i"]
        _, consumed = strategy.aggregate_stream(global_vec, [spec], iter([result]),
                                                context)
        c_i = context.client_storage[spec.client_id]["c_i"]
        assert c_i is shipped
        assert any(np.abs(value).max() > 0 for value in c_i.values())
        # Both control-variate payloads leave the metadata once folded.
        assert "c_delta" not in consumed[0].metadata
        assert "new_c_i" not in consumed[0].metadata

    def test_aggregate_creates_and_updates_server_control(self):
        strategy = Scaffold()
        context = make_context()
        model = SimpleMLP(5, 2, hidden=8, seed=0)
        global_vec = packed(model)
        specs = [make_spec(i, seed=i) for i in range(2)]
        results = [strategy.client_update(model, spec, global_vec, context)
                   for spec in specs]
        for spec, result in zip(specs, results):
            result.client_id = spec.client_id
        assert "scaffold_c" not in context.server_storage
        strategy.aggregate_stream(global_vec, specs, iter(results), context)
        after = context.server_storage["scaffold_c"]
        assert any(np.abs(value).max() > 0 for value in after.values())

    def test_c_delta_and_new_c_i_in_metadata(self):
        strategy = Scaffold()
        context = make_context()
        model = SimpleMLP(5, 2, hidden=8, seed=0)
        result = strategy.client_update(model, make_spec(), packed(model), context)
        assert "c_delta" in result.metadata
        assert "new_c_i" in result.metadata
