"""L_init is measured by the strategies that read it, and by no other.

The initial loss ``L_init`` costs a full no-grad forward over the client's
dataset.  HeteroSwitch's switch 1 (and its two always-on ablations, which
share its client update) and q-FedAvg's ``F_k`` read it; every other strategy
reports ``init_loss=None`` and must not pay for the forward.
"""

import numpy as np
import pytest

from repro.core.ema import EMALossTracker
from repro.data.dataset import ArrayDataset
from repro.data.partition import ClientSpec
from repro.fl import training
from repro.fl.config import FLConfig
from repro.fl.strategies import STRATEGY_REGISTRY, FLContext, create_strategy
from repro.nn.flat import FlatParams
from repro.nn.models import SimpleMLP

# evaluate_loss calls per client update.
EVALUATIONS = {
    "fedavg": 0,
    "fedprox": 0,
    "scaffold": 0,
    "fedasync": 0,
    "fedbuff": 0,
    "heteroswitch": 1,
    "isp_transform": 1,
    "isp_swad": 1,
    "qfedavg": 1,
}


def _model():
    # NCHW image batches so the ISP transform of the HeteroSwitch family applies.
    return SimpleMLP(3 * 4 * 4, 2, hidden=8, seed=0)


def _client_round():
    config = FLConfig(num_clients=2, clients_per_round=2, num_rounds=1,
                      batch_size=4, learning_rate=0.1, seed=0)
    context = FLContext(config=config, ema=EMALossTracker())
    context.ema.update(1.0)
    rng = np.random.default_rng(0)
    features = rng.random((8, 3, 4, 4))
    labels = (features.reshape(8, -1)[:, 0] > 0.5).astype(int)
    spec = ClientSpec(client_id=1, device="S6", dataset=ArrayDataset(features, labels))
    return spec, context


def test_every_registered_strategy_has_an_expectation():
    assert sorted(STRATEGY_REGISTRY) == sorted(EVALUATIONS)


@pytest.mark.parametrize("name", sorted(EVALUATIONS))
def test_evaluate_loss_calls_per_client_update(name, monkeypatch):
    spec, context = _client_round()
    model = _model()
    global_vec = FlatParams.from_module(model).pack()
    calls = []
    original = training.evaluate_loss

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # Looked up at call time, as perfbench's fl.evaluate_loss hook relies on.
    monkeypatch.setattr(training, "evaluate_loss", counting)
    result = create_strategy(name).client_update(model, spec, global_vec, context)
    assert len(calls) == EVALUATIONS[name]
    if EVALUATIONS[name]:
        expected = training.measure_init_loss(_model(), spec.dataset, context.config,
                                              global_vec)
        assert result.init_loss == expected
    else:
        assert result.init_loss is None
