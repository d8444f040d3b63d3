"""Oracle suite for the training engine.

``repro`` trains on one engine: fused single-node kernels, matmul-lowered
convolutions, and whole-vector optimizer and aggregation steps over flat
arenas.  The seed compositions it replaced live on as a test-only oracle
(``tests/oracle/seed_engine.py``).  On the tiny MLP fixture, final weights,
per-round metrics and run fingerprints are **bitwise-identical** to the
oracle for every sync strategy, on every execution backend, and across a
checkpoint/resume round trip.

The MLP fixture has no batch norm.  At the Table 4 shapes (MobileNetV3-small,
24 px, batch 10) the gradients differ by a few ulp for two documented
reasons: batch norm's textbook backward reassociates the composed graph's
gradient, and one 1x1 conv weight gradient gets value-equal operands in
different memory layouts, which round differently.  :class:`TestTable4Step`
pins that bound; ``tests/nn/test_functional.py`` pins batch norm's backward
alone at every Table 4 batch-norm input.
"""

import dataclasses
import multiprocessing
import os
import sys

import numpy as np
import pytest
from oracle import seed_engine
from oracle.states import states_equal

from repro.fl.config import FLConfig
from repro.fl.execution import create_executor
from repro.fl.simulation import FederatedSimulation
from repro.fl.strategies import FLContext, create_strategy
from repro.nn import functional as F
from repro.nn.flat import FlatParams
from repro.nn.optim import SGD
from repro.nn.serialization import StateLayout, state_fingerprint
from repro.store.checkpoint import read_checkpoint, write_checkpoint

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
HAS_SHM = HAS_FORK and sys.platform != "darwin" and os.path.isdir("/dev/shm")

BACKENDS = [
    pytest.param("serial", id="serial"),
    pytest.param("shm", id="shm",
                 marks=pytest.mark.skipif(not HAS_SHM, reason="needs Linux fork + /dev/shm")),
]

ALL_STRATEGIES = ["fedavg", "fedprox", "qfedavg", "scaffold", "heteroswitch"]


def run_simulation(strategy_name, bundle, clients, config, model_fn,
                   executor="serial", max_workers=None):
    backend = create_executor(executor, max_workers=max_workers)
    with backend:
        sim = FederatedSimulation(model_fn, clients, bundle.test,
                                  create_strategy(strategy_name), config,
                                  executor=backend)
        history = sim.run()
    return history, sim.global_state


def oracle_run(strategy_name, bundle, clients, config, model_fn):
    with seed_engine.engine("reference"):
        return run_simulation(strategy_name, bundle, clients, config, model_fn)


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


# Oracle serial baselines, one per (strategy, config) at module scope.
_BASELINE = {}


def reference_baseline(strategy_name, bundle, clients, config, model_fn):
    key = (strategy_name, config)
    if key not in _BASELINE:
        _BASELINE[key] = oracle_run(strategy_name, bundle, clients, config, model_fn)
    return _BASELINE[key]


class TestFlatMatchesReference:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("strategy_name", ALL_STRATEGIES)
    def test_engine_equivalence(self, strategy_name, backend, tiny_bundle,
                                tiny_clients, tiny_fl_config, tiny_model_fn):
        reference = reference_baseline(strategy_name, tiny_bundle, tiny_clients,
                                       tiny_fl_config, tiny_model_fn)
        candidate = run_simulation(
            strategy_name, tiny_bundle, tiny_clients, tiny_fl_config, tiny_model_fn,
            executor=backend, max_workers=2 if backend != "serial" else None)
        assert_run_identical(reference, candidate)

    @pytest.mark.parametrize("strategy_name", ["fedavg", "fedprox"])
    def test_engine_equivalence_with_momentum_and_decay(
            self, strategy_name, tiny_bundle, tiny_clients, tiny_fl_config,
            tiny_model_fn):
        """Momentum + weight decay exercise the fused velocity/decay terms."""
        config = dataclasses.replace(tiny_fl_config, momentum=0.9, weight_decay=1e-4)
        reference = oracle_run(strategy_name, tiny_bundle, tiny_clients, config,
                               tiny_model_fn)
        candidate = run_simulation(strategy_name, tiny_bundle, tiny_clients, config,
                                   tiny_model_fn)
        assert_run_identical(reference, candidate)

    def test_unknown_engine_rejected(self):
        """FLConfig has no engine knob left to set."""
        with pytest.raises(TypeError, match="train_engine"):
            FLConfig(num_clients=2, clients_per_round=1, train_engine="warp")


class TestCheckpointResumeThroughFlat:
    @pytest.mark.parametrize("strategy_name", ALL_STRATEGIES)
    def test_resume_matches_uninterrupted_reference(
            self, strategy_name, tiny_bundle, tiny_clients, tiny_fl_config,
            tiny_model_fn, tmp_path):
        """Run -> snapshot at round 2 -> npz round trip -> resume == the
        *oracle's* uninterrupted run, bit for bit."""
        config = dataclasses.replace(tiny_fl_config, num_rounds=4)
        ref_history, ref_state = oracle_run(strategy_name, tiny_bundle, tiny_clients,
                                            config, tiny_model_fn)

        first = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                    create_strategy(strategy_name), config)
        first.run(num_rounds=2)
        path = tmp_path / f"{strategy_name}.ckpt.npz"
        write_checkpoint(path, first.snapshot())
        restored, _meta = read_checkpoint(path)

        second = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                     create_strategy(strategy_name), config)
        second.restore(restored)
        history = second.run()
        assert [r.mean_train_loss for r in history.rounds] == \
            [r.mean_train_loss for r in ref_history.rounds]
        assert history.per_device_metric == ref_history.per_device_metric
        assert states_equal(second.global_state, ref_state)

    def test_cross_engine_resume(self, tiny_bundle, tiny_clients, tiny_fl_config,
                                 tiny_model_fn):
        """An oracle snapshot resumes on the flat engine (and vice versa)
        with identical outcomes: the dict state boundary is engine-neutral."""
        config = dataclasses.replace(tiny_fl_config, num_rounds=4)
        outcomes = {}
        for first_engine, second_engine in (("reference", "flat"), ("flat", "reference")):
            with seed_engine.engine(first_engine):
                first = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                            create_strategy("scaffold"), config)
                first.run(num_rounds=2)
                snapshot = first.snapshot()
            with seed_engine.engine(second_engine):
                second = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                             create_strategy("scaffold"), config)
                second.restore(snapshot)
                second.run()
            outcomes[(first_engine, second_engine)] = second.global_state
        assert states_equal(outcomes[("reference", "flat")],
                            outcomes[("flat", "reference")])


class TestFlatAggregationPrimitives:
    def test_streaming_average_flat_matches_reference(self):
        from repro.nn.serialization import StreamingAverager

        rng = np.random.default_rng(0)
        states = [{"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4)}
                  for _ in range(5)]
        weights = [3, 1, 4, 1, 5]
        layout = StateLayout(states[0])
        averages = {}
        for mode in seed_engine.ENGINES:
            with seed_engine.engine(mode):
                averager = StreamingAverager(len(states), weights)
                for state in states:
                    averager.add(layout.pack(state))
                averages[mode] = averager.finalize()
        assert averages["reference"].tobytes() == averages["flat"].tobytes()

    def test_qfedavg_aggregate_flat_matches_reference(self, tiny_fl_config):
        from repro.core.ema import EMALossTracker
        from repro.data.dataset import ArrayDataset
        from repro.data.partition import ClientSpec
        from repro.fl.training import ClientResult

        rng = np.random.default_rng(1)
        template = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)}
        layout = StateLayout(template)
        results = [
            ClientResult(
                vector=layout.pack({key: value + rng.normal(scale=0.1, size=value.shape)
                                    for key, value in template.items()}),
                num_samples=int(rng.integers(5, 20)),
                train_loss=float(rng.uniform(0.5, 2.0)),
                init_loss=float(rng.uniform(0.5, 2.0)),
                client_id=index,
            )
            for index in range(4)
        ]
        specs = [ClientSpec(client_id=result.client_id, device="S6",
                            dataset=ArrayDataset(np.zeros((result.num_samples, 1)),
                                                 np.zeros(result.num_samples, dtype=int)))
                 for result in results]
        strategy = create_strategy("qfedavg")
        outputs = {}
        for mode in seed_engine.ENGINES:
            context = FLContext(config=tiny_fl_config,
                                ema=EMALossTracker(alpha=0.9), layout=layout)
            with seed_engine.engine(mode):
                outputs[mode], _ = strategy.aggregate_stream(
                    layout.pack(template),
                    specs, iter(dataclasses.replace(result) for result in results),
                    context)
        assert outputs["reference"].tobytes() == outputs["flat"].tobytes()

    def test_weight_averager_flat_matches_reference(self):
        from repro.core.swad import WeightAverager

        rng = np.random.default_rng(2)
        snapshots = [{"w": rng.normal(size=(3, 3)), "b": rng.normal(size=2)}
                     for _ in range(7)]
        averages = {}
        for mode in seed_engine.ENGINES:
            with seed_engine.engine(mode):
                averager = WeightAverager()
                for snapshot in snapshots:
                    averager.update({key: value.copy()
                                     for key, value in snapshot.items()})
                averages[mode] = averager.average()
        assert averages["reference"].tobytes() == averages["flat"].tobytes()

    def test_weight_averager_arena_fast_path_matches_dict_path(self):
        """``update_from_model`` (the arena) folds what ``update(state_dict())`` folds."""
        from repro.core.swad import WeightAverager
        from repro.nn.models import SimpleMLP

        model = SimpleMLP(4, 2, hidden=3, seed=0)
        rng = np.random.default_rng(3)
        dict_avg, arena_avg = WeightAverager(), WeightAverager()
        for _ in range(5):
            for param in model.parameters():
                param.data += rng.normal(scale=0.1, size=param.data.shape)
            dict_avg.update(model.state_dict())
            arena_avg.update_from_model(model)
        assert dict_avg.average().tobytes() == arena_avg.average().tobytes()


class TestTable4Step:
    """One SGD step of the Table 4 model at the default scale's shapes.

    The forward pass and the loss are bitwise equal to the oracle.  The
    gradients differ for two reasons:

    * the weight gradient of a 1x1 expand conv is the contraction
      ``nop,nfp->of`` over value-equal operands laid out differently: the
      oracle's fancy-index gather leaves the columns batch-fastest, while
      ``np.take`` leaves them C-contiguous, and BLAS sums the two layouts in
      a different order;
    * batch norm's backward is the textbook form (two reductions and one
      fused input gradient), a reassociation of the oracle's composed
      graph, so every gradient upstream of a batch norm differs by a few ulp.

    Measured on x86-64 OpenBLAS: the worst element is 1.08e-15, on the stem
    conv's weight gradient (magnitude 0.26); the weights after the step
    differ by at most 2.2e-16.  The bound below is 4e-15.
    """

    ATOL = 4e-15

    @staticmethod
    def _step(engine):
        from repro.eval.factories import make_model_factory
        from repro.eval.scale import get_scale
        from repro.nn.tensor import Tensor

        rng = np.random.default_rng(0)
        features = rng.uniform(0.0, 1.0, size=(10, 3, 24, 24))
        labels = rng.integers(0, 8, size=10)
        factory = make_model_factory(get_scale("default"), 8, 24)
        with seed_engine.engine(engine):
            model = factory()
            optimizer = SGD(FlatParams.from_module(model), lr=0.1, momentum=0.9, weight_decay=1e-4)
            loss = F.cross_entropy(model(Tensor(features)), labels)
            optimizer.zero_grad()
            loss.backward()
            grads = {name: param.grad.copy() for name, param in model.named_parameters()}
            optimizer.step()
            return float(loss.data), grads, model.state_dict()

    def test_whole_step_within_measured_bound(self):
        flat_loss, flat_grads, flat_state = self._step("flat")
        seed_loss, seed_grads, seed_state = self._step("reference")
        assert flat_loss == seed_loss
        assert flat_grads.keys() == seed_grads.keys()
        for name, grad in seed_grads.items():
            np.testing.assert_allclose(flat_grads[name], grad, rtol=0, atol=self.ATOL,
                                       err_msg=name)
        assert flat_state.keys() == seed_state.keys()
        for name, value in seed_state.items():
            np.testing.assert_allclose(flat_state[name], value, rtol=0, atol=self.ATOL,
                                       err_msg=name)
