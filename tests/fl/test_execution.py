"""Cross-backend determinism tests for the client-execution engine.

The guarantees under test (see :mod:`repro.fl.execution`):

* a short FL run produces **bit-identical** history metrics and final global
  weights on the serial, thread, and shm backends, for any worker count;
* every aggregating strategy's ``aggregate_stream`` folds results only in
  selection order and refuses any other, so the order clients finish in
  cannot change the aggregated state;
* client randomness derives from ``(seed, round, client_id)`` — the exact
  stream the pre-executor serial loop used — never from a shared generator.
"""

import copy
import itertools
import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest
from oracle.states import states_equal

from repro.core.ema import EMALossTracker
from repro.data.dataset import ArrayDataset
from repro.data.partition import ClientSpec
from repro.fl.callbacks import Callback
from repro.fl.config import FLConfig
from repro.fl.execution import (
    EXECUTOR_REGISTRY,
    SerialExecutor,
    SharedMemoryExecutor,
    ThreadExecutor,
    client_rng,
    create_executor,
    derive_client_seed,
    run_client,
)
from repro.fl.faults import run_tolerant_round
from repro.fl.simulation import FederatedSimulation
from repro.fl.strategies import FLContext, create_strategy
from repro.fl.training import local_train
from repro.nn.models import SimpleMLP
from repro.nn.serialization import StateLayout

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

HAS_SHM = HAS_FORK and sys.platform != "darwin" and os.path.isdir("/dev/shm")

PARALLEL_BACKENDS = [
    pytest.param("thread", id="thread"),
    pytest.param("shm", id="shm",
                 marks=pytest.mark.skipif(not HAS_SHM, reason="needs Linux fork + /dev/shm")),
]

AGGREGATING_STRATEGIES = ["fedavg", "fedprox", "qfedavg", "scaffold"]
ALL_STRATEGIES = AGGREGATING_STRATEGIES + ["heteroswitch"]


def run_simulation(strategy_name, bundle, clients, config, model_fn,
                   executor="serial", max_workers=None, callbacks=()):
    """One tiny FL run; returns (history, final global weights)."""
    backend = create_executor(executor, max_workers=max_workers)
    with backend:
        sim = FederatedSimulation(model_fn, clients, bundle.test,
                                  create_strategy(strategy_name), config,
                                  callbacks=list(callbacks), executor=backend)
        history = sim.run()
    return history, sim.global_state


def assert_bit_identical(reference, candidate):
    """Histories and final weights match exactly (floats compared with ==)."""
    ref_history, ref_state = reference
    cand_history, cand_state = candidate
    assert [r.selected_clients for r in cand_history.rounds] == \
        [r.selected_clients for r in ref_history.rounds]
    assert [r.mean_train_loss for r in cand_history.rounds] == \
        [r.mean_train_loss for r in ref_history.rounds]
    assert [r.ema_loss for r in cand_history.rounds] == \
        [r.ema_loss for r in ref_history.rounds]
    assert cand_history.per_device_metric == ref_history.per_device_metric
    assert states_equal(ref_state, cand_state)


# Serial baselines are deterministic; compute each experiment's once per module.
_SERIAL_BASELINE = {}


def serial_baseline(strategy_name, bundle, clients, config, model_fn):
    # Key on the full experiment identity (fixtures are session/function-scoped
    # but deterministic; the frozen config hashes) so a future caller with a
    # different setup cannot be handed another experiment's baseline.
    key = (strategy_name, config, id(bundle), len(clients))
    if key not in _SERIAL_BASELINE:
        _SERIAL_BASELINE[key] = run_simulation(
            strategy_name, bundle, clients, config, model_fn)
    return _SERIAL_BASELINE[key]


class TestCrossBackendEquivalence:
    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    @pytest.mark.parametrize("strategy_name", ALL_STRATEGIES)
    def test_backend_matches_serial(self, strategy_name, backend, tiny_bundle,
                                    tiny_clients, tiny_fl_config, tiny_model_fn):
        reference = serial_baseline(strategy_name, tiny_bundle, tiny_clients,
                                    tiny_fl_config, tiny_model_fn)
        candidate = run_simulation(strategy_name, tiny_bundle, tiny_clients,
                                   tiny_fl_config, tiny_model_fn, executor=backend)
        assert_bit_identical(reference, candidate)

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_count_irrelevant(self, backend, workers, tiny_bundle,
                                     tiny_clients, tiny_fl_config, tiny_model_fn):
        reference = serial_baseline("fedavg", tiny_bundle, tiny_clients,
                                    tiny_fl_config, tiny_model_fn)
        candidate = run_simulation("fedavg", tiny_bundle, tiny_clients,
                                   tiny_fl_config, tiny_model_fn,
                                   executor=backend, max_workers=workers)
        assert_bit_identical(reference, candidate)

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_executor_reusable_after_close(self, backend, tiny_bundle, tiny_clients,
                                           tiny_fl_config, tiny_model_fn):
        """close() releases pools but the executor lazily re-creates them."""
        threads_before = threading.active_count()
        executor = create_executor(backend, max_workers=2)
        first = run_simulation("fedavg", tiny_bundle, tiny_clients,
                               tiny_fl_config, tiny_model_fn)
        sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                  create_strategy("fedavg"), tiny_fl_config,
                                  executor=executor)
        history_a = sim.run()
        executor.close()
        sim_b = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                    create_strategy("fedavg"), tiny_fl_config,
                                    executor=executor)
        history_b = sim_b.run()
        executor.close()
        assert threading.active_count() == threads_before
        assert_bit_identical(first, (history_a, sim.global_state))
        assert_bit_identical(first, (history_b, sim_b.global_state))


class TestExecutorRegistry:
    def test_backends_registered(self):
        assert set(EXECUTOR_REGISTRY) == {"serial", "thread", "shm"}

    def test_create_executor_types(self):
        assert isinstance(create_executor("serial"), SerialExecutor)
        assert isinstance(create_executor("thread", max_workers=2), ThreadExecutor)
        assert isinstance(create_executor("shm"), SharedMemoryExecutor)

    def test_unknown_backend_lists_available(self):
        with pytest.raises(KeyError, match="serial"):
            create_executor("gpu")

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "four"])
    def test_invalid_max_workers_rejected(self, bad):
        with pytest.raises(ValueError):
            create_executor("thread", max_workers=bad)


class TestScratchModelCache:
    def test_rebuilt_only_when_factory_or_dtype_changes(self):
        from types import SimpleNamespace

        from repro.fl.execution import _scratch_model

        holder, calls = SimpleNamespace(), []

        def factory():
            calls.append(1)
            return _round_model()

        model = _scratch_model(holder, factory, "float64")
        assert _scratch_model(holder, factory, "float64") is model
        model32 = _scratch_model(holder, factory, "float32")
        assert model32 is not model
        assert model32.parameters()[0].data.dtype == np.float32
        assert _scratch_model(holder, _round_model, "float32") is not model32
        assert len(calls) == 2


def _round_model():
    # NCHW image batches so HeteroSwitch's ISP transform applies unchanged.
    return SimpleMLP(3 * 4 * 4, 2, hidden=8, seed=0)


def packed(state):
    """``state`` as the packed vector the round protocol carries."""
    return StateLayout(state).pack(state)


def make_round_specs(num_clients=3, seed=0):
    """One synthetic round's selection plus a fresh server context."""
    config = FLConfig(num_clients=num_clients, clients_per_round=num_clients,
                      num_rounds=1, batch_size=4, learning_rate=0.1, seed=seed)
    context = FLContext(config=config, ema=EMALossTracker(),
                        layout=StateLayout(_round_model().state_dict()))
    context.ema.update(1.0)
    rng = np.random.default_rng(seed)
    specs = []
    for client_id in range(num_clients):
        features = np.clip(rng.random((8, 3, 4, 4)), 0, 1)
        labels = (features.reshape(8, -1)[:, 0] > 0.5).astype(int)
        specs.append(ClientSpec(client_id=client_id, device="S6",
                                dataset=ArrayDataset(features, labels)))
    return specs, context


def make_round_results(strategy_name, num_clients=3, seed=0):
    """Real client updates for one synthetic round, plus the server context."""
    specs, context = make_round_specs(num_clients, seed)
    model = _round_model()
    global_vec = packed(model.state_dict())
    strategy = create_strategy(strategy_name)
    results = [run_client(strategy, model, spec, global_vec, context)
               for spec in specs]
    return strategy, global_vec, specs, results, context


class _ReverseCompletionStrategy:
    """Wraps a strategy so a round's clients finish in reverse selection order.

    Client ``i`` starts training only once client ``i + 1`` has finished, so
    with one thread per client the last selected client completes first.
    """

    def __init__(self, inner, num_clients):
        self._inner = inner
        self._finished = [threading.Event() for _ in range(num_clients)]
        self.completion_order = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def client_update(self, model, spec, global_vec, context):
        position = spec.client_id
        if position + 1 < len(self._finished):
            assert self._finished[position + 1].wait(timeout=30)
        result = self._inner.client_update(model, spec, global_vec, context)
        self.completion_order.append(spec.client_id)
        self._finished[position].set()
        return result


class TestPermutationInvariance:
    """A round's server result cannot depend on the order clients finish in.

    Executors yield results in selection order, and every strategy's
    ``aggregate_stream`` refuses any other order instead of reducing it.
    """

    @pytest.mark.parametrize("strategy_name", AGGREGATING_STRATEGIES)
    def test_aggregate_is_permutation_invariant(self, strategy_name):
        """Only the selection order folds; every other order is refused."""
        strategy, global_vec, specs, results, context = \
            make_round_results(strategy_name)
        for order in itertools.permutations(range(len(results))):
            stream = iter(copy.deepcopy([results[i] for i in order]))
            if list(order) == sorted(order):
                strategy.aggregate_stream(global_vec, specs, stream,
                                          copy.deepcopy(context))
            else:
                with pytest.raises(RuntimeError, match="out of order"):
                    strategy.aggregate_stream(global_vec, specs, stream,
                                              copy.deepcopy(context))

    @pytest.mark.parametrize("strategy_name", AGGREGATING_STRATEGIES)
    def test_on_round_end_is_permutation_invariant(self, strategy_name):
        """Clients finishing in reverse order leave the same global state and
        EMA as the serial round, because the thread executor re-orders them."""
        specs, _ = make_round_specs()
        global_vec = packed(_round_model().state_dict())
        reverse = _ReverseCompletionStrategy(create_strategy(strategy_name),
                                             len(specs))
        outcomes = []
        for backend, strategy in (("serial", create_strategy(strategy_name)),
                                  ("thread", reverse)):
            _, context = make_round_specs()
            with create_executor(backend, max_workers=len(specs)) as executor:
                _, stream, _ = run_tolerant_round(
                    executor, strategy, _round_model, specs, global_vec,
                    context)
                new_vec, results = strategy.aggregate_stream(
                    global_vec, specs, stream, context)
            strategy.on_round_end(context, results)
            outcomes.append((new_vec, context.ema.value))
        assert reverse.completion_order == [2, 1, 0]
        assert outcomes[0][0].tobytes() == outcomes[1][0].tobytes()
        assert outcomes[0][1] == outcomes[1][1]

    @pytest.mark.parametrize("strategy_name", AGGREGATING_STRATEGIES)
    def test_aggregate_stream_refuses_short_or_mismatched_stream(self, strategy_name):
        """Every strategy, not only bare ``consume_stream``, refuses a short
        stream and a sample-count mismatch (out-of-order streams: above)."""
        strategy, global_vec, specs, results, context = \
            make_round_results(strategy_name)

        def fold(stream):
            return strategy.aggregate_stream(global_vec, specs, iter(stream),
                                             copy.deepcopy(context))

        with pytest.raises(RuntimeError, match="ended early"):
            fold(copy.deepcopy(results[:2]))
        mismatched = copy.deepcopy(results)
        mismatched[1].num_samples += 1
        with pytest.raises(RuntimeError, match="num_samples"):
            fold(mismatched)


class _FailFastStrategy:
    """FedAvg whose designated client raises; the rest sleep then record."""

    def __init__(self, fail_client, delay=0.05):
        self._inner = create_strategy("fedavg")
        self.fail_client = fail_client
        self.delay = delay
        self.trained = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def client_update(self, model, spec, global_vec, context):
        import time

        if spec.client_id == self.fail_client:
            raise RuntimeError("boom: synthetic client failure")
        time.sleep(self.delay)
        self.trained.append(spec.client_id)
        return self._inner.client_update(model, spec, global_vec, context)


def fail_fast_round(executor, strategy, model_fn, specs, global_vec, context):
    """A round without a fault policy: results, or the first failure raised."""
    _, results, _ = run_tolerant_round(executor, strategy, model_fn, specs,
                                       global_vec, context)
    return list(results)


class TestRoundFailFast:
    """A failing client must abort the round instead of training the rest."""

    def _make_round(self, num_clients=8):
        rng = np.random.default_rng(0)
        specs = []
        for client_id in range(num_clients):
            features = np.clip(rng.random((4, 3, 4, 4)), 0, 1)
            labels = (features.reshape(4, -1)[:, 0] > 0.5).astype(int)
            specs.append(ClientSpec(client_id=client_id, device="S6",
                                    dataset=ArrayDataset(features, labels)))
        config = FLConfig(num_clients=num_clients, clients_per_round=num_clients,
                          num_rounds=1, batch_size=4, learning_rate=0.05, seed=0)
        context = FLContext(config=config, ema=EMALossTracker())

        def model_fn():
            return SimpleMLP(3 * 4 * 4, 2, hidden=8, seed=0)

        return specs, model_fn, context

    def test_thread_cancels_pending_on_failure(self):
        """With one worker and the first client failing, the cancellation must
        keep (nearly) all later clients from ever starting — before the fix,
        every one of them trained to completion and was then discarded."""
        specs, model_fn, context = self._make_round()
        strategy = _FailFastStrategy(fail_client=specs[0].client_id)
        global_vec = packed(model_fn().state_dict())
        with create_executor("thread", max_workers=1) as executor:
            with pytest.raises(RuntimeError, match="boom"):
                fail_fast_round(executor, strategy, model_fn, specs,
                                global_vec, context)
            # At most the one job the worker raced into before cancel landed.
            assert len(strategy.trained) <= 1
            # The pool drained cleanly and stays usable.
            results = fail_fast_round(executor, create_strategy("fedavg"),
                                      model_fn, specs, global_vec, context)
            assert [r.client_id for r in results] == [s.client_id for s in specs]

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_failure_propagates_and_pool_reusable(self, backend):
        specs, model_fn, context = self._make_round(num_clients=4)
        strategy = _FailFastStrategy(fail_client=specs[1].client_id, delay=0.0)
        global_vec = packed(model_fn().state_dict())
        with create_executor(backend, max_workers=2) as executor:
            with pytest.raises(RuntimeError, match="boom"):
                fail_fast_round(executor, strategy, model_fn, specs,
                                global_vec, context)
            results = fail_fast_round(executor, create_strategy("fedavg"),
                                      model_fn, specs, global_vec, context)
            assert [r.client_id for r in results] == [s.client_id for s in specs]


class _EntropyConsumer(Callback):
    """Simulates a rogue co-tenant drawing randomness between client updates."""

    def on_round_start(self, sim, round_index):
        np.random.rand(5)
        sim.context.client_rng(0).normal(size=3)
        client_rng(sim.config.seed, round_index, 99).random(4)


class TestDerivedClientStreams:
    def test_seed_formula_frozen(self):
        """Regression: the stream derivation is the pre-refactor inline formula.

        These constants pin every historical benchmark number; a serial run's
        metrics are unchanged by the executor refactor because each client
        still trains with exactly this seed.
        """
        for seed, round_index, client_id in [(0, 0, 0), (3, 7, 11), (2, 19, 5)]:
            assert derive_client_seed(seed, round_index, client_id) == \
                seed * 100_003 + round_index * 1_009 + client_id

    def test_context_has_no_shared_rng(self):
        config = FLConfig(num_clients=2, clients_per_round=1, num_rounds=1)
        context = FLContext(config=config, ema=EMALossTracker())
        assert not hasattr(context, "rng")

    def test_client_rng_is_fresh_per_call(self):
        config = FLConfig(num_clients=2, clients_per_round=1, num_rounds=1, seed=5)
        context = FLContext(config=config, ema=EMALossTracker(), round_index=3)
        first = context.client_rng(1).random(4)
        second = context.client_rng(1).random(4)
        np.testing.assert_array_equal(first, second)

    def test_metrics_immune_to_external_rng_consumption(self, tiny_bundle, tiny_clients,
                                                        tiny_fl_config, tiny_model_fn):
        """Serial-run regression: results cannot depend on shared RNG traffic."""
        clean = run_simulation("heteroswitch", tiny_bundle, tiny_clients,
                               tiny_fl_config, tiny_model_fn)
        noisy = run_simulation("heteroswitch", tiny_bundle, tiny_clients,
                               tiny_fl_config, tiny_model_fn,
                               callbacks=[_EntropyConsumer()])
        assert_bit_identical(clean, noisy)

    def test_executor_reproduces_legacy_client_computation(self, tiny_bundle, tiny_clients,
                                                           tiny_fl_config, tiny_model_fn):
        """Serial-run regression: the executor path yields bit for bit the
        legacy per-client computation — plain ``local_train`` seeded with the
        historical ``(seed, round, client_id)`` formula."""
        sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                  create_strategy("fedavg"), tiny_fl_config)
        global_before = packed(sim.global_state)
        sim.context.round_index = 0
        selected = sim.select_clients(0)
        results = list(sim.executor.iter_round(
            sim.strategy, tiny_model_fn, [(spec, 0) for spec in selected],
            global_before, sim.context))
        for spec, result in zip(selected, results):
            seed = derive_client_seed(tiny_fl_config.seed, 0, spec.client_id)
            expected = local_train(tiny_model_fn(), spec.dataset, tiny_fl_config,
                                   global_before, seed=seed)
            assert result.client_id == spec.client_id
            assert result.vector.tobytes() == expected.vector.tobytes()
            assert result.train_loss == expected.train_loss
            # FedAvg does not read L_init, so neither path measures it.
            assert result.init_loss is None and expected.init_loss is None


class TestReadOnlyClientContext:
    @pytest.mark.parametrize("strategy_name", ALL_STRATEGIES)
    def test_client_update_never_writes_context(self, strategy_name):
        """The contract that makes shm workers safe: client steps only read."""
        strategy, global_vec, _, _, context = make_round_results(strategy_name)
        assert context.client_storage == {}
        assert context.server_storage == {}
