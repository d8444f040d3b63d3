"""Tests for deterministic fault injection and fault-tolerance policies.

The guarantees under test (see :mod:`repro.fl.faults`, :mod:`repro.fl.errors`
and the executors' ``iter_round``):

* fault schedules are pure functions of the plan seed: two chaos runs with
  the same :class:`FaultPlan` produce identical failure schedules and
  bit-identical results on every execution backend;
* a retried client is bit-identical to a first-try client, so a fully
  recovered chaos run equals the fault-free run exactly;
* a quorum-degraded round aggregates the survivors bitwise-equal to a round
  that selected only the survivors — for every strategy, both training
  engines, and both the in-process and shm execution paths;
* the shared-memory pool self-heals: killed workers are detected mid-round,
  their jobs failed over, and the pool respawned without leaking segments;
* structured :class:`ExecutorError`\\ s survive pickling across process
  boundaries with their client/round/attempt context intact;
* update sanitization rejects NaN/Inf/wrong-shape client updates at the
  aggregation boundary instead of poisoning the global model.
"""

import dataclasses
import multiprocessing
import os
import pickle
import sys

import numpy as np
import pytest
from oracle import seed_engine
from oracle.states import states_equal

from repro.core.ema import EMALossTracker
from repro.data.dataset import ArrayDataset
from repro.data.partition import ClientSpec
from repro.fl.callbacks import CheckpointCallback
from repro.fl.config import FLConfig
from repro.fl.errors import (
    ClientFailure,
    ExecutorError,
    RoundFailedError,
    RoundTimeout,
    WorkerDied,
)
from repro.fl.execution import create_executor
from repro.fl.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultPolicy,
    fault_rng,
    run_tolerant_round,
    sanitize_result,
)
from repro.fl.sampling import ClientSampler
from repro.fl.simulation import FederatedSimulation, RoundRecord
from repro.fl.strategies import create_strategy
from repro.fl.strategies.base import FedAvg, FLContext
from repro.fl.training import ClientResult
from repro.nn.models import SimpleMLP
from repro.nn.serialization import StateLayout
from repro.store.checkpoint import read_checkpoint

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
HAS_SHM = HAS_FORK and sys.platform != "darwin" and os.path.isdir("/dev/shm")

requires_shm = pytest.mark.skipif(
    not HAS_SHM, reason="shm executor needs Linux fork + /dev/shm")

ALL_BACKENDS = [
    pytest.param("serial", id="serial"),
    pytest.param("shm", id="shm",
                 marks=pytest.mark.skipif(not HAS_SHM, reason="needs shm")),
]

ALL_STRATEGIES = ["fedavg", "fedprox", "qfedavg", "scaffold", "heteroswitch"]

NUM_CLIENTS = 6
IMAGE_SIZE = 4
NUM_CLASSES = 2


def shm_entries():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def make_population(num_clients=NUM_CLIENTS, samples=4, seed=0):
    rng = np.random.default_rng(seed)
    specs = []
    for client_id in range(num_clients):
        features = np.clip(rng.random((samples, 3, IMAGE_SIZE, IMAGE_SIZE)), 0, 1)
        labels = (features.reshape(samples, -1)[:, 0] > 0.5).astype(int)
        specs.append(ClientSpec(client_id=client_id, device="S6",
                                dataset=ArrayDataset(features, labels)))
    return specs


def model_fn():
    return SimpleMLP(3 * IMAGE_SIZE * IMAGE_SIZE, NUM_CLASSES, hidden=8, seed=0)


def global_vec():
    """A fresh model's weights, packed as the round protocol broadcasts them."""
    state = model_fn().state_dict()
    return StateLayout(state).pack(state)


def make_test_sets(seed=99):
    rng = np.random.default_rng(seed)
    features = np.clip(rng.random((6, 3, IMAGE_SIZE, IMAGE_SIZE)), 0, 1)
    labels = (features.reshape(6, -1)[:, 0] > 0.5).astype(int)
    return {"S6": ArrayDataset(features, labels)}


def make_config(**overrides):
    base = dict(num_clients=NUM_CLIENTS, clients_per_round=4, num_rounds=2,
                local_epochs=1, batch_size=4, learning_rate=0.05, seed=0)
    base.update(overrides)
    return FLConfig(**base)


class FixedSampler(ClientSampler):
    """Always selects the same client indices (survivors-only replays)."""

    name = "fixed"

    def __init__(self, indices):
        self.indices = list(indices)

    def select(self, num_clients, k, round_index, seed):
        return list(self.indices)


def run_sim(config, backend, strategy_name="fedavg", sampler=None,
            max_workers=2, callbacks=(), population_seed=0):
    clients = make_population(config.num_clients, seed=population_seed)
    with create_executor(backend, max_workers=max_workers) as executor:
        sim = FederatedSimulation(model_fn, clients, make_test_sets(),
                                  create_strategy(strategy_name), config,
                                  sampler=sampler, callbacks=list(callbacks),
                                  executor=executor)
        history = sim.run()
    return history, sim.global_state


class TestFaultPlan:
    def test_decide_is_pure(self):
        plan = FaultPlan(seed=3, crash_rate=0.2, hang_rate=0.2, nan_rate=0.2,
                         shape_rate=0.2, kill_rate=0.2)
        first = [plan.decide(r, c, a)
                 for r in range(4) for c in range(8) for a in range(2)]
        # Re-deciding in a different order changes nothing: each decision is
        # a pure function of (seed, round, client, attempt).
        second = [plan.decide(r, c, a)
                  for a in range(2) for c in range(8) for r in range(4)]
        second = [second[a * 32 + c * 4 + r]
                  for r in range(4) for c in range(8) for a in range(2)]
        assert first == second
        assert set(first) <= set(FAULT_KINDS) | {None}

    def test_rates_decide_cumulatively(self):
        assert FaultPlan(seed=0, crash_rate=1.0).decide(0, 0) == "crash"
        assert FaultPlan(seed=0, kill_rate=1.0).decide(5, 7) == "kill"
        assert FaultPlan(seed=0).decide(0, 0) is None

    def test_first_attempt_only(self):
        plan = FaultPlan(seed=0, crash_rate=1.0, first_attempt_only=True)
        assert plan.decide(0, 0, attempt=0) == "crash"
        assert plan.decide(0, 0, attempt=1) is None

    def test_validation(self):
        with pytest.raises(ValueError, match="crash_rate"):
            FaultPlan(crash_rate=1.5)
        with pytest.raises(ValueError, match="sum to at most 1"):
            FaultPlan(crash_rate=0.6, nan_rate=0.6)
        with pytest.raises(ValueError, match="hang_seconds"):
            FaultPlan(hang_seconds=-1.0)
        with pytest.raises(ValueError, match="max_retries"):
            FaultPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="min_clients"):
            FaultPolicy(min_clients=0)
        with pytest.raises(ValueError, match="client_timeout"):
            FaultPolicy(client_timeout=0.0)

    def test_removed_worker_timeout_refused(self):
        """The old process-pool stall timeout is gone; setting it is refused."""
        with pytest.raises(TypeError, match="worker_timeout"):
            FaultPolicy(worker_timeout=5.0)
        with pytest.raises(ValueError, match=r"unknown fault_policy field\(s\) "
                                             r"\['worker_timeout'\]"):
            make_config(fault_policy={"max_retries": 1, "worker_timeout": 5.0})
        with pytest.raises(ValueError, match="unknown faults field"):
            make_config(faults={"seed": 1, "crash_rat": 0.5})

    def test_config_coerces_dicts(self):
        config = make_config(
            faults={"seed": 5, "crash_rate": 0.1},
            fault_policy={"max_retries": 2, "min_clients": 3})
        assert config.faults == FaultPlan(seed=5, crash_rate=0.1)
        assert config.fault_policy.max_retries == 2
        assert hash(config) == hash(dataclasses.replace(config))
        # to_dict() round-trips through the dict coercion.
        again = make_config(faults=config.faults.to_dict(),
                            fault_policy=config.fault_policy.to_dict())
        assert again.faults == config.faults
        assert again.fault_policy == config.fault_policy

    def test_fault_stream_namespace_is_collision_free(self):
        from repro.fl.async_sim.events import _STREAMS
        from repro.fl.faults import FAULT_STREAMS

        assert set(FAULT_STREAMS) <= set(_STREAMS)
        assert len(set(_STREAMS.values())) == len(_STREAMS)
        draws = {fault_rng(0, "inject", 0, 0, 0).random(),
                 fault_rng(0, "backoff", 0, 0, 0).random()}
        assert len(draws) == 2  # distinct streams, distinct draws


class TestErrorPickling:
    @pytest.mark.parametrize("cls,kind", [
        (ExecutorError, "crash"), (ClientFailure, "crash"),
        (WorkerDied, "worker_died"), (RoundTimeout, "timeout")])
    def test_roundtrip_preserves_context(self, cls, kind):
        error = cls("boom happened", client_id=7, round_index=3, attempt=1)
        error.remote_traceback = "Traceback: ..."
        clone = pickle.loads(pickle.dumps(error))
        assert type(clone) is cls
        assert str(clone) == "boom happened"
        assert (clone.client_id, clone.round_index, clone.attempt) == (7, 3, 1)
        assert clone.kind == kind
        assert clone.remote_traceback == "Traceback: ..."
        assert isinstance(clone, RuntimeError)

    def test_round_failed_roundtrip(self):
        error = RoundFailedError("quorum lost", round_index=2, num_ok=1,
                                 num_selected=4, min_clients=3,
                                 failures={5: "crash", 6: "timeout"})
        clone = pickle.loads(pickle.dumps(error))
        assert (clone.num_ok, clone.num_selected, clone.min_clients) == (1, 4, 3)
        assert clone.failures == {5: "crash", 6: "timeout"}
        assert clone.kind == "quorum"


class TestExecutorFailurePaths:
    """iter_round yields per-job failures instead of failing the wave."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("fail_position", range(3))
    def test_client_exception_at_every_position(self, backend, fail_position):
        # Crash exactly one of three jobs: the plan hits every *first*
        # attempt, so marking the other jobs as attempt 1 exempts them.
        clients = make_population()
        config = make_config(
            clients_per_round=3,
            faults=FaultPlan(seed=11, crash_rate=1.0, first_attempt_only=True),
            fault_policy=FaultPolicy(max_retries=1, min_clients=1))
        context = FLContext(config=config, ema=EMALossTracker())
        context.round_index = 0
        selected = clients[:3]
        jobs = [(spec, 0 if position == fail_position else 1)
                for position, spec in enumerate(selected)]
        strategy = create_strategy("fedavg")
        with create_executor(backend, max_workers=2) as executor:
            outcomes = list(executor.iter_round(
                strategy, model_fn, jobs, global_vec(), context))
        for position, outcome in enumerate(outcomes):
            if position == fail_position:
                assert isinstance(outcome, ClientFailure)
                assert "injected crash" in str(outcome)
                assert outcome.client_id == selected[position].client_id
                assert outcome.round_index == 0
            else:
                assert isinstance(outcome, ClientResult)
                assert outcome.client_id == selected[position].client_id

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_mixed_wave_failures_are_positional(self, backend):
        clients = make_population()
        plan = FaultPlan(seed=11, crash_rate=1.0, first_attempt_only=True)
        config = make_config(
            clients_per_round=3, faults=plan,
            fault_policy=FaultPolicy(max_retries=1, min_clients=1))
        context = FLContext(config=config, ema=EMALossTracker())
        context.round_index = 0
        selected = clients[:3]
        # Attempt 0 jobs fail (plan hits every first attempt), attempt 1
        # jobs succeed; interleave them and check outcomes line up.
        jobs = [(selected[0], 0), (selected[1], 1), (selected[2], 0)]
        strategy = create_strategy("fedavg")
        with create_executor(backend, max_workers=2) as executor:
            outcomes = list(executor.iter_round(
                strategy, model_fn, jobs, global_vec(), context))
        assert isinstance(outcomes[0], ClientFailure)
        assert isinstance(outcomes[1], ClientResult)
        assert outcomes[1].client_id == selected[1].client_id
        assert isinstance(outcomes[2], ClientFailure)

    @pytest.mark.parametrize("backend", [
        pytest.param("shm", id="shm", marks=requires_shm)])
    def test_worker_exit_becomes_worker_died(self, backend):
        config = make_config(
            clients_per_round=2,
            faults=FaultPlan(seed=0, kill_rate=1.0),
            fault_policy=FaultPolicy(max_retries=0, min_clients=1))
        clients = make_population()
        context = FLContext(config=config, ema=EMALossTracker())
        context.round_index = 0
        selected = clients[:2]
        jobs = [(spec, 0) for spec in selected]
        strategy = create_strategy("fedavg")
        with create_executor(backend, max_workers=2) as executor:
            outcomes = list(executor.iter_round(
                strategy, model_fn, jobs, global_vec(), context))
        assert all(isinstance(outcome, WorkerDied) for outcome in outcomes)
        assert {outcome.kind for outcome in outcomes} == {"worker_died"}

    @requires_shm
    @pytest.mark.parametrize("policy", [
        pytest.param(None, id="fail_fast"),
        pytest.param(FaultPolicy(max_retries=0, min_clients=1), id="policy")])
    def test_round_header_failure_fails_the_round(self, policy, monkeypatch):
        """A worker that cannot apply the round header has no context to
        train with: the round fails with the header's own error, with or
        without a policy, instead of every job failing on a missing one."""
        def broken_load(self, state):
            raise RuntimeError("header boom")

        # Patched before the pool forks, so every worker inherits it.
        monkeypatch.setattr(EMALossTracker, "load_state_dict", broken_load)
        config = make_config(clients_per_round=3, fault_policy=policy)
        context = FLContext(config=config, ema=EMALossTracker())
        selected = make_population()[:3]
        before = shm_entries()
        with create_executor("shm", max_workers=2) as executor:
            with pytest.raises(ClientFailure, match="header boom"):
                _, results, _ = run_tolerant_round(
                    executor, create_strategy("fedavg"), model_fn, selected,
                    global_vec(), context, policy)
                list(results)
        assert shm_entries() <= before

    @pytest.mark.parametrize("backend", [
        pytest.param("serial", id="serial"),
        pytest.param("shm", id="shm", marks=requires_shm)])
    def test_injected_hang_times_out(self, backend):
        config = make_config(
            clients_per_round=2,
            faults=FaultPlan(seed=0, hang_rate=1.0, hang_seconds=0.3),
            fault_policy=FaultPolicy(max_retries=0, min_clients=1,
                                     client_timeout=0.05))
        clients = make_population()
        context = FLContext(config=config, ema=EMALossTracker())
        context.round_index = 0
        selected = clients[:2]
        strategy = create_strategy("fedavg")
        with create_executor(backend, max_workers=2) as executor:
            outcomes = list(executor.iter_round(
                strategy, model_fn, [(spec, 0) for spec in selected],
                global_vec(), context))
        assert all(isinstance(outcome, RoundTimeout) for outcome in outcomes)
        assert "deadline" in str(outcomes[0])

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_legacy_fail_fast_unchanged(self, backend):
        """Without a policy, a failing client still fails the round loudly."""
        config = make_config(
            clients_per_round=3,
            faults=FaultPlan(seed=11, crash_rate=1.0))
        history_error = None
        try:
            run_sim(config, backend)
        except RuntimeError as exc:
            history_error = exc
        assert history_error is not None
        assert "injected crash" in str(history_error)


class TestRetryDeterminism:
    """A retried client is bit-identical to a first-try client."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_crash_then_retry_equals_clean_run(self, backend):
        clean = make_config()
        chaos = dataclasses.replace(
            clean,
            faults=FaultPlan(seed=7, crash_rate=1.0, first_attempt_only=True),
            fault_policy=FaultPolicy(max_retries=1, min_clients=1))
        ref_history, ref_state = run_sim(clean, "serial")
        history, state = run_sim(chaos, backend)
        assert states_equal(ref_state, state)
        assert [r.mean_train_loss for r in history.rounds] == \
            [r.mean_train_loss for r in ref_history.rounds]
        assert history.per_device_metric == ref_history.per_device_metric
        assert all(not r.dropped_clients for r in history.rounds)
        assert all(r.num_failures == 4 and r.num_retries == 4
                   for r in history.rounds)

    @requires_shm
    def test_kill_then_retry_equals_clean_run(self):
        """Worker deaths heal mid-round and the retry recovers everything."""
        before = shm_entries()
        clean = make_config()
        chaos = dataclasses.replace(
            clean,
            faults=FaultPlan(seed=7, kill_rate=1.0, first_attempt_only=True),
            fault_policy=FaultPolicy(max_retries=1, min_clients=1))
        ref_history, ref_state = run_sim(clean, "serial")
        history, state = run_sim(chaos, "shm")
        assert states_equal(ref_state, state)
        assert history.per_device_metric == ref_history.per_device_metric
        assert all(r.failure_kinds == {"worker_died": 4}
                   for r in history.rounds)
        assert shm_entries() == before

    @requires_shm
    def test_shm_pool_respawned_to_full_strength(self):
        config = make_config(
            num_rounds=1,
            faults=FaultPlan(seed=7, kill_rate=1.0, first_attempt_only=True),
            fault_policy=FaultPolicy(max_retries=1, min_clients=1))
        clients = make_population()
        executor = create_executor("shm", max_workers=2)
        with executor:
            sim = FederatedSimulation(model_fn, clients, make_test_sets(),
                                      create_strategy("fedavg"), config,
                                      executor=executor)
            sim.run()
            # Every kill was healed in place: the pool is back at strength
            # with live replacement workers before close().
            assert len(executor._workers) == 2
            assert all(process.is_alive()
                       for process, _ in executor._workers)


class TestChaosDeterminism:
    """Same plan seed -> identical schedules and bit-identical results."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_two_runs_identical(self, backend):
        config = make_config(
            faults=FaultPlan(seed=21, crash_rate=0.25, nan_rate=0.2,
                             hang_rate=0.15, hang_seconds=0.01),
            fault_policy=FaultPolicy(max_retries=1, min_clients=1,
                                     client_timeout=5.0))
        first_history, first_state = run_sim(config, backend)
        second_history, second_state = run_sim(config, backend)
        assert states_equal(first_state, second_state)
        assert [r.to_dict() for r in first_history.rounds] == \
            [r.to_dict() for r in second_history.rounds]
        assert first_history.metadata == second_history.metadata
        assert any(r.num_failures for r in first_history.rounds)

    def test_schedule_identical_across_backends(self):
        config = make_config(
            faults=FaultPlan(seed=21, crash_rate=0.25, nan_rate=0.2),
            fault_policy=FaultPolicy(max_retries=1, min_clients=1))
        backends = ["serial"]
        if HAS_SHM:
            backends.append("shm")
        runs = {backend: run_sim(config, backend) for backend in backends}
        reference = runs.pop("serial")
        assert any(r.num_failures for r in reference[0].rounds)
        for backend, (history, state) in runs.items():
            assert states_equal(reference[1], state), backend
            assert [r.to_dict() for r in history.rounds] == \
                [r.to_dict() for r in reference[0].rounds], backend


class TestQuorum:
    def test_quorum_miss_raises_structured_error(self):
        config = make_config(
            faults=FaultPlan(seed=3, crash_rate=1.0),
            fault_policy=FaultPolicy(max_retries=0, min_clients=2))
        with pytest.raises(RoundFailedError) as excinfo:
            run_sim(config, "serial")
        error = excinfo.value
        assert error.num_ok == 0
        assert error.num_selected == 4
        assert error.min_clients == 2
        assert error.round_index == 0
        assert len(error.failures) == 4
        assert error.kind == "quorum"

    def test_quorum_met_degrades_gracefully(self):
        config = make_config(
            faults=FaultPlan(seed=23, crash_rate=0.5),
            fault_policy=FaultPolicy(max_retries=0, min_clients=1))
        history, _ = run_sim(config, "serial")
        assert any(r.dropped_clients for r in history.rounds)
        faults = history.metadata["faults"]
        assert faults["total_dropped"] == sum(
            len(r.dropped_clients) for r in history.rounds)
        assert faults["degraded_rounds"] >= 1

    @pytest.mark.parametrize("backend", [
        pytest.param("serial", id="serial"),
        pytest.param("shm", id="shm", marks=requires_shm)])
    @pytest.mark.parametrize("engine", ["flat", "reference"])
    @pytest.mark.parametrize("strategy_name", ALL_STRATEGIES)
    def test_degraded_equals_survivors_only(self, strategy_name, engine, backend,
                                            monkeypatch):
        """The tentpole acceptance: degraded == survivors-only, bitwise, on
        the flat engine and on the seed oracle."""
        if engine == "reference":
            seed_engine.install(monkeypatch)
        chaos = make_config(
            num_rounds=1,
            faults=FaultPlan(seed=23, crash_rate=0.5),
            fault_policy=FaultPolicy(max_retries=0, min_clients=1))
        history, state = run_sim(chaos, backend, strategy_name=strategy_name)
        record = history.rounds[0]
        assert record.dropped_clients, "plan seed must drop someone in round 0"
        survivors = [cid for cid in record.selected_clients
                     if cid not in record.dropped_clients]
        assert survivors
        # Replay with a sampler that selects only the survivors and no
        # faults: the degraded round must match it bitwise.
        clean = make_config(num_rounds=1, clients_per_round=len(survivors))
        ref_history, ref_state = run_sim(clean, backend,
                                         strategy_name=strategy_name,
                                         sampler=FixedSampler(survivors))
        assert states_equal(ref_state, state)
        assert history.rounds[0].mean_train_loss == \
            ref_history.rounds[0].mean_train_loss
        assert history.rounds[0].ema_loss == ref_history.rounds[0].ema_loss
        assert history.per_device_metric == ref_history.per_device_metric


class TestSanitization:
    def test_sanitize_result_catches_poison(self):
        broadcast = global_vec()
        ok = ClientResult(vector=global_vec(), num_samples=4, train_loss=0.5,
                          init_loss=0.6)
        assert sanitize_result(ok, broadcast) is None

        poisoned = ok.vector.copy()
        poisoned[0] = np.nan
        bad = dataclasses.replace(ok, vector=poisoned)
        assert "non-finite" in sanitize_result(bad, broadcast)

        assert "do not fit" in sanitize_result(
            dataclasses.replace(ok, vector=ok.vector[:-1]), broadcast)

        assert "losses" in sanitize_result(
            dataclasses.replace(ok, train_loss=float("nan")), broadcast)
        # Streaming results already folded into an accumulator pass through.
        assert sanitize_result(dataclasses.replace(ok, vector=None), broadcast) is None

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_misshapen_update_fails_alike_without_policy(self, backend):
        """Without a policy, a wrong-length update fails the round with the
        same error on every backend: the server refuses it before folding."""
        config = make_config(faults=FaultPlan(seed=0, shape_rate=1.0))
        with pytest.raises(ValueError, match=r"returned weights of shape \(\d+,\); "
                                             r"the broadcast has"):
            run_sim(config, backend)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_poisoned_updates_rejected_and_recovered(self, backend):
        clean = make_config()
        chaos = dataclasses.replace(
            clean,
            faults=FaultPlan(seed=9, nan_rate=0.5, shape_rate=0.5,
                             first_attempt_only=True),
            fault_policy=FaultPolicy(max_retries=1, min_clients=1))
        ref_history, ref_state = run_sim(clean, "serial")
        history, state = run_sim(chaos, backend)
        assert states_equal(ref_state, state)
        assert history.per_device_metric == ref_history.per_device_metric
        kinds = {kind for record in history.rounds
                 for kind in record.failure_kinds}
        assert kinds == {"sanitize"}
        assert np.all(np.isfinite(np.concatenate(
            [value.reshape(-1) for value in state.values()])))


class _BroadcastWriter(FedAvg):
    """A buggy client that writes into the broadcast weights it was handed."""

    def client_update(self, model, spec, global_vec, context):
        global_vec[0] = 1.0
        return super().client_update(model, spec, global_vec, context)


class TestReadOnlyBroadcast:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_write_into_broadcast_fails_and_server_weights_survive(self, backend):
        """Clients share one read-only view of the server's weights, not a
        copy each: writing into it fails the client, and the server's
        weights stay as they were."""
        with create_executor(backend, max_workers=2) as executor:
            sim = FederatedSimulation(model_fn, make_population(), make_test_sets(),
                                      _BroadcastWriter(), make_config(),
                                      executor=executor)
            before = sim.global_state
            with pytest.raises(ClientFailure, match="read-only"):
                sim.run_round(0)
        assert states_equal(before, sim.global_state)


class TestDegradedResume:
    def test_resume_of_degraded_run_is_bit_identical(self, tmp_path):
        config = make_config(
            num_rounds=3,
            faults=FaultPlan(seed=23, crash_rate=0.4),
            fault_policy=FaultPolicy(max_retries=0, min_clients=1))
        clients = make_population()
        with create_executor("serial") as executor:
            sim = FederatedSimulation(
                model_fn, clients, make_test_sets(),
                create_strategy("fedavg"), config, executor=executor,
                callbacks=[CheckpointCallback(tmp_path, every=1)])
            reference = sim.run()
            ref_state = sim.global_state
        assert any(r.dropped_clients for r in reference.rounds)
        for boundary in (1, 2):
            snapshot, _ = read_checkpoint(tmp_path / f"round_{boundary:05d}.npz")
            with create_executor("serial") as executor:
                resumed = FederatedSimulation(
                    model_fn, clients, make_test_sets(),
                    create_strategy("fedavg"), config, executor=executor)
                resumed.restore(snapshot)
                history = resumed.run()
            assert states_equal(ref_state, resumed.global_state)
            assert [r.to_dict() for r in history.rounds] == \
                [r.to_dict() for r in reference.rounds]
            assert history.metadata == reference.metadata

    def test_round_record_fault_fields_roundtrip(self):
        record = RoundRecord(round_index=1, selected_clients=[1, 2],
                             mean_train_loss=0.5, ema_loss=0.4,
                             num_failures=3, num_retries=2,
                             dropped_clients=[2],
                             failure_kinds={"crash": 2, "timeout": 1})
        clone = RoundRecord.from_dict(record.to_dict())
        assert clone == record

    def test_round_record_reads_legacy_dicts(self):
        legacy = {"round_index": 0, "selected_clients": [1],
                  "mean_train_loss": 0.1, "ema_loss": 0.1}
        record = RoundRecord.from_dict(legacy)
        assert record.num_failures == 0
        assert record.num_retries == 0
        assert record.dropped_clients == []
        assert record.failure_kinds == {}


class TestFaultTelemetry:
    def test_metadata_written_only_when_faults_happen(self):
        clean_history, _ = run_sim(make_config(
            fault_policy=FaultPolicy(max_retries=1, min_clients=1)), "serial")
        assert "faults" not in clean_history.metadata
        chaos_history, _ = run_sim(make_config(
            faults=FaultPlan(seed=23, crash_rate=0.5),
            fault_policy=FaultPolicy(max_retries=0, min_clients=1)), "serial")
        faults = chaos_history.metadata["faults"]
        assert faults["total_failures"] == sum(
            r.num_failures for r in chaos_history.rounds)
        assert faults["failure_kinds"] == {"crash": faults["total_failures"]}
