"""Differential harness for the one round pipeline (executor → faults → fold).

Hypothesis draws a backend (``serial`` or ``shm``), a worker
count and a seeded fault schedule with a fault policy, then checks the
invariants every backend must share with the ``serial`` reference:

* **protocol** — ``iter_round`` yields exactly one outcome per job, in job
  order, and each outcome is the one the fault plan predicts;
* **backend equality** — a full round produces the same aggregate bits and
  the same ``RoundRecord`` fault fields as ``serial``, or raises the same
  error type;
* **degraded ≡ survivors-only** — a round that dropped clients equals a
  fault-free ``serial`` round that selected only the survivors.

One executor per backend is reused across examples (with one strategy
instance and one model factory, so the ``shm`` pool is not re-forked), which
keeps the number of forks bounded.
"""

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from test_faults import (
    HAS_SHM,
    FixedSampler,
    global_vec,
    make_config,
    make_population,
    make_test_sets,
    model_fn,
)

from repro.core.ema import EMALossTracker
from repro.fl.errors import ClientFailure, ExecutorError, WorkerDied
from repro.fl.execution import create_executor
from repro.fl.faults import FaultPlan, FaultPolicy
from repro.fl.simulation import FederatedSimulation
from repro.fl.strategies import create_strategy
from repro.fl.strategies.base import FLContext
from repro.fl.training import ClientResult
from repro.nn.serialization import state_fingerprint

BACKENDS = ["serial"] + (["shm"] if HAS_SHM else [])
CLIENTS_PER_ROUND = make_config().clients_per_round

# One strategy and one factory for every example: the shm pool is keyed on
# their identity, so reusing them keeps the pool alive across examples.
STRATEGY = create_strategy("fedavg")
CLIENTS = make_population()
TEST_SETS = make_test_sets()


@pytest.fixture(scope="module")
def executors():
    pool = {name: create_executor(name, max_workers=3) for name in BACKENDS}
    yield pool
    for executor in pool.values():
        executor.close()


def run_round(config, executor, sampler=None):
    """One simulated round: (record, final-weights fingerprint) or the error."""
    sim = FederatedSimulation(model_fn, CLIENTS, TEST_SETS, STRATEGY, config,
                              sampler=sampler, executor=executor)
    try:
        record = sim.run_round(0)
    except ExecutorError as exc:
        return exc
    return record, state_fingerprint(sim.global_state)


def fault_fields(record):
    return (record.num_failures, record.num_retries, record.dropped_clients,
            record.failure_kinds)


rates = st.sampled_from([0.0, 0.1, 0.25])


@st.composite
def draws(draw):
    plan = FaultPlan(seed=draw(st.integers(0, 2**16)), crash_rate=draw(rates),
                     nan_rate=draw(rates), shape_rate=draw(rates),
                     kill_rate=draw(st.sampled_from([0.0, 0.15])),
                     first_attempt_only=draw(st.booleans()))
    policy = FaultPolicy(max_retries=draw(st.integers(0, 2)),
                         min_clients=draw(st.integers(1, CLIENTS_PER_ROUND)))
    attempts = draw(st.lists(st.integers(0, 2), min_size=CLIENTS_PER_ROUND,
                             max_size=CLIENTS_PER_ROUND))
    return (draw(st.sampled_from(BACKENDS)), draw(st.integers(1, 3)), plan,
            policy, attempts)


@settings(max_examples=30, deadline=None)
@given(draw=draws())
def test_round_protocol_matches_serial(executors, draw):
    backend, workers, plan, policy, attempts = draw
    executor, serial = executors[backend], executors["serial"]
    executor.max_workers = workers

    # Protocol: one wave of (spec, attempt) jobs straight through iter_round.
    config = make_config(faults=plan, fault_policy=policy)
    context = FLContext(config=config, ema=EMALossTracker())
    selected = CLIENTS[:CLIENTS_PER_ROUND]
    jobs = list(zip(selected, attempts))
    broadcast = global_vec()
    outcomes = list(executor.iter_round(STRATEGY, model_fn, jobs, broadcast,
                                        context))
    reference = list(serial.iter_round(STRATEGY, model_fn, jobs, broadcast,
                                       context))
    assert len(outcomes) == len(jobs)
    for (spec, attempt), outcome, expected in zip(jobs, outcomes, reference):
        assert outcome.client_id == spec.client_id
        fault = plan.decide(0, spec.client_id, attempt)
        if fault == "crash":
            assert isinstance(outcome, ClientFailure) and outcome.kind == "crash"
        elif fault == "kill":
            assert isinstance(outcome, WorkerDied)
        else:
            # Misshapen updates too: every backend ships them as returned,
            # for the server to refuse.
            assert isinstance(outcome, ClientResult)
            assert outcome.vector.tobytes() == expected.vector.tobytes()

    # Backend equality: the whole round, fault layer and fold included.
    candidate = run_round(config, executor)
    baseline = run_round(config, serial)
    if isinstance(baseline, ExecutorError):
        event(f"{backend}: round raised {type(baseline).__name__}")
        assert type(candidate) is type(baseline)
        return
    assert not isinstance(candidate, ExecutorError), candidate
    (record, fingerprint), (ref_record, ref_fingerprint) = candidate, baseline
    assert fingerprint == ref_fingerprint
    assert fault_fields(record) == fault_fields(ref_record)

    # Degraded == survivors-only: the same cohort, selected on purpose.
    event(f"{backend}: {'degraded' if record.dropped_clients else 'full'} round")
    if record.dropped_clients:
        survivors = [cid for cid in record.selected_clients
                     if cid not in record.dropped_clients]
        replay, replay_fingerprint = run_round(
            make_config(clients_per_round=len(survivors)), serial,
            sampler=FixedSampler(survivors))
        assert replay_fingerprint == fingerprint
        assert replay.mean_train_loss == record.mean_train_loss
        assert replay.ema_loss == record.ema_loss
