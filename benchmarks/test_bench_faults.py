"""Fault-tolerance benchmark: idle-layer overhead and degraded throughput.

Two questions, answered on a mid-sized synthetic workload (24 clients,
8/round, SimpleMLP):

* What does the fault layer cost when nothing fails?  The tolerant round
  path (``iter_round`` waves + update sanitization) with a policy attached
  but **zero faults injected** is timed against the plain fail-fast path;
  the overhead is gated at <2% of per-round wall clock.
* What does a degraded round cost?  Rounds are timed at 10/25/50% injected
  first-attempt crash rates with no retries (the round aggregates the
  survivors), recording rounds/s and the realized drop rate per point.

Timing methodology — built for noisy shared machines:

* Each idle-policy run is *flanked* by two fail-fast runs and compared to
  their mean (``2*t_idle / (t_base0 + t_base1)``), so linear load drift
  cancels; the overhead estimate is the median ratio over ``REPEATS``
  flanked triples.
* The two flanking fail-fast runs of each triple also give an A/A ratio —
  the same configuration timed twice.  Their median deviation from 1.0 is
  the machine's *noise floor*: what this box measures when the true
  difference is exactly zero.
* The gate is ``overhead < max(2%, 1.5 * noise_floor)`` on the median;
  no single best triple can pass it.  On a quiet machine the noise floor
  is well under 2% and the gate is the plain 2% budget; on a loud box the
  gate refuses to fail on differences smaller than what an A/A comparison
  already shows, while still catching any real regression that clears the
  noise.  All the numbers land in the results, the best triple included.
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import time

import numpy as np
from conftest import run_once

from repro.data.dataset import ArrayDataset
from repro.data.partition import ClientSpec
from repro.eval.results import ExperimentResult
from repro.fl.config import FLConfig
from repro.fl.execution import create_executor
from repro.fl.faults import FaultPlan, FaultPolicy
from repro.fl.simulation import FederatedSimulation
from repro.fl.strategies import create_strategy
from repro.nn.models import SimpleMLP

NUM_CLIENTS = 24
CLIENTS_PER_ROUND = 8
NUM_ROUNDS = 6
SAMPLES_PER_CLIENT = 24
IMAGE_SIZE = 12
NUM_CLASSES = 3
REPEATS = 8
FAILURE_RATES = (0.10, 0.25, 0.50)


def _model_fn():
    return SimpleMLP(3 * IMAGE_SIZE * IMAGE_SIZE, NUM_CLASSES, hidden=32, seed=0)


def _make_population():
    rng = np.random.default_rng(7)
    specs = []
    for client_id in range(NUM_CLIENTS):
        features = np.clip(
            rng.random((SAMPLES_PER_CLIENT, 3, IMAGE_SIZE, IMAGE_SIZE)), 0, 1)
        labels = rng.integers(0, NUM_CLASSES, size=SAMPLES_PER_CLIENT)
        specs.append(ClientSpec(client_id=client_id, device="S6",
                                dataset=ArrayDataset(features, labels)))
    return specs


def _make_test_sets():
    rng = np.random.default_rng(99)
    features = np.clip(rng.random((12, 3, IMAGE_SIZE, IMAGE_SIZE)), 0, 1)
    labels = rng.integers(0, NUM_CLASSES, size=12)
    return {"S6": ArrayDataset(features, labels)}


_BASE_CONFIG = FLConfig(
    num_clients=NUM_CLIENTS, clients_per_round=CLIENTS_PER_ROUND,
    num_rounds=NUM_ROUNDS, local_epochs=2, batch_size=4,
    learning_rate=0.05, seed=0)


def _one_run(config, clients, test_sets):
    """One full serial run; returns (seconds_per_round, history)."""
    with create_executor("serial") as executor:
        sim = FederatedSimulation(_model_fn, clients, test_sets,
                                  create_strategy("fedavg"), config,
                                  executor=executor)
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            history = sim.run()
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
    return elapsed / config.num_rounds, history


def _timed_run(config, clients, test_sets):
    best = float("inf")
    history = None
    for _ in range(REPEATS):
        round_s, history = _one_run(config, clients, test_sets)
        best = min(best, round_s)
    return best, history


def _bench_faults() -> ExperimentResult:
    rows = []
    scalars = {}
    clients = _make_population()
    test_sets = _make_test_sets()

    # Idle-layer overhead via flanked triples (see module docstring).
    idle_config = dataclasses.replace(
        _BASE_CONFIG, fault_policy=FaultPolicy(max_retries=1, min_clients=1))
    _one_run(_BASE_CONFIG, clients, test_sets)  # warm caches before timing
    _one_run(idle_config, clients, test_sets)
    ab_ratios, aa_ratios = [], []
    base_s, idle_s = float("inf"), float("inf")
    idle_history = None
    for _ in range(REPEATS):
        base0, _ = _one_run(_BASE_CONFIG, clients, test_sets)
        mid, idle_history = _one_run(idle_config, clients, test_sets)
        base1, _ = _one_run(_BASE_CONFIG, clients, test_sets)
        ab_ratios.append(2.0 * mid / (base0 + base1))
        aa_ratios.append(base1 / base0)
        base_s = min(base_s, base0, base1)
        idle_s = min(idle_s, mid)
    assert all(r.num_failures == 0 for r in idle_history.rounds)
    overhead = statistics.median(ab_ratios) - 1.0
    best_overhead = min(ab_ratios) - 1.0
    noise_floor = statistics.median(abs(r - 1.0) for r in aa_ratios)
    gate = max(0.02, 1.5 * noise_floor)
    scalars["round_s_disabled"] = base_s
    scalars["round_s_idle_policy"] = idle_s
    scalars["idle_overhead"] = overhead
    scalars["idle_overhead_best"] = best_overhead
    scalars["aa_noise_floor"] = noise_floor
    scalars["overhead_gate"] = gate
    rows.append(["fail-fast (no policy)", f"{base_s * 1e3:.1f}", "-", "-"])
    rows.append(["policy, zero faults", f"{idle_s * 1e3:.1f}",
                 f"{100 * overhead:+.2f}%", "-"])

    # Degraded throughput: crashes with no retry budget; survivors aggregate.
    for rate in FAILURE_RATES:
        config = dataclasses.replace(
            _BASE_CONFIG,
            faults=FaultPlan(seed=9, crash_rate=rate),
            fault_policy=FaultPolicy(max_retries=0, min_clients=1))
        degraded_s, history = _timed_run(config, clients, test_sets)
        dropped = sum(len(r.dropped_clients) for r in history.rounds)
        selected = sum(len(r.selected_clients) for r in history.rounds)
        label = f"{int(rate * 100)}% crash rate"
        scalars[f"round_s_crash_{int(rate * 100)}"] = degraded_s
        scalars[f"drop_share_crash_{int(rate * 100)}"] = dropped / selected
        rows.append([label, f"{degraded_s * 1e3:.1f}",
                     f"{100 * (degraded_s / base_s - 1.0):+.2f}%",
                     f"{dropped}/{selected}"])

    # The gate: the fault layer must be free when it is not used.  On a
    # machine whose A/A noise floor exceeds 2%/1.5 the gate widens to what
    # the box can actually resolve (all the numbers are in the results).
    assert overhead < gate, (
        f"idle fault-policy path costs {100 * overhead:.2f}% median / "
        f"{100 * best_overhead:.2f}% best per round "
        f"(gate: <{100 * gate:.2f}%, A/A noise floor "
        f"{100 * noise_floor:.2f}%) — the tolerant path regressed the "
        f"no-fault case")

    return ExperimentResult(
        experiment_id="faults",
        description=(
            "Fault-tolerance cost on a serial FedAvg run "
            f"({NUM_CLIENTS} clients, {CLIENTS_PER_ROUND}/round, "
            f"{NUM_ROUNDS} rounds, SimpleMLP): per-round wall clock of the "
            "plain fail-fast path vs the tolerant path with a policy "
            "attached and zero faults injected (median of flanked A/B/A "
            "triples, median gated below max(2%, 1.5x the machine's A/A "
            "noise floor)), and "
            "degraded-round throughput at 10/25/50% injected first-attempt "
            "crash rates with no retries (survivors aggregate; dropped "
            f"counts shown).  {REPEATS} triples / best-of-{REPEATS} runs."
        ),
        headers=["configuration", "round_ms", "vs fail-fast", "dropped/selected"],
        rows=rows,
        scalars=scalars,
        metadata={"model": "simple_mlp", "num_clients": NUM_CLIENTS,
                  "clients_per_round": CLIENTS_PER_ROUND,
                  "num_rounds": NUM_ROUNDS, "repeats": REPEATS,
                  "failure_rates": list(FAILURE_RATES), "executor": "serial"},
    )


def test_bench_faults(benchmark):
    result = run_once(benchmark, _bench_faults)
    print()
    print(result.to_markdown())
    assert result.scalars["idle_overhead"] < result.scalars["overhead_gate"]
