"""Fleet-scale round benchmark: clients/round curve on the shm backend.

Runs one FL round at 8, 64 and 256 clients/round over a generated
device-profile population (all 9 paper devices, tiny per-client shards) on
the shared-memory streaming executor and records, per point on the curve:

* round wall clock (broadcast + client training + streaming aggregation),
* the server's peak allocation during aggregation (tracemalloc) — the
  streaming reduction must keep this flat as the fleet grows,
* process RSS after the round (``/proc/self/status``).

At the smallest fleet the shm round is asserted bit-identical to the serial
reference before any number is reported.  Results land in
``results/scale.{md,json}``.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
import tracemalloc

import numpy as np
import pytest
from conftest import run_once

from repro.core.ema import EMALossTracker
from repro.data.dataset import ArrayDataset
from repro.data.partition import ClientSpec
from repro.devices.profiles import market_shares
from repro.eval.results import ExperimentResult
from repro.fl.config import FLConfig
from repro.fl.execution import create_executor
from repro.fl.strategies import create_strategy
from repro.fl.strategies.base import FLContext
from repro.nn.models import SimpleMLP
from repro.nn.serialization import StateLayout, state_fingerprint

FLEET_SIZES = (8, 64, 256)
SAMPLES_PER_CLIENT = 6
IMAGE_SIZE = 8
NUM_CLASSES = 3

requires_shm = pytest.mark.skipif(
    sys.platform == "darwin"
    or "fork" not in multiprocessing.get_all_start_methods()
    or not os.path.isdir("/dev/shm"),
    reason="shm executor needs Linux fork + /dev/shm",
)


def _model_fn():
    return SimpleMLP(3 * IMAGE_SIZE * IMAGE_SIZE, NUM_CLASSES, hidden=32, seed=0)


def _make_population(num_clients: int):
    """Synthetic fleet: tiny per-client shards cycling the 9 device profiles."""
    devices = sorted(market_shares())
    rng = np.random.default_rng(7)
    specs = []
    for client_id in range(num_clients):
        features = np.clip(
            rng.random((SAMPLES_PER_CLIENT, 3, IMAGE_SIZE, IMAGE_SIZE)), 0, 1)
        labels = rng.integers(0, NUM_CLASSES, size=SAMPLES_PER_CLIENT)
        specs.append(ClientSpec(client_id=client_id,
                                device=devices[client_id % len(devices)],
                                dataset=ArrayDataset(features, labels)))
    return specs


def _run_round(executor_name: str, num_clients: int):
    """One round; returns (fingerprint, round_s, aggregation peak bytes)."""
    specs = _make_population(num_clients)
    config = FLConfig(num_clients=num_clients, clients_per_round=num_clients,
                      num_rounds=1, local_epochs=1,
                      batch_size=SAMPLES_PER_CLIENT, learning_rate=0.05, seed=0)
    context = FLContext(config=config, ema=EMALossTracker())
    strategy = create_strategy("fedavg")
    state = _model_fn().state_dict()
    layout = StateLayout(state)
    global_vec = layout.pack(state)
    start = time.perf_counter()
    with create_executor(executor_name) as executor:
        stream = executor.iter_round(strategy, _model_fn,
                                     [(spec, 0) for spec in specs],
                                     global_vec, context)
        tracemalloc.start()
        new_vec, results = strategy.aggregate_stream(
            global_vec, specs, stream, context)
        _, agg_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    round_s = time.perf_counter() - start
    assert len(results) == num_clients
    return state_fingerprint(layout.unpack(new_vec)), round_s, agg_peak


def _rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    return 0  # pragma: no cover - /proc always has VmRSS on Linux


def _fleet_scale() -> ExperimentResult:
    # Correctness gate first: at the smallest fleet the shm round must be
    # bit-identical to the serial reference.
    serial_print, _, _ = _run_round("serial", FLEET_SIZES[0])
    shm_print, _, _ = _run_round("shm", FLEET_SIZES[0])
    assert shm_print == serial_print, (
        f"shm round diverged from serial at {FLEET_SIZES[0]} clients "
        f"({shm_print[:12]} vs {serial_print[:12]})")

    rows = []
    scalars = {}
    peaks = {}
    for num_clients in FLEET_SIZES:
        _, round_s, agg_peak = _run_round("shm", num_clients)
        rss_kb = _rss_kb()
        peaks[num_clients] = agg_peak
        rows.append([str(num_clients), f"{round_s * 1e3:.1f}",
                     f"{agg_peak / 1024:.1f}", f"{rss_kb / 1024:.1f}"])
        scalars[f"round_s_{num_clients}"] = round_s
        scalars[f"agg_peak_bytes_{num_clients}"] = agg_peak
        scalars[f"rss_kb_{num_clients}"] = rss_kb

    # The headline guarantee: streaming aggregation's server peak is flat in
    # clients/round.  A materialized reduction would scale linearly (32x from
    # 8 to 256); 2x absorbs allocator/bookkeeping noise only.
    flatness = peaks[FLEET_SIZES[-1]] / max(peaks[FLEET_SIZES[0]], 1)
    scalars["agg_peak_growth"] = flatness
    assert flatness < 2.0, (
        f"aggregation peak grew {flatness:.2f}x from {FLEET_SIZES[0]} to "
        f"{FLEET_SIZES[-1]} clients/round — streaming reduction regressed")

    return ExperimentResult(
        experiment_id="scale",
        description=(
            "Fleet-scale FL round on the shared-memory streaming executor "
            "('shm'): one FedAvg round over a generated 9-device population "
            f"at {', '.join(str(n) for n in FLEET_SIZES)} clients/round "
            "(SimpleMLP, tiny per-client shards).  Round wall clock, the "
            "server's tracemalloc peak during streaming aggregation (must "
            "stay flat — O(model), not O(clients x model)) and process RSS "
            "after the round.  The shm backend is asserted bit-identical to "
            "the serial reference at the smallest fleet before timing."
        ),
        headers=["clients_per_round", "round_ms", "agg_peak_kib", "rss_mib"],
        rows=rows,
        scalars=scalars,
        metadata={"model": "simple_mlp", "samples_per_client": SAMPLES_PER_CLIENT,
                  "image_size": IMAGE_SIZE, "executor": "shm",
                  "fleet_sizes": list(FLEET_SIZES)},
    )


@requires_shm
def test_bench_fleet_scale(benchmark):
    result = run_once(benchmark, _fleet_scale)
    print()
    print(result.to_markdown())
    assert result.scalars["agg_peak_growth"] < 2.0
