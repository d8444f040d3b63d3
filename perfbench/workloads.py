"""The benchmark's workloads: one :class:`~repro.runtime.RunSpec` each.

Every workload is one federated experiment run end to end through
:class:`repro.runtime.Runner` with a run store that checkpoints every round.
An *experiment* is one ``Runner.run`` of ``rounds`` rounds at one seed; a
benchmark run executes a fixed number of experiments, each on its own seed
derived from the run's ``--seed``.

The workloads are built so that each layer of the program does most of the
work in one workload and almost none in another:

* ``table4_f64_serial`` — the paper's Table 4 task (9-device capture,
  MobileNetV3-small, HeteroSwitch) in float64 on the ``serial`` executor:
  ``repro.nn`` kernels dominate, the executor does nothing.
* ``table4_f32_shm`` — the same task in float32 on the ``shm`` pool: the
  float32 kernels plus shared-memory broadcast and result shipping.
* ``flair_fleet_shm`` — the FLAIR-like multilabel task (Table 6) with 128
  clients, 64 per round and a tiny MLP: executor IPC and streaming
  aggregation dominate, ``repro.nn`` does little.
* ``table4_f32_shm_chaos`` — ``table4_f32_shm`` under a seeded fault plan
  firing all five fault kinds, with retries, a client timeout and a quorum
  below the cohort: the fault-tolerant round path.

``flair_fleet_shm`` and ``table4_f32_shm_chaos`` are runnable but not listed
in ``BENCHMARK.json`` (see ``perfbench/README.md``).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

__all__ = ["Workload", "WORKLOADS", "CLOCK_CALLBACK"]

#: Registry key of the benchmark's round clock (see ``experiment.py``).
CLOCK_CALLBACK = "perfbench_clock"

# Every run sets up at least this many times, so setup_s is a median.
MIN_EXPERIMENTS = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``nominal_s`` is the wall time one experiment takes on a 2-vCPU host; it
    only fixes how many experiments a run of ``--seconds`` makes, so every
    commit does the same work for the same ``--seconds``.
    """

    name: str
    rounds: int
    clients_per_round: int
    nominal_s: float
    build: Callable[[int, int, int], "object"]  # (seed, rounds, workers) -> RunSpec

    def experiments(self, seconds: float) -> int:
        return max(MIN_EXPERIMENTS, math.ceil(seconds / self.nominal_s))


def _table4(dtype: str, executor: str, faults: Optional[Dict[str, dict]] = None):
    def build(seed: int, rounds: int, workers: int):
        from repro.runtime import RunSpec

        overrides = {"num_rounds": rounds, "dtype": dtype}
        if faults is not None:
            overrides["faults"] = {"seed": seed, **faults["plan"]}
            overrides["fault_policy"] = dict(faults["policy"])
        return RunSpec(
            name=f"table4_{dtype}_{executor}",
            strategy="heteroswitch",
            dataset="device_capture",  # all 9 devices of Table 1
            scale="default",           # MobileNetV3-small, 40 clients, 10/round
            executor=executor,
            max_workers=workers if executor == "shm" else None,
            config_overrides=overrides,
            callbacks={CLOCK_CALLBACK: {}},
            seeds=[seed],
        )
    return build


def _flair(seed: int, rounds: int, workers: int):
    from repro.eval.scale import get_scale
    from repro.runtime import RunSpec

    scale = dataclasses.asdict(get_scale("default"))
    scale.update(samples_per_class_train=40, num_clients=128,
                 clients_per_round=64, num_rounds=rounds)
    return RunSpec(
        name="flair_fleet_shm",
        strategy="fedavg",
        dataset="flair",
        model="simple_mlp",
        scale=scale,
        executor="shm",
        max_workers=workers,
        config_overrides={"num_rounds": rounds, "dtype": "float64"},
        callbacks={CLOCK_CALLBACK: {}},
        seeds=[seed],
    )


# All five fault kinds at 0.06 each: about 0.3 of first attempts fail.  The
# client timeout sits below hang_seconds (hangs time out deterministically)
# and far above a healthy client's training time; the quorum is half the
# cohort of 10.
_CHAOS = {
    "plan": {"crash_rate": 0.06, "hang_rate": 0.06, "nan_rate": 0.06,
             "shape_rate": 0.06, "kill_rate": 0.06, "hang_seconds": 0.8},
    "policy": {"max_retries": 2, "client_timeout": 0.5, "min_clients": 5},
}

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload(
            name="table4_f64_serial",
            rounds=8, clients_per_round=10, nominal_s=5.5,
            build=_table4("float64", "serial")),
        Workload(
            name="table4_f32_shm",
            rounds=8, clients_per_round=10, nominal_s=5.5,
            build=_table4("float32", "shm")),
        Workload(
            name="flair_fleet_shm",
            rounds=20, clients_per_round=64, nominal_s=4.8,
            build=_flair),
        Workload(
            name="table4_f32_shm_chaos",
            rounds=8, clients_per_round=10, nominal_s=10.0,
            build=_table4("float32", "shm", faults=_CHAOS)),
    )
}
