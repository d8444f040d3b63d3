"""One experiment of one workload, run in a process of its own.

``run.py`` starts this script once per experiment, so every experiment gets a
fresh interpreter, a clean peak-RSS and CPU account, and a process group the
benchmark can kill at its deadline.  It runs ``Runner.run`` once, times it
with a round-clock callback, checks and fingerprints the outputs, and writes a
JSON record to ``<workdir>/record.json``.  Each finished round is also
appended to ``<workdir>/progress.jsonl`` as it happens, so a run killed at its
deadline still tells the benchmark which client jobs finished.

With ``--traced`` the per-layer wrappers of ``layers.py`` are installed
before the run (workers flush into ``<workdir>/trace``); their totals are
added to the record.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is first imported; shm workers fork
# from this process and inherit the setting.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from repro.fl.callbacks import CALLBACK_REGISTRY, Callback  # noqa: E402
from repro.fl.metrics import summarize_per_device  # noqa: E402
from repro.runtime import Runner  # noqa: E402
from repro.store import RunStore, run_fingerprint  # noqa: E402

from workloads import CLOCK_CALLBACK, WORKLOADS  # noqa: E402


def steal_seconds() -> float:
    """Host steal time of all CPUs so far, from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children (the shm workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


class RoundClock(Callback):
    """Timestamps every round and appends it to the progress file."""

    def __init__(self, progress: Path) -> None:
        self.progress = progress
        self.rounds = []
        self._start = 0.0

    def on_round_start(self, sim, round_index) -> None:
        self._start = time.perf_counter()

    def on_round_end(self, sim, record, results) -> None:
        row = {
            "round": record.round_index,
            "start": self._start,
            "end": time.perf_counter(),
            "samples": int(sum(result.num_samples for result in results)),
            "attempts": len(record.selected_clients) + record.num_retries,
            # Whether the round ran on the fault-tolerant path (repro.fl.faults).
            "tolerant": sim.config.fault_policy is not None,
            "failures": record.num_failures,
            "retries": record.num_retries,
            "dropped": len(record.dropped_clients),
            "loss": record.mean_train_loss,
        }
        self.rounds.append(row)
        with open(self.progress, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(row) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    clock = RoundClock(args.workdir / "progress.jsonl")
    CALLBACK_REGISTRY.register(CLOCK_CALLBACK, lambda: clock)
    spec = workload.build(args.seed, workload.rounds, args.workers)
    trace = None
    trace_dir = args.workdir / "trace"
    if args.traced:
        import layers

        trace_dir.mkdir()
        trace = layers.install(trace_dir)
    store_dir = args.workdir / "store"
    runner = Runner(store=RunStore(store_dir), checkpoint_every=1)

    steal_start, cpu_start = steal_seconds(), cpu_seconds()
    entry = time.perf_counter()
    result = runner.run(spec)
    leave = time.perf_counter()
    cpu, steal = cpu_seconds() - cpu_start, steal_seconds() - steal_start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics = dict(result.metrics[0])
    run_entry = runner.store.open_run(spec, args.seed)
    final_state = run_entry.load_checkpoint()["global_state"]
    fingerprint = run_fingerprint(final_state, metrics)
    record = {
        "seed": args.seed,
        "wall_s": leave - entry,
        "setup_s": clock.rounds[0]["start"] - entry,
        "run_s": leave - clock.rounds[0]["start"],
        "cpu_s": cpu,
        "peak_rss_mib": peak_rss_mib,
        "steal_s": steal,
        "rounds": clock.rounds,
        "fingerprint": fingerprint,
        "stored_fingerprint": run_entry.load_result()["fingerprint"],
        "finite": all(math.isfinite(value) for value in metrics.values())
        and all(math.isfinite(row["loss"]) for row in clock.rounds)
        and all(np.isfinite(np.asarray(value)).all() for value in final_state.values()),
        "per_device": metrics,
        "summary": summarize_per_device(metrics),
        "blas_threads": blas_threads(),
    }
    if trace is not None:
        record["layers"] = layers.collect(trace, trace_dir)
    shutil.rmtree(store_dir, ignore_errors=True)
    (args.workdir / "record.json").write_text(json.dumps(record), encoding="utf-8")


def blas_threads() -> int:
    """The thread count OpenBLAS actually uses in this process (-1 if unknown)."""
    import ctypes

    with open("/proc/self/maps", encoding="ascii", errors="replace") as handle:
        paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    for path in paths:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return -1


if __name__ == "__main__":
    main()
