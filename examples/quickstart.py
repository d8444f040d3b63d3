#!/usr/bin/env python3
"""Quickstart: declare a federated experiment as a RunSpec and execute it.

This example walks through the library's declarative API in a few dozen lines:

1. describe an experiment — strategy, dataset, scale, seeds — as a
   :class:`repro.runtime.RunSpec` (pure data; it round-trips through JSON),
2. extend a component registry with a custom callback and attach it by name,
3. execute the spec with the :class:`repro.runtime.Runner`, which assembles
   the model, client population and FL loop from the registries,
4. compare FedAvg and HeteroSwitch on the Table 4 fairness / DG metrics,
5. make a run durable with a :class:`repro.runtime.RunStore` and show that a
   "crashed" run resumes to the bit-identical result.

Run it with:  python examples/quickstart.py
It finishes in well under a minute on a laptop CPU.
"""

from __future__ import annotations

import tempfile

from repro.eval import format_table
from repro.fl import Callback
from repro.runtime import CALLBACK_REGISTRY, Runner, RunSpec, RunStore, STRATEGY_REGISTRY


class RoundWatcher(Callback):
    """A custom observer: records per-round training losses into the history."""

    def __init__(self) -> None:
        self.losses = []

    def on_round_end(self, sim, record, results) -> None:
        self.losses.append(record.mean_train_loss)

    def on_run_end(self, sim, history) -> None:
        history.metadata["loss_trajectory"] = list(self.losses)


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. The experiment as data: everything is a registry key or a plain
    #    value, so the same dict could live in a JSON file
    #    (see `python -m repro bench --spec spec.json`).
    # ------------------------------------------------------------------ #
    CALLBACK_REGISTRY.replace("round_watcher", RoundWatcher)
    spec = RunSpec(
        strategy="fedavg",
        dataset="device_capture",
        dataset_kwargs={"devices": ["Pixel5", "Pixel2", "S22", "S9", "S6", "G7"]},
        scale="smoke",
        config_overrides={"num_rounds": 12, "learning_rate": 0.02},
        callbacks={"round_watcher": {}},
        seeds=[0],
    )
    print("RunSpec JSON round-trip intact:",
          RunSpec.from_json(spec.to_json()) == spec)
    print(f"Available strategies: {', '.join(STRATEGY_REGISTRY.available())}")

    # Parallel execution is one more spec field: fan client training out over
    # the shared-memory process pool (or "thread", or the CLI's
    # --executor/--workers flags).
    # Every backend produces bit-identical metrics and weights — the executor
    # only changes wall clock — so it is safe to flip on for any experiment.
    parallel = spec.with_overrides(executor="shm", max_workers=4)
    print(f"Parallel variant: executor={parallel.executor!r}, "
          f"max_workers={parallel.max_workers} (same numbers, faster rounds)")

    # Device captures can also be persisted: `--capture-cache DIR` on the CLI
    # (or dataset_kwargs={"capture_cache": "DIR"}) stores every per-device
    # capture on first build and reloads it bitwise-identically afterwards,
    # so repeated sweeps over one device fleet re-run no ISP work.
    cached = spec.with_overrides(
        dataset_kwargs={**spec.dataset_kwargs, "capture_cache": "capture-cache"})
    print(f"Cached-capture variant: {cached.dataset_kwargs['capture_cache']!r} "
          f"(same data, near-instant rebuilds)")

    # Training runs on the flat-parameter engine: fused whole-vector
    # optimizer steps, single-node autograd kernels and flat aggregation.
    # Compute precision is its one knob: float64 is the bitwise
    # golden path; dtype="float32" (or --dtype float32 on the CLI) trades
    # bit-identity to float64 for ~1.2x faster rounds, validated by
    # tolerance — aggregation still accumulates in float64, and runs stay
    # bit-identical across executors within a dtype.
    fast = spec.with_overrides(
        config_overrides={**spec.config_overrides, "dtype": "float32"})
    print(f"Float32 variant: dtype={fast.config_overrides['dtype']!r} "
          f"(tolerance-equivalent numbers, ~1.2x faster rounds)")

    # Fault tolerance rides on the same two knobs: "faults" is a seeded
    # chaos schedule (which (round, client, attempt) jobs crash / hang /
    # return poisoned updates / kill their worker is a pure function of its
    # seed), "fault_policy" is the server's response — retries, per-client
    # timeouts, update sanitization, quorum-based graceful degradation.
    # With first-attempt-only faults and one retry, the chaos run below
    # recovers every failure and matches the fault-free run bit-for-bit.
    chaos = spec.with_overrides(
        config_overrides={**spec.config_overrides,
                          "faults": {"seed": 7, "crash_rate": 0.2,
                                     "first_attempt_only": True},
                          "fault_policy": {"max_retries": 1, "min_clients": 2}})
    print(f"Chaos variant: faults={chaos.config_overrides['faults']!r} "
          f"(every failure retried once; degraded rounds aggregate survivors)")

    # ------------------------------------------------------------------ #
    # 2-4. Run FedAvg (baseline) and HeteroSwitch (the paper's method) on
    #      the same population; the Runner memoises the dataset build.
    # ------------------------------------------------------------------ #
    runner = Runner()
    rows = []
    fedavg_metrics = None
    for method in ("fedavg", "heteroswitch"):
        variant = spec.with_overrides(strategy=method, name=method)
        print(f"Running {method} for 12 rounds ...")
        result = runner.run(variant)
        history = result.history
        if method == "fedavg":
            fedavg_metrics = history.per_device_metric
        summary = history.summary
        rows.append([method, summary["worst_case"], summary["variance"],
                     summary["average"]])
        losses = history.metadata["loss_trajectory"]
        print(f"  train loss {losses[0]:.3f} -> {losses[-1]:.3f} "
              f"over {len(history.rounds)} rounds")
        if method == "heteroswitch":
            print(f"  HeteroSwitch applied its ISP transformation to "
                  f"{history.metadata['total_switch1']} client updates.")

    print()
    print(format_table(
        ["method", "worst-case accuracy (DG)", "variance (fairness)", "average accuracy"],
        rows,
    ))

    # The chaos variant actually recovers: every injected crash is retried
    # (a retried client is bit-identical to a first-try client), so the run
    # lands on exactly the fault-free numbers.
    print("\nRunning fedavg under injected chaos (20% first-attempt crashes) ...")
    chaos_history = runner.run(chaos.with_overrides(name="fedavg-chaos")).history
    faults = chaos_history.metadata.get("faults", {})
    print(f"  {faults.get('total_failures', 0)} failures, "
          f"{faults.get('total_retries', 0)} retries, "
          f"{faults.get('total_dropped', 0)} dropped clients")
    print("  metrics identical to the fault-free run:",
          chaos_history.per_device_metric == fedavg_metrics)

    # ------------------------------------------------------------------ #
    # 5. Durable runs: attach a RunStore and the runner checkpoints every
    #    run into it (crash-safe, atomic).  Kill the process at any round;
    #    `resume=True` (or the CLI's --resume) picks the run back up from
    #    its newest checkpoint and finishes with BIT-IDENTICAL final
    #    weights and metrics — sampling and client RNG streams are pure
    #    functions of (seed, round), so nothing is lost in the crash.
    # ------------------------------------------------------------------ #
    with tempfile.TemporaryDirectory() as root:
        store = RunStore(root)
        durable = Runner(store=store, checkpoint_every=5)
        variant = spec.with_overrides(strategy="fedavg", name=None)
        durable.run(variant)                      # pretend this got SIGTERMed...
        resumed = durable.run(variant, resume=True)   # ...and resumed: no re-run
        [entry] = store.list_runs()
        print(f"\nRun store: {entry.run_id} is {entry.status()} after "
              f"{len(entry.checkpoints())} checkpoint(s); "
              f"fingerprint {entry.load_result()['fingerprint'][:16]}…")
        print("Resume returned the stored result:",
              resumed.history.per_device_metric == entry.load_result()["metrics"])

    # ------------------------------------------------------------------ #
    # Bonus: observability.  config_overrides={"trace": True} records a
    # run-level trace (capture, every client update, aggregation, eval);
    # "profile": True adds per-kernel engine timings inside each client
    # update (disabled, the kernels are the undecorated functions and cost
    # nothing extra).  A stored traced run exports trace.json (open it in Perfetto /
    # chrome://tracing), events.jsonl and obs_summary.json into its store
    # entry, and the CLI has the same as `bench --trace/--profile` plus
    # `python -m repro trace RUN_ID`.  Tracing is result-neutral: the
    # fingerprint above would come out identical with it on.
    traced = spec.with_overrides(
        config_overrides={**spec.config_overrides, "trace": True, "profile": True})
    print(f"\nTraced variant: config_overrides[trace/profile]="
          f"{traced.config_overrides['trace']}/{traced.config_overrides['profile']}"
          f" (same numbers, plus trace artifacts in the run store)")


if __name__ == "__main__":
    main()
