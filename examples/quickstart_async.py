#!/usr/bin/env python3
"""Quickstart: event-driven asynchronous FL on a simulated device clock.

The synchronous simulator advances round by round; the asynchronous one
advances a *virtual clock* through a deterministic event queue.  Every client
gets a latency/availability model derived from its Table 1 device profile
(compute rate, network class, duty cycle), the server keeps a bounded number
of updates in flight, and staleness-aware strategies fold late arrivals into
the global model:

* ``fedasync`` — every arriving update commits immediately, mixed in with a
  staleness-discounted factor ``alpha * (1 + staleness)^-a``;
* ``fedbuff``  — updates accumulate in a size-K buffer; each flush commits a
  staleness-weighted average.

Everything stays deterministic: the clock is simulated (no wall time), ties
are broken by seeded draws, and the serial and shm executors produce
bit-identical histories — as do checkpoint/resume mid-queue.

Run it with:  python examples/quickstart_async.py
It finishes in well under a minute on a laptop CPU.
"""

from __future__ import annotations

import tempfile

from repro.devices.latency import LATENCY_REGIMES
from repro.eval import format_table
from repro.runtime import Runner, RunSpec, RunStore


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. An asynchronous experiment is the same declarative RunSpec with
    #    kind="federated_async": the latency regime and the in-flight cap
    #    replace the per-round sampler.
    # ------------------------------------------------------------------ #
    print(f"Latency regimes: {', '.join(sorted(LATENCY_REGIMES))}")
    spec = RunSpec(
        kind="federated_async",
        strategy="fedbuff",
        strategy_kwargs={"buffer_size": 3},
        dataset="device_capture",
        dataset_kwargs={"devices": ["Pixel5", "Pixel2", "S22", "S9", "S6", "G7"]},
        scale="smoke",
        config_overrides={"num_rounds": 8, "learning_rate": 0.02},
        latency_kwargs={"regime": "extreme"},
        concurrency=4,
        callbacks={"async_telemetry": {}},
        seeds=[0],
    )
    print("RunSpec JSON round-trip intact:",
          RunSpec.from_json(spec.to_json()) == spec)

    # ------------------------------------------------------------------ #
    # 2. Run FedBuff and FedAsync on the same population under the same
    #    regime; the Runner memoises the dataset build across specs.
    # ------------------------------------------------------------------ #
    runner = Runner()
    rows = []
    for method in ("fedbuff", "fedasync"):
        variant = spec if method == "fedbuff" else spec.with_overrides(
            strategy="fedasync", strategy_kwargs={})
        print(f"Running {method} to {variant.config_overrides['num_rounds']} "
              f"commits ...")
        history = runner.run(variant).history
        meta = history.metadata
        rows.append([method, meta["virtual_hours"], meta["num_commits"],
                     meta["num_updates"], meta["mean_staleness"],
                     history.summary["average"]])
        telemetry = meta["telemetry"]
        print(f"  virtual clock {meta['virtual_seconds']:.0f}s, "
              f"{telemetry['dropouts']} dropout(s), "
              f"{telemetry['updates_lost']} update(s) lost to churn, "
              f"utilisation {telemetry['utilisation']:.2f}")

    print()
    print(format_table(
        ["method", "virtual hours", "commits", "updates", "mean staleness",
         "average accuracy"],
        rows,
    ))

    # ------------------------------------------------------------------ #
    # 3. Durability works mid-event-queue: checkpoints snapshot the clock,
    #    the queue (with its RNG counters) and every in-flight update, so a
    #    resumed run replays to the bit-identical final history.
    # ------------------------------------------------------------------ #
    with tempfile.TemporaryDirectory() as root:
        store = RunStore(root)
        durable = Runner(store=store, checkpoint_every=3)
        durable.run(spec)                            # pretend this crashed...
        resumed = durable.run(spec, resume=True)     # ...no re-run needed
        [entry] = store.list_runs()
        print(f"\nRun store: {entry.run_id} is {entry.status()} after "
              f"{len(entry.checkpoints())} checkpoint(s); "
              f"fingerprint {entry.load_result()['fingerprint'][:16]}…")
        print("Resume returned the stored result:",
              resumed.history.per_device_metric == entry.load_result()["metrics"])


if __name__ == "__main__":
    main()
