"""Command-line interface for the HeteroSwitch reproduction.

Usage (after installation)::

    python -m repro list
    python -m repro run table4 --scale smoke --output results/
    python -m repro run-all --scale smoke --output results/
    python -m repro bench --spec spec.json --output results/
    python -m repro sweep --strategies fedavg heteroswitch --seeds 0 1 2

``list`` prints every experiment id plus the component registries; ``run``
regenerates one table/figure and prints it as markdown (optionally writing a
report directory with CSVs); ``run-all`` iterates over every experiment.
``bench`` executes one declarative :class:`~repro.runtime.RunSpec` (from a
JSON file and/or CLI overrides); ``sweep`` replicates a spec over a strategy
grid and multiple seeds and reports mean ± std summaries.  Both accept
``--executor {serial,thread,shm}`` and ``--workers N`` to fan client
training out over threads or a shared-memory process pool — results are
bit-identical across backends, only the wall clock changes — plus ``--store DIR``, ``--checkpoint-every N``
and ``--resume`` for durable, crash-safe runs: a killed bench/sweep resumes
from its newest checkpoints with bitwise-identical final results.  ``--trace``
records a run-level trace (``--profile`` adds per-kernel timings) exported
into the run's store entry — results stay bit-identical.  ``runs list`` /
``runs show RUN_ID`` inspect a store; ``trace RUN_ID`` summarizes a stored
run's trace.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from typing import List, Optional, Sequence

from . import __version__
from .devices.latency import LATENCY_REGIMES
from .eval.experiments import EXPERIMENTS, run_experiment
from .eval.reporting import write_report
from .eval.results import ExperimentResult, format_table
from .eval.scale import SCALES
from .nn.engine import COMPUTE_DTYPES
from .runtime import (
    CALLBACK_REGISTRY,
    DATASET_REGISTRY,
    EXECUTOR_REGISTRY,
    MODEL_REGISTRY,
    RUN_KINDS,
    SAMPLER_REGISTRY,
    STRATEGY_REGISTRY,
    Runner,
    RunSpec,
    RunStore,
)
from .store import CheckpointError, RunStoreError

__all__ = ["build_parser", "main"]

_REGISTRIES = {
    "strategies": STRATEGY_REGISTRY,
    "models": MODEL_REGISTRY,
    "datasets": DATASET_REGISTRY,
    "samplers": SAMPLER_REGISTRY,
    "callbacks": CALLBACK_REGISTRY,
    "executors": EXECUTOR_REGISTRY,
}


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of the HeteroSwitch paper.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments and registries")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS),
                            help="experiment id (table/figure)")
    run_parser.add_argument("--scale", default="smoke", choices=sorted(SCALES),
                            help="scale preset (default: smoke)")
    run_parser.add_argument("--seed", type=int, default=0, help="random seed")
    run_parser.add_argument("--output", default=None,
                            help="directory to write a markdown report and CSV into")

    all_parser = subparsers.add_parser("run-all", help="run every experiment")
    all_parser.add_argument("--scale", default="smoke", choices=sorted(SCALES))
    all_parser.add_argument("--seed", type=int, default=0)
    all_parser.add_argument("--output", default=None,
                            help="directory to write the combined report into")

    bench_parser = subparsers.add_parser(
        "bench", help="execute one declarative RunSpec (JSON file and/or flags)")
    _add_spec_arguments(bench_parser)
    bench_parser.add_argument("--output", default=None,
                              help="directory to write a markdown report and CSV into")

    sweep_parser = subparsers.add_parser(
        "sweep", help="replicate a RunSpec over strategies x seeds")
    _add_spec_arguments(sweep_parser)
    sweep_parser.add_argument("--strategies", nargs="+", default=None,
                              choices=sorted(STRATEGY_REGISTRY),
                              help="strategy grid (default: the spec's strategy)")
    sweep_parser.add_argument("--output", default=None,
                              help="directory to write a markdown report and CSV into")

    runs_parser = subparsers.add_parser(
        "runs", help="inspect the persistent run store")
    runs_sub = runs_parser.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser("list", help="list runs in the store")
    runs_list.add_argument("--store", default="runs",
                           help="run-store directory (default: runs)")
    runs_show = runs_sub.add_parser("show", help="show one run's manifest and result")
    runs_show.add_argument("run_id", help="run id as printed by 'runs list'")
    runs_show.add_argument("--store", default="runs",
                           help="run-store directory (default: runs)")

    trace_parser = subparsers.add_parser(
        "trace", help="inspect a stored run's trace (phases, kernels, artifacts)")
    trace_parser.add_argument("run_id", help="run id as printed by 'runs list'")
    trace_parser.add_argument("--store", default="runs",
                              help="run-store directory (default: runs)")
    trace_parser.add_argument("--top", type=int, default=10, metavar="K",
                              help="show the K most expensive kernels (default: 10)")

    faults_parser = subparsers.add_parser(
        "faults", help="summarize a stored run's failures, retries and drops")
    faults_parser.add_argument("run_id", help="run id as printed by 'runs list'")
    faults_parser.add_argument("--store", default="runs",
                               help="run-store directory (default: runs)")
    return parser


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags shared by ``bench`` and ``sweep`` for building/overriding a spec."""
    parser.add_argument("--spec", default=None,
                        help="path to a RunSpec JSON file (default: a fresh spec)")
    parser.add_argument("--kind", default=None, choices=sorted(RUN_KINDS),
                        help="run kind (federated, federated_async, centralized)")
    parser.add_argument("--strategy", default=None, choices=sorted(STRATEGY_REGISTRY))
    parser.add_argument("--dataset", default=None, choices=sorted(DATASET_REGISTRY))
    parser.add_argument("--model", default=None, choices=sorted(MODEL_REGISTRY))
    parser.add_argument("--sampler", default=None, choices=sorted(SAMPLER_REGISTRY))
    parser.add_argument("--scale", default=None, choices=sorted(SCALES))
    parser.add_argument("--seeds", nargs="+", type=int, default=None,
                        help="seeds to replicate over (default: the spec's seeds)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="override the number of communication rounds")
    parser.add_argument("--dtype", default=None, choices=list(COMPUTE_DTYPES),
                        help="compute precision: float64 is the bitwise golden "
                             "path, float32 the faster tolerance-validated path "
                             "(default: the spec's dtype, float64)")
    parser.add_argument("--executor", default=None, choices=sorted(EXECUTOR_REGISTRY),
                        help="client-execution backend: serial, a thread pool, or "
                             "shm, a persistent multi-core process pool (results "
                             "are bit-identical; only wall clock changes)")
    parser.add_argument("--workers", type=int, default=None,
                        help="max parallel client workers (default: one per CPU core)")
    parser.add_argument("--latency-regime", default=None,
                        choices=sorted(LATENCY_REGIMES),
                        help="device latency/churn regime for asynchronous runs "
                             "(kind=federated_async; default: mild)")
    parser.add_argument("--concurrency", type=int, default=None,
                        help="max simultaneously training clients in asynchronous "
                             "runs (default: the config's clients_per_round)")
    parser.add_argument("--capture-cache", default=None, metavar="DIR",
                        help="persistent capture-cache directory: device captures "
                             "are stored on first build and reloaded bitwise-"
                             "identically afterwards (device_capture datasets)")
    parser.add_argument("--store", default=None,
                        help="run-store directory for durable checkpoints/results "
                             "(default: 'runs' when --checkpoint-every/--resume is "
                             "given, otherwise no store)")
    parser.add_argument("--checkpoint-every", type=int, default=None, metavar="N",
                        help="write a crash-safe checkpoint every N rounds "
                             "(0 = final snapshot only)")
    parser.add_argument("--resume", action="store_true",
                        help="skip seeds already completed in the store and "
                             "continue partial seeds from their newest checkpoint")
    parser.add_argument("--trace", action="store_true",
                        help="record a run-level trace (spans for capture, rounds, "
                             "client updates, aggregation, eval) and export it into "
                             "the run's store entry as Chrome trace_event JSON + "
                             "JSONL; results stay bit-identical")
    parser.add_argument("--profile", action="store_true",
                        help="additionally time engine kernels (im2col, linear, "
                             "batch-norm, ...) inside every client update; implies "
                             "--trace")


class SpecError(Exception):
    """A RunSpec could not be assembled from the CLI arguments."""


def _build_runner(args: argparse.Namespace) -> Runner:
    """Runner for bench/sweep, with a store when durability flags ask for one.

    ``--trace``/``--profile`` also imply a store: the exported trace artifacts
    live in the run's store entry.
    """
    store = args.store
    if store is None and (args.checkpoint_every is not None or args.resume
                          or args.trace or args.profile):
        store = "runs"
    try:
        return Runner(store=store, checkpoint_every=args.checkpoint_every)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc


def _build_spec(args: argparse.Namespace) -> RunSpec:
    """Assemble the RunSpec from an optional JSON file plus CLI overrides.

    Raises :class:`SpecError` with a user-facing message (no traceback) when
    the spec file is missing, malformed, or references unknown registry keys.
    """
    try:
        spec = RunSpec.load(args.spec) if args.spec else RunSpec()
    except OSError as exc:
        raise SpecError(f"cannot read spec file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec file {args.spec} is not valid JSON: {exc}") from exc
    except (KeyError, ValueError) as exc:
        raise SpecError(f"invalid spec {args.spec}: {_message(exc)}") from exc
    try:
        return _apply_spec_overrides(spec, args)
    except (KeyError, ValueError) as exc:
        raise SpecError(f"invalid spec after CLI overrides: {_message(exc)}") from exc


def _apply_spec_overrides(spec: RunSpec, args: argparse.Namespace) -> RunSpec:
    overrides = {}
    for attribute in ("kind", "strategy", "dataset", "model", "sampler", "scale",
                      "seeds", "executor", "concurrency"):
        value = getattr(args, attribute)
        if value is not None:
            overrides[attribute] = value
    if args.latency_regime is not None:
        overrides["latency_kwargs"] = {**spec.latency_kwargs,
                                       "regime": args.latency_regime}
    if args.workers is not None:
        if (args.executor or spec.executor) == "serial":
            raise ValueError(
                "--workers has no effect with the serial executor; "
                "add --executor thread|shm (or set executor in the spec)"
            )
        overrides["max_workers"] = args.workers
    config_overrides = dict(spec.config_overrides)
    if args.rounds is not None:
        config_overrides["num_rounds"] = args.rounds
    if args.dtype is not None:
        config_overrides["dtype"] = args.dtype
    if args.profile:
        config_overrides["profile"] = True
    if args.trace or args.profile:
        config_overrides["trace"] = True
    if config_overrides != spec.config_overrides:
        overrides["config_overrides"] = config_overrides
    if args.capture_cache is not None:
        dataset = overrides.get("dataset", spec.dataset)
        builder = DATASET_REGISTRY[dataset]
        if "capture_cache" not in inspect.signature(builder).parameters:
            raise ValueError(
                f"--capture-cache is not supported by dataset '{dataset}'; "
                f"its builder takes no 'capture_cache' argument"
            )
        overrides["dataset_kwargs"] = {**spec.dataset_kwargs,
                                       "capture_cache": args.capture_cache}
    return spec.with_overrides(**overrides) if overrides else spec


def _message(exc: Exception) -> str:
    """KeyError reprs quote their argument; unwrap for clean CLI output."""
    return exc.args[0] if exc.args else str(exc)


def _emit(result: ExperimentResult, output: Optional[str]) -> None:
    print(result.to_markdown())
    if output:
        report = write_report([result], output)
        print(f"Report written to {report}")


def _run_one(experiment_id: str, scale: str, seed: int) -> ExperimentResult:
    start = time.time()
    result = run_experiment(experiment_id, scale=scale, seed=seed)
    elapsed = time.time() - start
    print(result.to_markdown())
    print(f"\n[{experiment_id} completed in {elapsed:.1f}s at scale '{scale}']\n")
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        print("experiments:")
        for experiment_id, runner in EXPERIMENTS.items():
            # Each runner's docstring opens with its one-line description.
            description = (runner.__doc__ or "").strip().partition("\n")[0]
            print(f"  {experiment_id:<8s} {description}")
        for kind, registry in _REGISTRIES.items():
            print(f"{kind}: {', '.join(registry.available())}")
        print(f"run kinds: {', '.join(RUN_KINDS)}")
        print(f"latency regimes: {', '.join(LATENCY_REGIMES)}")
        return 0

    if args.command == "run":
        result = _run_one(args.experiment, args.scale, args.seed)
        if args.output:
            report = write_report([result], args.output)
            print(f"Report written to {report}")
        return 0

    if args.command == "run-all":
        results: List[ExperimentResult] = []
        for experiment_id in EXPERIMENTS:
            results.append(_run_one(experiment_id, args.scale, args.seed))
        if args.output:
            report = write_report(results, args.output)
            print(f"Report written to {report}")
        return 0

    if args.command == "bench":
        try:
            spec = _build_spec(args)
            runner = _build_runner(args)
        except SpecError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        start = time.time()
        try:
            result = runner.run(spec, resume=args.resume).to_experiment_result("bench")
        except (ValueError, RunStoreError, CheckpointError) as exc:
            print(f"error: {_message(exc)}", file=sys.stderr)
            return 2
        elapsed = time.time() - start
        _emit(result, args.output)
        if runner.store is not None:
            print(f"\n[run store: {runner.store.root}]")
            _print_trace_paths(runner.store, spec)
        print(f"\n[bench '{spec.label}' completed in {elapsed:.1f}s "
              f"over {len(spec.seeds)} seed(s)]")
        return 0

    if args.command == "sweep":
        try:
            spec = _build_spec(args)
            runner = _build_runner(args)
        except SpecError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        strategies = args.strategies or [spec.strategy]
        rows: List[List[object]] = []
        scalars = {}
        for strategy in strategies:
            try:
                variant = spec.with_overrides(strategy=strategy, name=strategy)
                run_result = runner.run(variant, resume=args.resume)
            except (KeyError, ValueError, RunStoreError, CheckpointError) as exc:
                print(f"error: {_message(exc)}", file=sys.stderr)
                return 2
            for seed, summary in zip(run_result.seeds, run_result.per_seed_summaries()):
                rows.append([strategy, seed, summary["worst_case"],
                             summary["variance"], summary["average"]])
            for key, value in run_result.summary.items():
                if key != "num_seeds":
                    scalars[f"{strategy}_{key}"] = value
        result = ExperimentResult(
            experiment_id="sweep",
            description=f"RunSpec sweep over strategies {list(strategies)} "
                        f"x seeds {list(spec.seeds)}",
            headers=["strategy", "seed", "worst_case", "variance", "average"],
            rows=rows,
            scalars=scalars,
            metadata={"spec": spec.to_dict(), "strategies": list(strategies)},
        )
        _emit(result, args.output)
        if runner.store is not None:
            print(f"\n[run store: {runner.store.root}]")
        return 0

    if args.command == "runs":
        return _runs_command(args)

    if args.command == "trace":
        return _trace_command(args)

    if args.command == "faults":
        return _faults_command(args)

    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


def _print_trace_paths(store: RunStore, spec: RunSpec) -> None:
    """After a traced bench, point at the exported artifacts per seed."""
    for seed in spec.seeds:
        entry_path = store.root / store.run_id(spec, seed)
        trace = entry_path / "trace.json"
        if trace.exists():
            print(f"[trace (seed {seed}): {trace} — load in Perfetto / "
                  f"chrome://tracing; 'repro trace {entry_path.name}' for a summary]")


def _print_obs_summary(summary: dict, top: int = 10) -> None:
    """Render an obs_summary.json payload: phases, kernels, client updates."""
    wall = float(summary.get("wall_seconds", 0.0))
    print(f"traced wall clock: {wall:.3f} s")
    phases = summary.get("phases", {})
    if phases:
        rows = [[name, f"{info['seconds']:.3f}",
                 f"{100.0 * info['seconds'] / wall:.1f}%" if wall > 0 else "-",
                 info["count"]]
                for name, info in sorted(phases.items())]
        print(format_table(["phase", "seconds", "share", "spans"], rows))
    updates = summary.get("client_updates", {})
    if updates.get("count"):
        print(f"client updates: {updates['count']} "
              f"(total {updates['seconds']:.3f} s, "
              f"mean {updates['seconds'] / updates['count']:.4f} s)")
    kernels = summary.get("kernels", {})
    if kernels:
        ranked = sorted(kernels.items(), key=lambda kv: -kv[1]["seconds"])[:top]
        rows = [[name, info["calls"], f"{info['seconds']:.3f}",
                 f"{1e3 * info['seconds'] / info['calls']:.3f}"]
                for name, info in ranked]
        print(f"kernels (top {len(ranked)} by total time):")
        print(format_table(["kernel", "calls", "seconds", "ms/call"], rows))


def _trace_command(args: argparse.Namespace) -> int:
    """Implement ``trace RUN_ID``: summarize a stored run's trace artifacts."""
    store = RunStore(args.store)
    try:
        entry = store.get(args.run_id)
    except RunStoreError as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return 2
    if not entry.obs_summary_path.exists():
        print(f"error: run '{args.run_id}' has no trace artifacts; re-run it "
              f"with --trace or --profile", file=sys.stderr)
        return 2
    summary = json.loads(entry.obs_summary_path.read_text(encoding="utf-8"))
    print(f"run: {entry.run_id}")
    _print_obs_summary(summary, top=args.top)
    for label, path in (("chrome trace", entry.trace_path),
                        ("event log", entry.events_path),
                        ("summary", entry.obs_summary_path)):
        if path.exists():
            print(f"{label}: {path}")
    return 0


def _print_fault_summary(faults: dict) -> None:
    """Render a history's ``metadata["faults"]`` block (one run/seed)."""
    kinds = faults.get("failure_kinds", {})
    kind_text = ", ".join(f"{kind}={count}"
                          for kind, count in sorted(kinds.items()))
    print(f"failures: {faults.get('total_failures', 0)}  "
          f"retries: {faults.get('total_retries', 0)}  "
          f"dropped clients: {faults.get('total_dropped', 0)}  "
          f"degraded rounds: {faults.get('degraded_rounds', 0)}")
    if kind_text:
        print(f"failure kinds: {kind_text}")


def _faults_command(args: argparse.Namespace) -> int:
    """Implement ``faults RUN_ID``: per-round fault table for a stored run."""
    store = RunStore(args.store)
    try:
        entry = store.get(args.run_id)
    except RunStoreError as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return 2
    if not entry.has_result():
        print(f"error: run '{args.run_id}' has no result yet", file=sys.stderr)
        return 2
    try:
        result = entry.load_result()
    except RunStoreError as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return 2
    history = result.get("history", {})
    rounds = history.get("rounds", [])
    print(f"run: {entry.run_id}")
    faulty = [r for r in rounds if r.get("num_failures")]
    if not faulty:
        print("no failures recorded (fault-free run, or no fault policy set)")
        return 0
    rows = []
    for record in faulty:
        kinds = ", ".join(f"{kind}={count}" for kind, count
                          in sorted(record.get("failure_kinds", {}).items()))
        dropped = record.get("dropped_clients", [])
        rows.append([record["round_index"], record["num_failures"],
                     record.get("num_retries", 0),
                     ",".join(str(c) for c in dropped) or "-",
                     kinds or "-"])
    print(format_table(["round", "failures", "retries", "dropped", "kinds"],
                       rows))
    faults = history.get("metadata", {}).get("faults")
    if faults:
        _print_fault_summary(faults)
    return 0


def _runs_command(args: argparse.Namespace) -> int:
    """Implement ``runs list`` / ``runs show`` over a :class:`RunStore`."""
    store = RunStore(args.store)
    if args.runs_command == "list":
        entries = store.list_runs()
        if not entries:
            print(f"no runs in store '{args.store}'")
            return 0
        rows: List[List[object]] = []
        for entry in entries:
            try:
                manifest = entry.manifest()
            except RunStoreError as exc:
                print(f"error: {_message(exc)}", file=sys.stderr)
                return 2
            spec = manifest.get("spec", {})
            rows.append([
                entry.run_id,
                manifest.get("status", "?"),
                spec.get("strategy", "?"),
                spec.get("dataset", "?"),
                manifest.get("seed", "?"),
                f"{manifest.get('rounds_completed', '?')}/{manifest.get('num_rounds', '?')}",
                len(entry.checkpoint_files()),
            ])
        print(format_table(
            ["run", "status", "strategy", "dataset", "seed", "rounds", "checkpoints"],
            rows,
        ))
        return 0

    # runs show RUN_ID
    try:
        entry = store.get(args.run_id)
        manifest = entry.manifest()
    except RunStoreError as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return 2
    print(json.dumps(manifest, indent=2, sort_keys=True))
    spec = manifest.get("spec", {})
    dtype = spec.get("config_overrides", {}).get("dtype", "float64")
    print(f"dtype: {dtype}")
    checkpoints = [path.name for path in entry.checkpoint_files()]
    print(f"checkpoints: {', '.join(checkpoints) if checkpoints else '(none)'}")
    if entry.has_result():
        try:
            result = entry.load_result()
        except RunStoreError as exc:
            print(f"error: {_message(exc)}", file=sys.stderr)
            return 2
        print(f"fingerprint: {result['fingerprint']}")
        history = result.get("history", {})
        if history.get("kind") == "federated_async":
            meta = history.get("metadata", {})
            print(f"simulated clock: {meta.get('virtual_hours', 0.0):.3f} h "
                  f"({meta.get('virtual_seconds', 0.0):.1f} s virtual)")
            print(f"commits: {meta.get('num_commits', '?')}  "
                  f"updates: {meta.get('num_updates', '?')}  "
                  f"lost: {meta.get('updates_lost', '?')}")
            print(f"staleness: mean {meta.get('mean_staleness', 0.0):.2f}, "
                  f"max {meta.get('max_staleness', 0)}")
        faults = history.get("metadata", {}).get("faults")
        if faults:
            print("faults:")
            _print_fault_summary(faults)
            print(f"  ('repro faults {entry.run_id}' for the per-round table)")
        print(format_table(["device", "metric"],
                           sorted(result["metrics"].items())))
    if entry.obs_summary_path.exists():
        print("trace:")
        summary = json.loads(entry.obs_summary_path.read_text(encoding="utf-8"))
        _print_obs_summary(summary)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
