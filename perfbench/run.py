"""The repository benchmark: federated experiments end to end through ``Runner``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table4_f64_serial --seed 1 --seconds 40 --trace 0

A run executes a fixed number of *experiments* of the workload (see
``workloads.py``), one after another, each in its own process and on a seed
derived from ``--seed``; the last one repeats the first one's seed.  The
number is ``ceil(--seconds / nominal experiment time)``, at least three, so
every commit does the same work for the same ``--seconds``.  Each experiment has a wall-clock deadline; one that
misses it is killed with its workers, its shared-memory segments are unlinked
and its unfinished client jobs count as failed.  Nothing is rerun.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one untraced
and then one traced experiment on the same seed and prints the per-layer
metrics of the traced one (``layers.py``); end-to-end metrics never come from
a traced experiment.

Every experiment is checked: losses and metrics are finite, and the run
fingerprint (``repro.store.run_fingerprint`` of the final weights and
per-device metrics) equals the one the run store saved.  Experiments of one
run at the same seed must give the same fingerprint and, under fault
injection, the same per-round failure, retry and drop counts.  Only
experiments of the same invocation are compared, so the verdict depends on
the code being measured and nothing else.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the machine fingerprint, each experiment with its host steal time and
the paper's per-device columns (mean, worst case, variance), and every metric
with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A run must end well inside the 180 s a benchmark invocation is given.
RUN_BUDGET_S = 150.0
END_TO_END = {
    "setup_s": "s", "run_s": "s", "round_p50_s": "s", "round_tail_s": "s",
    "samples_per_s": "samples/s", "cpu_s": "s", "peak_rss_mib": "MiB",
}


def machine_fingerprint(workers: int) -> Dict[str, object]:
    """Host facts recorded with every result (they explain, never filter)."""
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "shm_workers": workers,
    }


def _shm_segments() -> set:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


def _unlink_new_segments(before: set) -> List[str]:
    """Unlink the shared-memory segments created since ``before``; name them."""
    leaked = sorted(_shm_segments() - before)
    for name in leaked:
        try:
            os.unlink(f"/dev/shm/{name}")
        except FileNotFoundError:
            pass
    return leaked


def _group_alive(pgid: int) -> bool:
    """Whether any non-zombie process of the process group still exists."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def _stop_group(pgid: int, grace_s: float) -> None:
    """Give a process group ``grace_s`` to end, then SIGKILL it and wait."""
    deadline = time.monotonic() + grace_s
    while _group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    deadline = time.monotonic() + 10.0
    while _group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


def run_experiment(workload: Workload, seed: int, workers: int, index: int,
                   deadline_s: float, traced: bool) -> Dict:
    """Run one experiment process; return its record (or what survived of it)."""
    workdir = STATE / "work" / f"{index}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    out, progress = workdir / "record.json", workdir / "progress.jsonl"
    command = [sys.executable, str(HERE / "experiment.py"),
               "--workload", workload.name, "--seed", str(seed),
               "--workers", str(workers), "--workdir", str(workdir)]
    if traced:
        command.append("--traced")
    segments_before = _shm_segments()
    timed_out = False
    with open(workdir / "stderr.txt", "wb") as stderr:
        process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                                   stderr=stderr, process_group=0)
        try:
            process.wait(timeout=deadline_s)
        except subprocess.TimeoutExpired:
            timed_out = True
        finally:
            # The experiment's shm workers and resource tracker share its
            # process group; none may outlive the experiment (or this run,
            # should it be interrupted).
            exited = process.poll() is not None
            _stop_group(process.pid, grace_s=5.0 if exited else 0.0)
            process.wait()
            leaked = _unlink_new_segments(segments_before)
    if out.exists() and not timed_out and process.returncode == 0:
        record = json.loads(out.read_text(encoding="utf-8"))
        record.update(completed=True, leaked_segments=leaked)
        shutil.rmtree(workdir, ignore_errors=True)
        return record
    rounds = []
    if progress.exists():
        rounds = [json.loads(line) for line in progress.read_text(encoding="utf-8").splitlines()
                  if line.strip()]
    stderr_tail = (workdir / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
    return {"seed": seed, "completed": False, "timed_out": timed_out,
            "returncode": process.returncode, "rounds": rounds, "leaked_segments": leaked,
            "stderr_tail": stderr_tail}


def job_counts(workload: Workload, records: List[Dict]) -> Dict[str, int]:
    """Client jobs attempted and failed; a job that never returned has failed."""
    attempted = failed = 0
    for record in records:
        rounds = record["rounds"]
        attempted += sum(row["attempts"] for row in rounds)
        failed += sum(row["failures"] for row in rounds)
        if not record["completed"]:
            unfinished = (workload.rounds - len(rounds)) * workload.clients_per_round
            attempted += unfinished
            failed += unfinished
    return {"attempted": attempted, "failed": failed}


def end_to_end(records: List[Dict]) -> Dict[str, float]:
    """The end-to-end metrics of a run's completed experiments."""
    done = [record for record in records if record["completed"]]
    if not done:
        return {}
    # Rounds are pooled over the run's experiments.
    durations = sorted(row["end"] - row["start"] for record in done
                       for row in record["rounds"])
    return {
        "setup_s": statistics.median(record["setup_s"] for record in done),
        "run_s": statistics.median(record["run_s"] for record in done),
        "round_p50_s": statistics.median(durations),
        "round_tail_s": durations[tail_index(len(durations))],
        "samples_per_s": sum(row["samples"] for record in done for row in record["rounds"])
        / sum(durations),
        "cpu_s": statistics.median(record["cpu_s"] for record in done),
        "peak_rss_mib": statistics.median(record["peak_rss_mib"] for record in done),
    }


def tail_index(count: int) -> int:
    """Index of the tail round in ``count`` sorted rounds: the 11th-longest,
    which has 10 rounds beyond it, or the longest when there are fewer."""
    return count - 11 if count > 10 else count - 1


def per_layer(untraced: Dict, traced: Dict) -> Dict[str, float]:
    """The traced experiment's per-layer metrics, with the remainder rows."""
    metrics = dict(traced["layers"])
    rounds = traced["rounds"]
    metrics["faults.attempts"] = float(sum(row["attempts"] for row in rounds
                                           if row["tolerant"]))
    metrics["faults.failures"] = float(sum(row["failures"] for row in rounds))
    metrics["faults.retries"] = float(sum(row["retries"] for row in rounds))
    metrics["faults.dropped"] = float(sum(row["dropped"] for row in rounds))
    attributed = sum(metrics[name] for name in layers.TOP_LEVEL)
    metrics["trace.attributed_share"] = attributed / traced["wall_s"]
    metrics["trace.unattributed_s"] = traced["wall_s"] - attributed
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return {name: metrics[name] for name in layers.LAYER_METRICS}


def check_outputs(records: List[Dict]) -> List[str]:
    """Every reason the run's outputs are wrong; empty when they are right."""
    problems = []
    first_at_seed: Dict[int, Dict] = {}
    for record in records:
        seed = record["seed"]
        if not record["completed"]:
            why = "missed its deadline" if record.get("timed_out") else \
                f"exited with code {record.get('returncode')}"
            problems.append(f"seed {seed}: experiment {why}")
            continue
        if not record["finite"]:
            problems.append(f"seed {seed}: non-finite loss, metric or weight")
        if record["fingerprint"] != record["stored_fingerprint"]:
            problems.append(f"seed {seed}: fingerprint differs from the run store's")
        outcome = {"fingerprint": record["fingerprint"],
                   "faults": [[row["failures"], row["retries"], row["dropped"]]
                              for row in record["rounds"]]}
        if first_at_seed.setdefault(seed, outcome) != outcome:
            problems.append(f"seed {seed}: fingerprint or fault counts differ from the "
                            f"run's first experiment at this seed")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so running experiments are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload '{args.workload}'; "
              f"available: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    # Experiments inherit the pins; experiment.py sets them again for
    # standalone use, before numpy loads.
    os.environ.update({name: "1" for name in THREAD_ENV})
    workers = max(1, len(os.sched_getaffinity(0)) - 1)
    machine = machine_fingerprint(workers)
    print(f"machine: {json.dumps(machine, sort_keys=True)}")

    started = time.monotonic()
    base_seed = args.seed * 1000
    if args.trace:
        plan = [(base_seed, False), (base_seed, True)]
    else:
        count = workload.experiments(args.seconds)
        plan = [(base_seed + k, False) for k in range(count - 1)] + [(base_seed, False)]
    records: List[Dict] = []
    for index, (seed, traced) in enumerate(plan):
        remaining = RUN_BUDGET_S - (time.monotonic() - started)
        if remaining < 2 * workload.nominal_s:
            print(f"skipped: {len(plan) - index} experiment(s), the run budget is spent")
            break
        deadline = min(remaining, max(30.0, 5 * workload.nominal_s))
        record = run_experiment(workload, seed, workers, index, deadline, traced)
        record["traced"] = traced
        records.append(record)
        _print_experiment(record)

    problems = check_outputs(records)
    metrics: Dict[str, float] = {}
    if not args.trace:
        metrics, units = end_to_end(records), END_TO_END
        rounds = sum(len(record["rounds"]) for record in records if record["completed"])
        if metrics:
            print(f"round_tail_s: p{100.0 * (tail_index(rounds) + 1) / rounds:.1f} "
                  f"of {rounds} rounds")
    else:
        units = layers.LAYER_METRICS
        if len(records) == 2 and all(record["completed"] for record in records):
            metrics = per_layer(records[0], records[1])
    if not metrics:
        problems.append("no metrics: the experiments they need did not complete")
    counts = job_counts(workload, records)
    for name, value in metrics.items():
        print(f"  {name:28s} {value:>16.6f} {units[name]}")
    print(f"check: {'PASS' if not problems else 'FAIL'}")
    for problem in problems:
        print(f"  {problem}")
    result = {
        "correct": not problems,
        "attempted": max(1, counts["attempted"]),
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _print_experiment(record: Dict) -> None:
    label = "traced" if record["traced"] else "untraced"
    if not record["completed"]:
        print(f"experiment seed={record['seed']} ({label}): INCOMPLETE after "
              f"{len(record['rounds'])} round(s); timed_out={record['timed_out']} "
              f"returncode={record['returncode']} unlinked={record['leaked_segments']}")
        print("  " + record["stderr_tail"].strip().replace("\n", "\n  "))
        return
    summary = record["summary"]
    print(f"experiment seed={record['seed']} ({label}): wall={record['wall_s']:.3f}s "
          f"setup={record['setup_s']:.3f}s run={record['run_s']:.3f}s "
          f"cpu={record['cpu_s']:.3f}s steal={record['steal_s']:.2f}s "
          f"blas_threads={record['blas_threads']} fingerprint={record['fingerprint'][:16]}")
    print(f"  per-device: mean={summary['average']:.4f} worst={summary['worst_case']:.4f} "
          f"variance={summary['variance']:.4f}")


if __name__ == "__main__":
    sys.exit(main())
