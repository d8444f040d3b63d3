"""Shared configuration for the benchmark harness.

Each benchmark regenerates one table or figure of the paper (the experiment
index is ``repro.eval.experiments.EXPERIMENTS``) by running the corresponding experiment runner and printing
the regenerated rows.  pytest-benchmark records the wall-clock cost of the
full regeneration (one iteration — these are experiment pipelines, not
micro-benchmarks).

The scale can be tuned with the ``REPRO_BENCH_SCALE`` environment variable:

* ``bench`` (default) — a middle ground sized so the whole suite finishes in
  minutes on a laptop CPU while still showing the paper's qualitative shapes.
* ``smoke``           — the test-suite scale (fastest, weakest signal).
* ``default`` / ``paper`` — the larger presets from :mod:`repro.eval.scale`.

The tracked tables under ``benchmarks/results/`` are rewritten only when the
run asks for it with ``--bench-results`` (give the benchmark files on the
command line, so pytest loads this conftest and knows the option)::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_train.py --bench-results

A plain ``pytest`` run still runs every benchmark and its gates, and leaves
the recorded results as they are.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.eval.scale import SCALES, ExperimentScale, get_scale

# The test oracles (``tests/oracle``) are importable as ``oracle`` here too,
# so a benchmark can time the code it replaced.  Appended, so this directory's
# own ``conftest`` keeps precedence over the test suite's.
sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "tests"))

# A preset between "smoke" and "default": full 9-device coverage with a small
# CNN-free model so every table/figure regenerates in tens of seconds.
BENCH_SCALE = ExperimentScale(
    name="bench",
    samples_per_class_train=8,
    samples_per_class_test=6,
    num_classes=6,
    image_size=16,
    scene_size=32,
    num_clients=24,
    clients_per_round=8,
    num_rounds=24,
    local_epochs=1,
    batch_size=6,
    learning_rate=0.025,
    central_epochs=12,
    model_name="simple_mlp",
    width_mult=1.0,
)


def resolve_bench_scale() -> ExperimentScale:
    """Pick the benchmark scale from the environment (default: ``bench``)."""
    name = os.environ.get("REPRO_BENCH_SCALE", "bench")
    if name == "bench":
        return BENCH_SCALE
    return get_scale(name)


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption("--bench-results", action="store_true", default=False,
                     help="write the regenerated tables to benchmarks/results/")


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    return resolve_bench_scale()


@pytest.fixture
def benchmark(benchmark, request):
    """pytest-benchmark's fixture, marked with whether to record results."""
    # getoption's default covers runs that load this conftest only after
    # parsing the command line (``pytest`` from the root), where the option
    # cannot have been given.
    benchmark.write_results = request.config.getoption("--bench-results", default=False)
    return benchmark


RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing.

    With ``--bench-results`` the regenerated table is also written to
    ``benchmarks/results/<id>.md`` (human-readable, survives pytest's stdout
    capture) and ``benchmarks/results/<id>.json`` (the full
    ``ExperimentResult`` record, reloadable via ``ExperimentResult.from_json``
    for downstream tooling).
    """
    result = benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
    experiment_id = getattr(result, "experiment_id", None)
    if experiment_id is not None and benchmark.write_results:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, f"{experiment_id}.md")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(result.to_markdown() + "\n")
        json_path = os.path.join(RESULTS_DIR, f"{experiment_id}.json")
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write(result.to_json() + "\n")
    return result
