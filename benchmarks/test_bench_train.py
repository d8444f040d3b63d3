"""Training-throughput benchmark: strategy × dtype rows on the flat engine.

Runs the Table 4 workload — the paper's MobileNetV3-small model over the
market-share device population — once per strategy in each compute dtype
and records the best round's wall clock into ``results/train.{md,json}``,
next to the median and interquartile range of all its rounds (the spread a
reader needs to tell a change from noise), plus a per-kernel breakdown of one
profiled round per dtype.

The float32 columns time the opt-in fast precision path
(``FLConfig.dtype="float32"``): final weights are asserted finite and
single-precision end to end (per-step tolerance against float64 is pinned at
smoke scale in tests/fl/test_dtype_equivalence.py; the golden path stays
float64-bitwise), the recorded aggregate float32-over-float64 speedup target
is >= 1.2x (gated at 1.05 to absorb shared-runner noise).  Agreement with
the seed per-parameter path is a test concern, not a timing one: see
tests/fl/test_train_engine.py and tests/oracle/seed_engine.py.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
from conftest import run_once

from repro.data.capture import build_device_datasets
from repro.data.partition import build_client_specs
from repro.eval.factories import make_model_factory
from repro.eval.results import ExperimentResult
from repro.fl.callbacks import Callback
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation
from repro.fl.strategies import create_strategy
from repro.obs import summarize_trace

# The Table 4 rows, in the paper's order.
STRATEGIES = ("fedavg", "isp_transform", "isp_swad", "heteroswitch",
              "qfedavg", "fedprox", "scaffold")
TRAIN_ROUNDS = 4
CLIENTS_PER_ROUND = 8
# Throughput is measured at a training-sized batch (not the scale preset's
# tiny smoke batch) so kernel time dominates interpreter overhead and the
# dtype comparison measures compute, not per-call dispatch.  The value is
# kept from earlier records so rows stay comparable across them.
BATCH_SIZE = 20


class _RoundTimer(Callback):
    """Collects per-round wall clock (client training + aggregation)."""

    def __init__(self) -> None:
        self.durations = []
        self._start = 0.0

    def on_round_start(self, sim, round_index) -> None:
        self._start = time.perf_counter()

    def on_round_end(self, sim, record, results) -> None:
        self.durations.append(time.perf_counter() - self._start)


def _config(scale, dtype, **overrides) -> FLConfig:
    settings = dict(
        num_clients=scale.num_clients,
        clients_per_round=min(CLIENTS_PER_ROUND, scale.num_clients),
        num_rounds=TRAIN_ROUNDS,
        local_epochs=scale.local_epochs,
        batch_size=BATCH_SIZE,
        learning_rate=scale.learning_rate,
        seed=0,
        dtype=dtype,
    )
    settings.update(overrides)
    return FLConfig(**settings)


def _run_strategy(strategy_name, bundle, clients, factory, scale, dtype):
    timer = _RoundTimer()
    sim = FederatedSimulation(factory, clients, bundle.test,
                              create_strategy(strategy_name), _config(scale, dtype),
                              callbacks=[timer])
    sim.run()
    return timer.durations, sim.global_state


def _round_stats(durations):
    """``(best, median, iqr)`` of the per-round wall clocks, in seconds.

    The best (minimum) round is the headline, not the mean: the first round
    pays dtype-independent one-off costs (im2col index plans, BLAS
    thread-pool spin-up) and a shared 1-core runner adds scheduling noise,
    so the fastest round is the steady-state cost.  The median and IQR of
    all rounds show how far that figure can be trusted.
    """
    q1, median, q3 = np.percentile(durations, [25, 50, 75])
    return min(durations), float(median), float(q3 - q1)


def _profile_kernels(strategy_name, bundle, clients, factory, scale, dtype):
    """One profiled run: per-kernel ``{name: {calls, seconds}}`` totals."""
    config = _config(scale, dtype, num_rounds=1, profile=True, trace=True)
    sim = FederatedSimulation(factory, clients, bundle.test,
                              create_strategy(strategy_name), config)
    sim.run()
    return summarize_trace(sim.tracer)["kernels"]


def _train_throughput(scale) -> ExperimentResult:
    bundle = build_device_datasets(
        samples_per_class_train=scale.samples_per_class_train,
        samples_per_class_test=scale.samples_per_class_test,
        num_classes=scale.num_classes,
        image_size=scale.image_size,
        scene_size=scale.scene_size,
        seed=0,
    )
    clients = build_client_specs(bundle.train, num_clients=scale.num_clients, seed=0)
    # The paper's Table 4 model: MobileNetV3-small (conv + depthwise + BN +
    # hard-swish), at the bench scale's image size and width.
    model_scale = dataclasses.replace(scale, model_name="mobilenetv3_small")
    factory = make_model_factory(model_scale, bundle.num_classes, bundle.image_size)

    rows = []
    scalars = {}
    total_float64 = 0.0
    total_float32 = 0.0
    for strategy_name in STRATEGIES:
        float64_rounds, _ = _run_strategy(
            strategy_name, bundle, clients, factory, scale, "float64")
        # The float32 fast path: same engine, single-precision compute.
        # No weight-space closeness assertion here: across multiple rounds of
        # batch-norm training the float32 trajectory legitimately diverges
        # from float64 (chaotic amplification, not a dtype leak) — per-step
        # tolerance is pinned at smoke scale in
        # tests/fl/test_dtype_equivalence.py.  The bench checks the result is
        # finite and actually single-precision end to end.
        float32_rounds, float32_state = _run_strategy(
            strategy_name, bundle, clients, factory, scale, "float32")
        for key, value in float32_state.items():
            assert value.dtype == np.float32, (
                f"{strategy_name}: '{key}' leaked out as {value.dtype}")
            assert np.all(np.isfinite(value)), (
                f"{strategy_name}: '{key}' is not finite under float32")
        float64_round, float64_median, float64_iqr = _round_stats(float64_rounds)
        float32_round, float32_median, float32_iqr = _round_stats(float32_rounds)
        float32_speedup = float64_round / float32_round
        total_float64 += float64_round
        total_float32 += float32_round
        rows.append([strategy_name,
                     f"{float64_round * 1e3:.1f}", f"{float64_median * 1e3:.1f}",
                     f"{float64_iqr * 1e3:.1f}",
                     f"{float32_round * 1e3:.1f}", f"{float32_median * 1e3:.1f}",
                     f"{float32_iqr * 1e3:.1f}", f"{float32_speedup:.2f}"])
        for dtype, best, median, iqr in (
                ("float64", float64_round, float64_median, float64_iqr),
                ("float32", float32_round, float32_median, float32_iqr)):
            scalars[f"{strategy_name}_{dtype}_round_s"] = best
            scalars[f"{strategy_name}_{dtype}_round_median_s"] = median
            scalars[f"{strategy_name}_{dtype}_round_iqr_s"] = iqr
        scalars[f"{strategy_name}_float32_speedup"] = float32_speedup

    float32_speedup_overall = total_float64 / total_float32
    rows.append(["ALL (aggregate)", f"{total_float64 * 1e3:.1f}", "-", "-",
                 f"{total_float32 * 1e3:.1f}", "-", "-",
                 f"{float32_speedup_overall:.2f}"])
    scalars["float32_speedup_overall"] = float32_speedup_overall

    # Where does a round actually go?  One profiled heteroswitch run per
    # dtype; repro.obs wraps the kernels in its KERNELS table (im2col,
    # col2im, matmul, fused linear/BN/CE, hardswish, optimizer step) for
    # the run and the totals land in the recorded table alongside the
    # throughput numbers.
    kernel_breakdowns = {
        dtype: _profile_kernels("heteroswitch", bundle, clients, factory,
                                scale, dtype)
        for dtype in ("float64", "float32")
    }
    for dtype, kernel_breakdown in kernel_breakdowns.items():
        kernel_total = sum(entry["seconds"]
                           for entry in kernel_breakdown.values())
        suffix = "" if dtype == "float64" else "_float32"
        for name, entry in sorted(kernel_breakdown.items(),
                                  key=lambda kv: -kv[1]["seconds"]):
            share = entry["seconds"] / kernel_total if kernel_total else 0.0
            ms = f"{entry['seconds'] * 1e3:.1f}"
            rows.append([f"kernel/{name} [{dtype}] ({entry['calls']} calls)",
                         ms if dtype == "float64" else "-", "-", "-",
                         ms if dtype == "float32" else "-", "-", "-",
                         f"{share:.2f}"])
            scalars[f"kernel{suffix}_{name}_s"] = entry["seconds"]

    # CI gate: float32 must never be slower than float64.  The aggregate
    # margin is kept below the locally-recorded ~1.2x so the gate fails on
    # real regressions, not on runner noise.
    assert float32_speedup_overall > 1.0, (
        f"float32 slower than float64: {float32_speedup_overall:.2f}x")

    return ExperimentResult(
        experiment_id="train",
        description=(
            "Best-round training wall clock on the Table 4 workload "
            "(MobileNetV3-small, market-share clients, "
            f"{CLIENTS_PER_ROUND} clients/round, {TRAIN_ROUNDS} rounds) on the "
            "flat-parameter engine, per compute dtype, with the median and "
            f"interquartile range of the {TRAIN_ROUNDS} rounds beside it "
            "(the *_median_ms and *_iqr_ms columns).  The float32 columns "
            "run under FLConfig.dtype='float32' (weights asserted finite and "
            "single-precision; float32_speedup is float32-over-float64).  The "
            "kernel/* rows break one profiled heteroswitch round down by "
            "engine kernel per dtype (the dtype's ms column = total ms, "
            "float32_speedup column = share of that dtype's kernel time)."
        ),
        headers=["strategy", "float64_ms_per_round", "float64_median_ms",
                 "float64_iqr_ms", "float32_ms_per_round", "float32_median_ms",
                 "float32_iqr_ms", "float32_speedup"],
        rows=rows,
        scalars=scalars,
        metadata={"scale": scale.name, "model": "mobilenetv3_small",
                  "rounds": TRAIN_ROUNDS, "clients_per_round": CLIENTS_PER_ROUND,
                  "kernel_breakdown": kernel_breakdowns["float64"],
                  "kernel_breakdown_float32": kernel_breakdowns["float32"]},
    )


def test_bench_train_throughput(benchmark, bench_scale):
    result = run_once(benchmark, _train_throughput, bench_scale)
    print()
    print(result.to_markdown())
    # The float32 fast path's target is >= 1.2x aggregate over float64;
    # that is what results/train.{md,json} record under single-threaded
    # BLAS.  The CI failure condition is "float32 got slower than float64" —
    # gated here at 1.05 because the ratio is overhead-bound at bench scale
    # (~0.05x of run-to-run scheduler noise on a shared runner), so only
    # real regressions trip it.
    assert result.scalars["float32_speedup_overall"] >= 1.05
