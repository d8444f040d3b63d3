"""Tracing must be purely observational: fingerprints never move.

The headline guarantee of repro.obs — turning on tracing + per-kernel
profiling changes *nothing* about a run's numbers.  Each strategy's golden
fingerprint comes from an untraced serial run; traced runs (serial and shm)
must reproduce it bit-for-bit.
"""

import dataclasses
import json
import threading

import pytest
from oracle.threads import side_by_side

from repro.fl.simulation import FederatedSimulation
from repro.fl.strategies import create_strategy
from repro.nn.serialization import state_fingerprint
from repro.obs import summarize_trace
from repro.obs.profiling import KERNELS, kernel_slot
from repro.runtime import Runner, RunSpec, RunStore

DEVICES = ["Pixel5", "S6", "G7"]

STRATEGIES = ["fedavg", "fedprox", "heteroswitch", "qfedavg", "scaffold"]


def make_spec(strategy, *, traced, executor="serial", **overrides):
    config = {"num_rounds": 2}
    if traced:
        config.update(trace=True, profile=True)
    base = dict(strategy=strategy, dataset="device_capture",
                dataset_kwargs={"devices": DEVICES}, scale="smoke",
                config_overrides=config, seeds=[0], executor=executor)
    if executor != "serial":
        base["max_workers"] = 2
    base.update(overrides)
    return RunSpec(**base)


def run_fingerprint_of(tmp_path, name, spec):
    runner = Runner(store=tmp_path / name)
    runner.run(spec)
    [entry] = RunStore(tmp_path / name).list_runs()
    return entry.load_result()["fingerprint"], entry


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_traced_run_matches_untraced_golden(tmp_path, strategy):
    golden, _ = run_fingerprint_of(
        tmp_path, "golden", make_spec(strategy, traced=False))
    traced_serial, entry = run_fingerprint_of(
        tmp_path, "serial", make_spec(strategy, traced=True))
    assert traced_serial == golden
    # Trace artifacts exist, and tracing did not leak into result metadata.
    assert entry.trace_path.exists()
    result = entry.load_result()
    assert "obs" not in json.dumps(result["history"])
    # Once the run is over, every kernel is the undecorated function again.
    for module, path, row in KERNELS:
        assert not hasattr(getattr(*kernel_slot(module, path)), "__wrapped__"), row


@pytest.mark.parametrize("strategy", ["fedavg", "heteroswitch"])
def test_traced_shm_run_matches_untraced_golden(tmp_path, strategy):
    """Cross-process collection (packed scalars over each shm worker's pipe)
    must also leave results untouched."""
    golden, _ = run_fingerprint_of(
        tmp_path, "golden", make_spec(strategy, traced=False))
    traced_shm, entry = run_fingerprint_of(
        tmp_path, "shm", make_spec(strategy, traced=True, executor="shm"))
    assert traced_shm == golden
    summary = json.loads(entry.obs_summary_path.read_text())
    assert summary["client_updates"]["count"] > 0  # payloads crossed processes
    assert summary["kernels"]  # with per-kernel breakdowns


class _Lockstep:
    """Wraps a strategy so each client update waits for one on the other
    thread at its start and again at its end: two runs made side by side
    are inside profiled client scopes at the same time on every client."""

    def __init__(self, inner, barrier):
        self._inner = inner
        self._barrier = barrier

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def client_update(self, model, spec, global_vec, context):
        self._barrier.wait(timeout=30)
        try:
            return self._inner.client_update(model, spec, global_vec, context)
        finally:
            self._barrier.wait(timeout=30)


@pytest.mark.parametrize("strategy", ["fedavg", "heteroswitch"])
def test_profiled_runs_side_by_side_keep_their_kernel_totals(
        strategy, tiny_bundle, tiny_clients, tiny_fl_config, tiny_model_fn):
    """Two traced, profiled runs on two threads of one process, their client
    updates in lockstep: the profiler's activations nest and its per-thread
    totals stay apart, so each run reproduces the untraced fingerprint and
    the kernel call counts of a traced run made alone, and afterwards every
    kernel is undecorated."""
    def run(config, strategy_obj):
        sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                  strategy_obj, config)
        sim.run()
        calls = ({} if sim.tracer is None else
                 {name: kernel["calls"] for name, kernel in
                  summarize_trace(sim.tracer)["kernels"].items()})
        return state_fingerprint(sim.global_state), calls

    traced = dataclasses.replace(tiny_fl_config, trace=True, profile=True)
    golden, _ = run(tiny_fl_config, create_strategy(strategy))
    alone = run(traced, create_strategy(strategy))
    lockstep = threading.Barrier(2)
    runs = side_by_side(*(
        lambda: run(traced, _Lockstep(create_strategy(strategy), lockstep))
        for _ in range(2)))
    assert alone[1]
    assert alone == (golden, alone[1])
    assert runs == [alone, alone]
    for module, path, row in KERNELS:
        assert not hasattr(getattr(*kernel_slot(module, path)), "__wrapped__"), row


def test_traced_async_run_matches_untraced_golden(tmp_path):
    golden, _ = run_fingerprint_of(
        tmp_path, "golden",
        make_spec("fedbuff", traced=False, kind="federated_async"))
    traced, entry = run_fingerprint_of(
        tmp_path, "traced",
        make_spec("fedbuff", traced=True, kind="federated_async"))
    assert traced == golden
    # Async spans carry the virtual clock.
    events = [json.loads(line) for line in
              entry.events_path.read_text().splitlines()]
    assert any(e.get("vstart") is not None for e in events)
    assert any(e["kind"] == "instant" and e["name"] == "commit" for e in events)


def test_trace_and_profile_share_run_directory_with_untraced(tmp_path):
    """trace/profile are result-neutral spec fields: same spec hash, so a
    traced run resumes (and dedups) against an untraced one."""
    store = RunStore(tmp_path / "store")
    untraced, traced = make_spec("fedavg", traced=False), make_spec("fedavg", traced=True)
    assert store.run_id(untraced, 0) == store.run_id(traced, 0)


class _InterruptRun(Exception):
    pass


def test_resumed_traced_run_annotates_the_gap(tmp_path):
    """A run resumed from a checkpoint starts its trace with a resume_gap
    instant (the earlier rounds happened in another process/trace)."""
    from repro.fl.callbacks import CALLBACK_REGISTRY, Callback

    class _CrashOnce(Callback):
        armed = True

        def __init__(self, after_round):
            self.after_round = after_round

        def on_round_start(self, sim, round_index):
            if _CrashOnce.armed and round_index > self.after_round:
                _CrashOnce.armed = False
                raise _InterruptRun()

    CALLBACK_REGISTRY.replace("crash_once_obs", _CrashOnce)
    try:
        spec = make_spec("fedavg", traced=True,
                         config_overrides={"num_rounds": 3, "trace": True,
                                           "profile": True},
                         callbacks={"crash_once_obs": {"after_round": 0}})
        runner = Runner(store=tmp_path / "store", checkpoint_every=1)
        with pytest.raises(_InterruptRun):
            runner.run(spec)
        runner.run(spec, resume=True)
        [entry] = RunStore(tmp_path / "store").list_runs()
        assert entry.status() == "completed"
        events = [json.loads(line) for line in
                  entry.events_path.read_text().splitlines()]
        gaps = [e for e in events if e["name"] == "resume_gap"]
        assert len(gaps) == 1
        assert gaps[0]["attrs"]["next_round"] == 1
        # The resumed trace only spans the remaining rounds.
        clients = [e for e in events if e["name"] == "clients"]
        assert len(clients) == 2
    finally:
        CALLBACK_REGISTRY.unregister("crash_once_obs")
        _CrashOnce.armed = True
