"""Tracing must be purely observational: fingerprints never move.

The headline guarantee of repro.obs — turning on tracing + per-kernel
profiling changes *nothing* about a run's numbers.  Each strategy's golden
fingerprint comes from an untraced serial run; traced runs (serial, thread
and shm) must reproduce it bit-for-bit.
"""

import json

import pytest

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


@pytest.mark.parametrize("strategy", ["fedavg", "heteroswitch"])
def test_traced_thread_run_matches_untraced_golden(tmp_path, strategy):
    """Concurrent clients on the thread executor nest the profiler's
    install/uninstall; results stay untouched and, once the run is over,
    every kernel is the undecorated function again."""
    golden, _ = run_fingerprint_of(
        tmp_path, "golden", make_spec(strategy, traced=False))
    traced_thread, entry = run_fingerprint_of(
        tmp_path, "thread", make_spec(strategy, traced=True, executor="thread"))
    assert traced_thread == golden
    summary = json.loads(entry.obs_summary_path.read_text())
    assert summary["kernels"]
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
