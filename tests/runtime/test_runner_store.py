"""Runner + RunStore integration: durable runs, resume, executor lifecycle."""

import numpy as np
import pytest
from oracle.states import states_equal

from repro.fl.callbacks import CALLBACK_REGISTRY, Callback
from repro.fl.execution import EXECUTOR_REGISTRY, SerialExecutor
from repro.runtime import Runner, RunSpec, RunStore
from repro.store import RunStoreError, run_fingerprint

DEVICES = ["Pixel5", "S6", "G7"]


def make_spec(**overrides):
    base = dict(strategy="fedavg", dataset="device_capture",
                dataset_kwargs={"devices": DEVICES}, scale="smoke",
                config_overrides={"num_rounds": 3}, seeds=[0])
    base.update(overrides)
    return RunSpec(**base)


class _Boom(Exception):
    pass


class _CrashAfterRound(Callback):
    """Simulates a crash: raises once the given round has completed (and been
    checkpointed).  One-shot via the class-level ``armed`` flag so the same
    spec — callbacks are part of the run key — can be resumed afterwards."""

    armed = True

    def __init__(self, after_round: int) -> None:
        self.after_round = after_round

    def on_round_start(self, sim, round_index) -> None:
        if _CrashAfterRound.armed and round_index > self.after_round:
            _CrashAfterRound.armed = False
            raise _Boom(f"simulated crash before round {round_index}")


class TestStoredRuns:
    def test_store_records_result_and_checkpoints(self, tmp_path):
        store = RunStore(tmp_path / "store")
        runner = Runner(store=store, checkpoint_every=1)
        result = runner.run(make_spec())
        [entry] = store.list_runs()
        assert entry.status() == "completed"
        assert [p.name for p in entry.checkpoints()] == \
            ["round_00001.npz", "round_00002.npz", "round_00003.npz"]
        assert (entry.checkpoint_dir / "final.npz").exists()
        stored = entry.load_result()
        assert stored["metrics"] == result.history.per_device_metric
        final_state = entry.load_checkpoint(entry.checkpoint_dir / "final.npz")
        assert stored["fingerprint"] == run_fingerprint(
            final_state["global_state"], stored["metrics"])

    def test_store_accepts_plain_path(self, tmp_path):
        runner = Runner(store=tmp_path / "store", checkpoint_every=2)
        runner.run(make_spec())
        [entry] = RunStore(tmp_path / "store").list_runs()
        assert [p.name for p in entry.checkpoints()] == ["round_00002.npz"]

    def test_stored_run_matches_storeless_run(self, tmp_path):
        plain = Runner().run(make_spec())
        stored = Runner(store=tmp_path / "store", checkpoint_every=1).run(make_spec())
        assert stored.history.per_device_metric == plain.history.per_device_metric

    def test_centralized_spec_with_store_rejected(self, tmp_path):
        runner = Runner(store=tmp_path / "store")
        spec = RunSpec(kind="centralized", dataset="scenes", scale="smoke")
        with pytest.raises(ValueError, match="federated"):
            runner.run(spec)

    def test_resume_without_store_rejected(self):
        with pytest.raises(ValueError, match="requires a Runner constructed with a store"):
            Runner().run(make_spec(), resume=True)

    def test_invalid_checkpoint_every_rejected(self, tmp_path):
        for bad in (-1, 1.5, True, "two"):
            with pytest.raises(ValueError, match="checkpoint_every"):
                Runner(store=tmp_path / "store", checkpoint_every=bad)


class TestCrashResume:
    def test_crash_then_resume_is_bitwise_identical(self, tmp_path):
        """The end-to-end headline: a run killed mid-flight resumes to the
        exact same fingerprint (weights + metrics) as an uninterrupted run."""
        reference = Runner(store=tmp_path / "ref", checkpoint_every=1)
        reference.run(make_spec())
        [ref_entry] = RunStore(tmp_path / "ref").list_runs()

        crashing = Runner(store=tmp_path / "crash", checkpoint_every=1)
        crash_spec = make_spec(callbacks={"crash_after_round": {"after_round": 0}})
        with pytest.raises(_Boom):
            crashing.run(crash_spec)
        [crash_entry] = RunStore(tmp_path / "crash").list_runs()
        assert crash_entry.status() == "running"
        assert not crash_entry.has_result()
        assert [p.name for p in crash_entry.checkpoints()] == ["round_00001.npz"]

        resumed = Runner(store=tmp_path / "crash", checkpoint_every=1)
        resumed.run(crash_spec, resume=True)
        [done_entry] = RunStore(tmp_path / "crash").list_runs()
        assert done_entry.status() == "completed"
        assert done_entry.load_result()["fingerprint"] == \
            ref_entry.load_result()["fingerprint"]
        ref_state = ref_entry.load_checkpoint(ref_entry.checkpoint_dir / "final.npz")
        done_state = done_entry.load_checkpoint(done_entry.checkpoint_dir / "final.npz")
        assert states_equal(ref_state["global_state"], done_state["global_state"])

    def test_resume_skips_completed_seeds_and_continues_partial(self, tmp_path):
        """A killed multi-seed run keeps its finished seeds: resume loads seed
        0 from the store (no re-execution) and only runs the missing seed."""
        spec = make_spec(seeds=[0, 1])
        reference = Runner().run(spec)

        store = RunStore(tmp_path / "store")
        runner = Runner(store=store, checkpoint_every=1)
        runner.run(make_spec(seeds=[0]))  # seed 0 completes, then the "crash"
        [entry0] = store.list_runs()
        result_mtime = entry0.result_path.stat().st_mtime_ns

        resumed = runner.run(spec, resume=True)
        assert entry0.result_path.stat().st_mtime_ns == result_mtime  # untouched
        assert len(store.list_runs()) == 2
        assert [h.per_device_metric for h in resumed.histories] == \
            [h.per_device_metric for h in reference.histories]
        assert resumed.summary == reference.summary

    def test_resume_of_completed_seed_skips_dataset_construction(self, tmp_path,
                                                                 monkeypatch):
        """Loading a stored result must not pay for building the dataset."""
        store = RunStore(tmp_path / "store")
        Runner(store=store, checkpoint_every=1).run(make_spec())

        fresh = Runner(store=store, checkpoint_every=1)

        def forbidden(spec, seed):
            raise AssertionError("resume of a completed seed built a dataset bundle")

        monkeypatch.setattr(fresh, "build_bundle", forbidden)
        result = fresh.run(make_spec(), resume=True)
        [entry] = store.list_runs()
        assert result.history.per_device_metric == entry.load_result()["metrics"]

    def test_resume_on_fresh_store_runs_normally(self, tmp_path):
        runner = Runner(store=tmp_path / "store", checkpoint_every=1)
        result = runner.run(make_spec(), resume=True)
        assert Runner().run(make_spec()).history.per_device_metric == \
            result.history.per_device_metric


class TestLegacyEngineSpecs:
    """Specs stored before the seed training engine was removed carry
    ``config_overrides["train_engine"] == "flat"``.  They still build, hash
    to the run ids the store gave them then, run, and resume."""

    LEGACY = {"num_rounds": 3, "train_engine": "flat"}
    # spec_hash of make_spec(config_overrides=LEGACY), without and with the
    # crash callback, as computed while the engine override still existed.
    HASHES = ("0ec705ddb9774375b7380533c786d7ce86d9b456017307d031837c985261e4a0",
              "2ed43471e98262fc75f87c3dd298f12a940b0785027f0913ce8891167034ef80")

    def test_legacy_spec_hash_unchanged(self):
        from repro.store import spec_hash

        plain = make_spec(config_overrides=dict(self.LEGACY))
        crashing = make_spec(config_overrides=dict(self.LEGACY),
                             callbacks={"crash_after_round": {"after_round": 0}})
        assert (spec_hash(plain), spec_hash(crashing)) == self.HASHES
        assert RunSpec.from_dict(plain.to_dict()).config_overrides == self.LEGACY

    def test_legacy_spec_resumes_to_the_modern_result(self, tmp_path):
        modern = Runner().run(make_spec())
        spec = make_spec(config_overrides=dict(self.LEGACY),
                         callbacks={"crash_after_round": {"after_round": 0}})
        with pytest.raises(_Boom):
            Runner(store=tmp_path / "store", checkpoint_every=1).run(spec)
        [entry] = RunStore(tmp_path / "store").list_runs()
        assert entry.manifest()["spec_hash"] == self.HASHES[1]
        stored = RunSpec.from_dict(entry.manifest()["spec"])
        resumed = Runner(store=tmp_path / "store", checkpoint_every=1).run(stored, resume=True)
        assert entry.status() == "completed"
        assert resumed.history.per_device_metric == modern.history.per_device_metric


@pytest.fixture(autouse=True)
def crash_callback_registered():
    CALLBACK_REGISTRY.replace("crash_after_round", _CrashAfterRound)
    _CrashAfterRound.armed = True
    yield
    CALLBACK_REGISTRY.unregister("crash_after_round")


class _TrackingExecutor(SerialExecutor):
    """Serial executor that records whether close() was called."""

    instances = []

    def __init__(self, max_workers=None):
        super().__init__(max_workers)
        self.closed = False
        _TrackingExecutor.instances.append(self)

    def close(self):
        self.closed = True
        super().close()


@pytest.fixture
def tracking_executor_registered():
    _TrackingExecutor.instances = []
    EXECUTOR_REGISTRY.replace("tracking", _TrackingExecutor)
    yield _TrackingExecutor
    EXECUTOR_REGISTRY.unregister("tracking")


class TestExecutorLifecycle:
    """Audit: the runner closes its executor even when the run blows up."""

    def test_executor_closed_on_clean_run(self, tracking_executor_registered):
        Runner().run(make_spec(executor="tracking"))
        [executor] = tracking_executor_registered.instances
        assert executor.closed

    def test_executor_closed_when_callback_raises_mid_run(
            self, tracking_executor_registered):
        spec = make_spec(executor="tracking",
                         callbacks={"crash_after_round": {"after_round": 0}})
        with pytest.raises(_Boom):
            Runner().run(spec)
        [executor] = tracking_executor_registered.instances
        assert executor.closed

    def test_executor_closed_when_simulation_construction_fails(
            self, tracking_executor_registered, monkeypatch):
        import repro.runtime.runner as runner_module

        def explode(*args, **kwargs):
            raise RuntimeError("constructor failure")

        monkeypatch.setattr(runner_module, "FederatedSimulation", explode)
        with pytest.raises(RuntimeError, match="constructor failure"):
            Runner().run(make_spec(executor="tracking"))
        [executor] = tracking_executor_registered.instances
        assert executor.closed

    def test_each_seed_gets_its_executor_closed(self, tracking_executor_registered):
        Runner().run(make_spec(executor="tracking", seeds=[0, 1]))
        assert len(tracking_executor_registered.instances) == 2
        assert all(executor.closed for executor in
                   tracking_executor_registered.instances)
