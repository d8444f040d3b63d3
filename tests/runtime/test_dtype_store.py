"""Precision axis through the durable-run layer.

* the npz checkpoint codec is dtype-exact: float32 snapshots round-trip as
  float32, never silently widened;
* a float32 run crash-resumes bitwise-identically, like the float64 path;
* resuming from a checkpoint written under a *different* dtype is refused
  with :class:`CheckpointError` (defense in depth for tampered or legacy
  stores — normally the dtype is part of the spec hash, so mismatched
  checkpoints cannot collide with a run id);
* ``--dtype`` reaches ``config_overrides`` and ``runs show`` surfaces it.
"""

import numpy as np
import pytest
from oracle.states import states_equal

from repro.cli import _apply_spec_overrides, build_parser, main
from repro.fl.callbacks import CALLBACK_REGISTRY, Callback
from repro.runtime import Runner, RunSpec, RunStore
from repro.store import CheckpointError
from repro.store.checkpoint import read_checkpoint, write_checkpoint

DEVICES = ["Pixel5", "S6", "G7"]


def make_spec(dtype="float32", **overrides):
    base = dict(strategy="fedavg", dataset="device_capture",
                dataset_kwargs={"devices": DEVICES}, scale="smoke",
                config_overrides={"num_rounds": 3, "dtype": dtype}, seeds=[0])
    base.update(overrides)
    return RunSpec(**base)


class _Boom(Exception):
    pass


class _CrashAfterRound(Callback):
    armed = True

    def __init__(self, after_round: int) -> None:
        self.after_round = after_round

    def on_round_start(self, sim, round_index) -> None:
        if _CrashAfterRound.armed and round_index > self.after_round:
            _CrashAfterRound.armed = False
            raise _Boom(f"simulated crash before round {round_index}")


@pytest.fixture(autouse=True)
def crash_callback_registered():
    CALLBACK_REGISTRY.replace("dtype_crash_after_round", _CrashAfterRound)
    _CrashAfterRound.armed = True
    yield
    CALLBACK_REGISTRY.unregister("dtype_crash_after_round")


class TestCheckpointCodecDtype:
    def test_float32_snapshot_round_trips_dtype_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        snapshot = {
            "round": 2,
            "global_state": {
                "w": rng.normal(size=(4, 3)).astype(np.float32),
                "b": rng.normal(size=3).astype(np.float32),
            },
        }
        path = tmp_path / "ckpt.npz"
        write_checkpoint(path, snapshot)
        restored, _meta = read_checkpoint(path)
        for key, value in snapshot["global_state"].items():
            stored = restored["global_state"][key]
            assert stored.dtype == np.float32
            np.testing.assert_array_equal(stored, value)

    def test_mixed_dtypes_preserved(self, tmp_path):
        snapshot = {
            "round": 1,
            "global_state": {"w": np.ones(4, dtype=np.float32)},
            "counters": {"steps": np.arange(3, dtype=np.int64)},
        }
        path = tmp_path / "ckpt.npz"
        write_checkpoint(path, snapshot)
        restored, _meta = read_checkpoint(path)
        assert restored["global_state"]["w"].dtype == np.float32
        assert restored["counters"]["steps"].dtype == np.int64


class TestFloat32DurableRuns:
    def test_float32_run_checkpoints_in_float32(self, tmp_path):
        store = RunStore(tmp_path / "store")
        Runner(store=store, checkpoint_every=1).run(make_spec())
        [entry] = store.list_runs()
        assert entry.status() == "completed"
        final = entry.load_checkpoint(entry.checkpoint_dir / "final.npz")
        assert all(value.dtype == np.float32
                   for value in final["global_state"].values())

    def test_float32_crash_resume_is_bitwise_identical(self, tmp_path):
        spec = make_spec(
            callbacks={"dtype_crash_after_round": {"after_round": 0}})
        reference = Runner(store=tmp_path / "ref", checkpoint_every=1)
        _CrashAfterRound.armed = False  # reference run must not crash
        reference.run(make_spec())
        [ref_entry] = RunStore(tmp_path / "ref").list_runs()

        _CrashAfterRound.armed = True
        crashing = Runner(store=tmp_path / "crash", checkpoint_every=1)
        with pytest.raises(_Boom):
            crashing.run(spec)
        [crash_entry] = RunStore(tmp_path / "crash").list_runs()
        assert crash_entry.status() == "running"

        Runner(store=tmp_path / "crash", checkpoint_every=1).run(
            spec, resume=True)
        [done_entry] = RunStore(tmp_path / "crash").list_runs()
        assert done_entry.status() == "completed"
        assert done_entry.load_result()["fingerprint"] == \
            ref_entry.load_result()["fingerprint"]
        ref_state = ref_entry.load_checkpoint(
            ref_entry.checkpoint_dir / "final.npz")["global_state"]
        done_state = done_entry.load_checkpoint(
            done_entry.checkpoint_dir / "final.npz")["global_state"]
        assert states_equal(ref_state, done_state)
        assert all(value.dtype == np.float32 for value in ref_state.values())


class TestCrossDtypeResumeRefusal:
    def _tampered_store(self, tmp_path, spec, checkpoint_dtype):
        """A store entry for ``spec`` whose newest checkpoint holds weights
        in ``checkpoint_dtype`` — the legacy/tampered scenario the runner
        must refuse instead of silently casting mid-run."""
        store = RunStore(tmp_path / "store")
        entry = store.open_run(spec, 0, extra={"num_rounds": 3})
        rng = np.random.default_rng(0)
        snapshot = {"round": 1, "global_state": {
            "w": rng.normal(size=(4, 3)).astype(checkpoint_dtype)}}
        write_checkpoint(entry.checkpoint_dir / "round_00001.npz", snapshot)
        return store

    def test_float32_checkpoint_refused_under_float64_config(self, tmp_path):
        spec = make_spec(dtype="float64")
        store = self._tampered_store(tmp_path, spec, np.float32)
        with pytest.raises(CheckpointError, match="cross-dtype resume"):
            Runner(store=store, checkpoint_every=1).run(spec, resume=True)

    def test_float64_checkpoint_refused_under_float32_config(self, tmp_path):
        spec = make_spec(dtype="float32")
        store = self._tampered_store(tmp_path, spec, np.float64)
        with pytest.raises(CheckpointError, match="cross-dtype resume"):
            Runner(store=store, checkpoint_every=1).run(spec, resume=True)


class TestCLIDtype:
    def test_bench_parses_dtype(self):
        args = build_parser().parse_args(["bench", "--dtype", "float32"])
        assert args.dtype == "float32"

    def test_bench_rejects_unknown_dtype(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--dtype", "float16"])

    def test_dtype_reaches_config_overrides(self):
        args = build_parser().parse_args(["bench", "--dtype", "float32"])
        spec = _apply_spec_overrides(RunSpec(), args)
        assert spec.config_overrides["dtype"] == "float32"
        # Without the flag the spec's own overrides are left untouched.
        args = build_parser().parse_args(["bench"])
        assert "dtype" not in _apply_spec_overrides(RunSpec(), args).config_overrides

    def test_runs_show_surfaces_dtype(self, tmp_path, capsys):
        store = RunStore(tmp_path / "store")
        Runner(store=store, checkpoint_every=1).run(make_spec())
        [entry] = store.list_runs()
        assert main(["runs", "show", entry.run_id,
                     "--store", str(tmp_path / "store")]) == 0
        assert "dtype: float32" in capsys.readouterr().out

    def test_runs_show_defaults_to_float64(self, tmp_path, capsys):
        store = RunStore(tmp_path / "store")
        spec = make_spec()
        overrides = dict(spec.config_overrides)
        del overrides["dtype"]
        Runner(store=store, checkpoint_every=1).run(
            spec.with_overrides(config_overrides=overrides))
        [entry] = store.list_runs()
        assert main(["runs", "show", entry.run_id,
                     "--store", str(tmp_path / "store")]) == 0
        assert "dtype: float64" in capsys.readouterr().out
