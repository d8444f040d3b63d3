"""Tests for the RunStore layout: manifests, hashing, results, versioning."""

import json

import numpy as np
import pytest

from repro.fl.simulation import FLHistory, RoundRecord
from repro.runtime import RunSpec
from repro.store import (
    STORE_FORMAT_VERSION,
    RunStore,
    RunStoreError,
    StoreVersionError,
    env_fingerprint,
    run_fingerprint,
    spec_hash,
)
from repro.store.checkpoint import write_checkpoint


def make_spec(**overrides):
    base = dict(strategy="fedavg", dataset="device_capture",
                dataset_kwargs={"devices": ["Pixel5", "S6", "G7"]},
                scale="smoke", seeds=[0])
    base.update(overrides)
    return RunSpec(**base)


def make_history(rounds=2):
    history = FLHistory(strategy="fedavg")
    for index in range(rounds):
        history.rounds.append(RoundRecord(
            round_index=index, selected_clients=[0, 1],
            mean_train_loss=1.0 / (index + 1), ema_loss=0.9 / (index + 1)))
    history.per_device_metric = {"Pixel5": 0.5, "S6": 0.25}
    return history


class TestSpecHash:
    def test_stable_across_result_neutral_fields(self):
        base = make_spec()
        assert spec_hash(base) == spec_hash(make_spec(name="renamed"))
        assert spec_hash(base) == spec_hash(make_spec(seeds=[3, 4]))
        assert spec_hash(base) == spec_hash(make_spec(executor="shm", max_workers=2))

    def test_sensitive_to_result_affecting_fields(self):
        base = make_spec()
        assert spec_hash(base) != spec_hash(make_spec(strategy="scaffold"))
        assert spec_hash(base) != spec_hash(make_spec(config_overrides={"num_rounds": 3}))
        assert spec_hash(base) != spec_hash(make_spec(sampler="round_robin"))


class TestFingerprints:
    def test_env_fingerprint_fields(self):
        env = env_fingerprint()
        assert {"python", "numpy", "platform", "machine"} <= set(env)

    def test_run_fingerprint_tracks_weights_and_metrics(self):
        state = {"w": np.arange(4.0)}
        metrics = {"Pixel5": 0.5}
        base = run_fingerprint(state, metrics)
        assert base == run_fingerprint({"w": np.arange(4.0)}, {"Pixel5": 0.5})
        assert base != run_fingerprint({"w": np.arange(4.0) + 1e-16}, metrics)
        assert base != run_fingerprint(state, {"Pixel5": 0.25})


class TestRunStore:
    def test_open_run_writes_manifest(self, tmp_path):
        store = RunStore(tmp_path / "store")
        spec = make_spec()
        entry = store.open_run(spec, seed=3, extra={"num_rounds": 2})
        manifest = entry.manifest()
        assert manifest["format_version"] == STORE_FORMAT_VERSION
        assert manifest["seed"] == 3
        assert manifest["status"] == "running"
        assert manifest["spec"] == spec.to_dict()
        assert manifest["spec_hash"] == spec_hash(spec)
        assert manifest["num_rounds"] == 2
        assert {"python", "numpy"} <= set(manifest["env"])

    def test_run_id_distinguishes_seeds_and_strategies(self):
        spec = make_spec()
        assert RunStore.run_id(spec, 0) != RunStore.run_id(spec, 1)
        assert RunStore.run_id(spec, 0) != RunStore.run_id(make_spec(strategy="scaffold"), 0)

    def test_reopen_same_spec_is_idempotent(self, tmp_path):
        store = RunStore(tmp_path / "store")
        spec = make_spec()
        first = store.open_run(spec, seed=0)
        second = store.open_run(spec, seed=0)
        assert first.run_id == second.run_id

    def test_reopen_with_conflicting_spec_raises(self, tmp_path):
        store = RunStore(tmp_path / "store")
        spec = make_spec()
        entry = store.open_run(spec, seed=0)
        manifest = json.loads(entry.manifest_path.read_text())
        manifest["spec_hash"] = "0" * 64
        entry.manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(RunStoreError, match="belongs to a different"):
            store.open_run(spec, seed=0)

    def test_get_unknown_run_lists_available(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.open_run(make_spec(), seed=0)
        with pytest.raises(RunStoreError, match="available"):
            store.get("nope")

    def test_list_runs_sorted_and_filtered(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.open_run(make_spec(), seed=1)
        store.open_run(make_spec(), seed=0)
        (tmp_path / "store" / "not-a-run").mkdir()
        ids = [entry.run_id for entry in store.list_runs()]
        assert len(ids) == 2 and ids == sorted(ids)

    def test_empty_store_lists_nothing(self, tmp_path):
        assert RunStore(tmp_path / "missing").list_runs() == []


class TestResults:
    def test_save_result_flips_status_and_fingerprints(self, tmp_path):
        store = RunStore(tmp_path / "store")
        entry = store.open_run(make_spec(), seed=0)
        history = make_history()
        state = {"w": np.arange(3.0)}
        payload = entry.save_result(history, final_state=state)
        assert entry.has_result()
        assert entry.status() == "completed"
        assert payload["fingerprint"] == run_fingerprint(state, history.per_device_metric)
        loaded = entry.load_result()
        assert loaded["metrics"] == history.per_device_metric
        assert FLHistory.from_dict(loaded["history"]).to_dict() == history.to_dict()
        assert entry.manifest()["rounds_completed"] == 2

    def test_save_result_defaults_to_final_checkpoint_state(self, tmp_path):
        store = RunStore(tmp_path / "store")
        entry = store.open_run(make_spec(), seed=0)
        state = {"w": np.arange(3.0)}
        write_checkpoint(entry.checkpoint_dir / "final.npz", {"global_state": state})
        payload = entry.save_result(make_history())
        assert payload["fingerprint"] == run_fingerprint(
            state, make_history().per_device_metric)

    def test_save_result_without_checkpoint_or_state_raises(self, tmp_path):
        store = RunStore(tmp_path / "store")
        entry = store.open_run(make_spec(), seed=0)
        with pytest.raises(RunStoreError, match="final checkpoint"):
            entry.save_result(make_history())

    def test_load_result_missing_raises(self, tmp_path):
        store = RunStore(tmp_path / "store")
        entry = store.open_run(make_spec(), seed=0)
        with pytest.raises(RunStoreError, match="no result"):
            entry.load_result()


class TestCheckpointListing:
    def test_latest_prefers_final_then_highest_round(self, tmp_path):
        store = RunStore(tmp_path / "store")
        entry = store.open_run(make_spec(), seed=0)
        assert entry.latest_checkpoint() is None
        write_checkpoint(entry.checkpoint_dir / "round_00002.npz", {"next_round": 2})
        write_checkpoint(entry.checkpoint_dir / "round_00010.npz", {"next_round": 10})
        assert entry.latest_checkpoint().name == "round_00010.npz"
        write_checkpoint(entry.checkpoint_dir / "final.npz", {"next_round": 12})
        assert entry.latest_checkpoint().name == "final.npz"
        assert [p.name for p in entry.checkpoints()] == \
            ["round_00002.npz", "round_00010.npz"]
        assert [p.name for p in entry.checkpoint_files()] == \
            ["round_00002.npz", "round_00010.npz", "final.npz"]

    def test_load_checkpoint_none_when_empty(self, tmp_path):
        store = RunStore(tmp_path / "store")
        entry = store.open_run(make_spec(), seed=0)
        assert entry.load_checkpoint() is None


class TestVersioning:
    def test_stale_manifest_version_refused_with_clear_error(self, tmp_path):
        store = RunStore(tmp_path / "store")
        spec = make_spec()
        entry = store.open_run(spec, seed=0)
        manifest = json.loads(entry.manifest_path.read_text())
        manifest["format_version"] = 0
        manifest["repro_version"] = "0.1.0"
        entry.manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreVersionError) as excinfo:
            store.open_run(spec, seed=0)
        message = str(excinfo.value)
        assert "format version 0" in message
        assert "0.1.0" in message
        assert "Refusing to resume" in message

    def test_stale_result_version_refused(self, tmp_path):
        store = RunStore(tmp_path / "store")
        entry = store.open_run(make_spec(), seed=0)
        entry.save_result(make_history(), final_state={"w": np.zeros(1)})
        result = json.loads(entry.result_path.read_text())
        result["format_version"] = 99
        entry.result_path.write_text(json.dumps(result))
        with pytest.raises(StoreVersionError, match="format version"):
            entry.load_result()
