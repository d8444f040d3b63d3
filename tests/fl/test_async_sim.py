"""Determinism suite for the event-driven asynchronous simulation.

The headline guarantees under test:

* **Cross-executor bit-identity** — the serial and shm backends
  produce identical final weights, commit records and metadata.
* **Checkpoint/resume transparency** — a snapshot taken mid-event-queue
  (through the npz codec) restores into a fresh simulation that finishes
  bit-identically to the uninterrupted run; taking snapshots does not
  perturb the run at all.
* **Deterministic churn** — dropouts, rejoins and lost updates are a pure
  function of the run seed.
"""

import dataclasses
import multiprocessing
import os
import sys

import numpy as np
import pytest

from repro.devices.latency import DeviceLatencyModel
from repro.fl.async_sim import (
    AsyncFederatedSimulation,
    AsyncFLHistory,
    AsyncTelemetry,
    CommitRecord,
    FedAsync,
    FedBuff,
)
from repro.fl.callbacks import Callback
from repro.fl.config import FLConfig
from repro.fl.simulation import FLHistory, history_from_dict
from repro.fl.strategies import FedAvg
from repro.nn.serialization import state_fingerprint
from repro.store.checkpoint import read_checkpoint, write_checkpoint

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
HAS_SHM = HAS_FORK and sys.platform != "darwin" and os.path.isdir("/dev/shm")

EXECUTORS = [
    pytest.param("serial", id="serial"),
    pytest.param("shm", id="shm",
                 marks=pytest.mark.skipif(not HAS_SHM, reason="needs Linux fork + /dev/shm")),
]


def async_config(num_rounds=4, seed=0):
    return FLConfig(num_clients=6, clients_per_round=3, num_rounds=num_rounds,
                    local_epochs=1, batch_size=4, learning_rate=0.02, seed=seed)


def make_sim(tiny_model_fn, tiny_clients, tiny_bundle, strategy=None,
             latency="mild", executor=None, **config_kwargs):
    return AsyncFederatedSimulation(
        tiny_model_fn, tiny_clients, tiny_bundle.test,
        strategy if strategy is not None else FedAsync(),
        async_config(**config_kwargs), latency=latency, executor=executor,
    )


def run_digest(sim, history):
    """Everything that must be bit-identical across backends/resume."""
    return (state_fingerprint(sim.global_state), history.to_dict())


class TestBasics:
    def test_reaches_commit_target(self, tiny_bundle, tiny_clients, tiny_model_fn):
        sim = make_sim(tiny_model_fn, tiny_clients, tiny_bundle)
        history = sim.run()
        assert isinstance(history, AsyncFLHistory)
        assert len(history.commits) == 4
        assert sim.version == 4
        assert [r.round_index for r in history.commits] == [0, 1, 2, 3]
        times = [r.time for r in history.commits]
        assert times == sorted(times) and times[0] > 0.0
        assert all(isinstance(r, CommitRecord) for r in history.commits)
        assert history.metadata["num_commits"] == 4
        assert history.metadata["virtual_seconds"] == pytest.approx(times[-1])
        assert history.per_device_metric  # final evaluation ran

    def test_history_serialization_round_trip(self, tiny_bundle, tiny_clients,
                                              tiny_model_fn):
        history = make_sim(tiny_model_fn, tiny_clients, tiny_bundle,
                           num_rounds=2).run()
        data = history.to_dict()
        assert data["kind"] == "federated_async"
        rebuilt = history_from_dict(data)
        assert isinstance(rebuilt, AsyncFLHistory)
        assert isinstance(rebuilt.commits[0], CommitRecord)
        assert rebuilt.to_dict() == data
        # Synchronous histories still reconstruct as the base class.
        sync = history_from_dict(FLHistory(strategy="fedavg").to_dict())
        assert type(sync) is FLHistory

    def test_rejects_sync_strategy(self, tiny_bundle, tiny_clients, tiny_model_fn):
        with pytest.raises(ValueError, match="AsyncStrategy"):
            AsyncFederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                     FedAvg(), async_config())

    def test_rejects_incomplete_latency_mapping(self, tiny_bundle, tiny_clients,
                                                tiny_model_fn):
        partial = {"Pixel5": DeviceLatencyModel(
            "Pixel5", compute_rate=100.0, network_seconds=5.0, jitter_sigma=0.0,
            on_fraction=1.0, mean_session_seconds=float("inf"))}
        with pytest.raises(ValueError, match="no latency model"):
            AsyncFederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                     FedAsync(), async_config(), latency=partial)

    @pytest.mark.parametrize("override", [
        {"faults": {"seed": 0, "crash_rate": 0.1}},
        {"fault_policy": {"max_retries": 1}},
    ], ids=["faults", "fault_policy"])
    def test_rejects_fault_settings(self, override, tiny_bundle, tiny_clients,
                                    tiny_model_fn):
        config = dataclasses.replace(async_config(), **override)
        with pytest.raises(ValueError, match="does not support config"):
            AsyncFederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                     FedAsync(), config)

    def test_event_budget_guard(self, tiny_bundle, tiny_clients, tiny_model_fn):
        sim = AsyncFederatedSimulation(
            tiny_model_fn, tiny_clients, tiny_bundle.test, FedAsync(),
            async_config(num_rounds=4), latency="mild", max_events=2,
        )
        with pytest.raises(RuntimeError, match="processed 2 events"):
            sim.run()


class TestCrossExecutorDeterminism:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_fedasync_matches_serial(self, executor, tiny_bundle, tiny_clients,
                                     tiny_model_fn):
        reference = make_sim(tiny_model_fn, tiny_clients, tiny_bundle,
                             executor="serial")
        expected = run_digest(reference, reference.run())
        sim = make_sim(tiny_model_fn, tiny_clients, tiny_bundle, executor=executor)
        assert run_digest(sim, sim.run()) == expected

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_fedbuff_extreme_matches_serial(self, executor, tiny_bundle,
                                            tiny_clients, tiny_model_fn):
        def build(backend):
            return make_sim(tiny_model_fn, tiny_clients, tiny_bundle,
                            strategy=FedBuff(buffer_size=2), latency="extreme",
                            executor=backend, num_rounds=3)

        reference = build("serial")
        expected = run_digest(reference, reference.run())
        sim = build(executor)
        assert run_digest(sim, sim.run()) == expected


class TestCheckpointResume:
    @pytest.mark.parametrize("strategy_fn,latency", [
        (lambda: FedAsync(), "mild"),
        (lambda: FedBuff(buffer_size=2), "extreme"),
    ], ids=["fedasync-mild", "fedbuff-extreme"])
    def test_mid_queue_resume_is_bit_identical(self, strategy_fn, latency,
                                               tmp_path, tiny_bundle,
                                               tiny_clients, tiny_model_fn):
        full = make_sim(tiny_model_fn, tiny_clients, tiny_bundle,
                        strategy=strategy_fn(), latency=latency)
        expected = run_digest(full, full.run())

        # Stop after 2 of 4 commits — mid-event-queue, with jobs in flight
        # (and, for fedbuff, possibly a half-full buffer) — checkpoint
        # through the npz codec, and resume in a fresh simulation.
        partial = make_sim(tiny_model_fn, tiny_clients, tiny_bundle,
                           strategy=strategy_fn(), latency=latency)
        partial.run(num_commits=2)
        write_checkpoint(tmp_path / "mid.npz", partial.snapshot())

        resumed = make_sim(tiny_model_fn, tiny_clients, tiny_bundle,
                           strategy=strategy_fn(), latency=latency)
        tree, _meta = read_checkpoint(tmp_path / "mid.npz")
        resumed.restore(tree)
        assert resumed.version == 2
        assert run_digest(resumed, resumed.run()) == expected

    def test_float_init_loss_checkpoint_resumes(self, tmp_path, tiny_bundle,
                                                tiny_clients, tiny_model_fn):
        """Checkpoints written when every client measured L_init hold a float
        ``init_loss`` per in-flight update; they still resume bit for bit."""
        full = make_sim(tiny_model_fn, tiny_clients, tiny_bundle,
                        strategy=FedBuff(buffer_size=2), latency="extreme")
        expected = run_digest(full, full.run())

        partial = make_sim(tiny_model_fn, tiny_clients, tiny_bundle,
                           strategy=FedBuff(buffer_size=2), latency="extreme")
        partial.run(num_commits=2)
        snapshot = partial.snapshot()
        assert snapshot["results"], "no update in flight to carry init_loss"
        for index, data in enumerate(snapshot["results"].values()):
            data["init_loss"] = 0.5 + index
        write_checkpoint(tmp_path / "measured.npz", snapshot)

        resumed = make_sim(tiny_model_fn, tiny_clients, tiny_bundle,
                           strategy=FedBuff(buffer_size=2), latency="extreme")
        tree, _meta = read_checkpoint(tmp_path / "measured.npz")
        resumed.restore(tree)
        assert run_digest(resumed, resumed.run()) == expected

    def test_unmeasured_init_loss_round_trips_as_none(self, tmp_path, tiny_bundle,
                                                      tiny_clients, tiny_model_fn):
        sim = make_sim(tiny_model_fn, tiny_clients, tiny_bundle,
                       strategy=FedBuff(buffer_size=2), latency="extreme")
        sim.run(num_commits=2)
        write_checkpoint(tmp_path / "mid.npz", sim.snapshot())
        tree, _meta = read_checkpoint(tmp_path / "mid.npz")
        assert tree["results"]
        assert all(data["init_loss"] is None for data in tree["results"].values())

        resumed = make_sim(tiny_model_fn, tiny_clients, tiny_bundle,
                           strategy=FedBuff(buffer_size=2), latency="extreme")
        resumed.restore(tree)
        resumed.run(num_commits=2)  # already there: no event is processed
        again = resumed.snapshot()["results"]
        assert sorted(again) == sorted(tree["results"])
        assert all(data["init_loss"] is None for data in again.values())

    def test_refused_resume_can_be_retried(self, tiny_bundle, tiny_clients,
                                           tiny_model_fn):
        full = make_sim(tiny_model_fn, tiny_clients, tiny_bundle)
        expected = full.run(num_commits=4)

        partial = make_sim(tiny_model_fn, tiny_clients, tiny_bundle)
        partial.run(num_commits=3)
        resumed = make_sim(tiny_model_fn, tiny_clients, tiny_bundle)
        resumed.restore(partial.snapshot())
        with pytest.raises(ValueError, match="commit 3"):
            resumed.run(num_commits=2)
        # The refusal keeps the restore in place, history included.
        history = resumed.run(num_commits=4)
        assert ([r.to_dict() for r in history.rounds]
                == [r.to_dict() for r in expected.rounds])
        assert history.per_device_metric == expected.per_device_metric

    def test_snapshotting_is_observationally_transparent(
            self, tiny_bundle, tiny_clients, tiny_model_fn):
        control = make_sim(tiny_model_fn, tiny_clients, tiny_bundle,
                           latency="extreme")
        expected = run_digest(control, control.run())

        class SnapshotEveryCommit(Callback):
            def on_round_end(self, sim, record, results):
                sim.snapshot()  # forces eager batch flushes mid-run

        observed = AsyncFederatedSimulation(
            tiny_model_fn, tiny_clients, tiny_bundle.test, FedAsync(),
            async_config(), latency="extreme",
            callbacks=[SnapshotEveryCommit()],
        )
        assert run_digest(observed, observed.run()) == expected

    def test_restore_validates_provenance(self, tiny_bundle, tiny_clients,
                                          tiny_model_fn):
        sim = make_sim(tiny_model_fn, tiny_clients, tiny_bundle)
        sim.run(num_commits=1)
        snapshot = sim.snapshot()

        other_strategy = make_sim(tiny_model_fn, tiny_clients, tiny_bundle,
                                  strategy=FedBuff())
        with pytest.raises(ValueError, match="fedasync"):
            other_strategy.restore(snapshot)
        other_seed = make_sim(tiny_model_fn, tiny_clients, tiny_bundle, seed=9)
        with pytest.raises(ValueError, match="seed"):
            other_seed.restore(snapshot)
        with pytest.raises(ValueError, match="synchronous"):
            sim.restore({**snapshot, "kind": "federated"})


class TestChurn:
    @pytest.fixture
    def churny_latency(self, tiny_bundle):
        # Sessions shorter than a round trip: clients frequently drop
        # offline mid-training, so updates are abandoned deterministically.
        return {device: DeviceLatencyModel(
            device, compute_rate=10.0, network_seconds=5.0, jitter_sigma=0.1,
            on_fraction=0.6, mean_session_seconds=4.0,
        ) for device in tiny_bundle.train}

    def test_dropouts_lose_updates_deterministically(
            self, churny_latency, tiny_bundle, tiny_clients, tiny_model_fn):
        def run_once():
            telemetry = AsyncTelemetry()
            sim = AsyncFederatedSimulation(
                tiny_model_fn, tiny_clients, tiny_bundle.test, FedAsync(),
                async_config(), latency=churny_latency, callbacks=[telemetry],
            )
            return run_digest(sim, sim.run())

        first, second = run_once(), run_once()
        assert first == second
        metadata = first[1]["metadata"]
        telemetry = metadata["telemetry"]
        assert metadata["updates_lost"] > 0
        assert telemetry["updates_lost"] == metadata["updates_lost"]
        assert telemetry["dropouts"] > 0 and telemetry["rejoins"] > 0

    def test_lost_updates_never_commit(self, churny_latency, tiny_bundle,
                                       tiny_clients, tiny_model_fn):
        events = []

        class Recorder(Callback):
            def on_event(self, sim, info):
                events.append(info)

        sim = AsyncFederatedSimulation(
            tiny_model_fn, tiny_clients, tiny_bundle.test, FedAsync(),
            async_config(), latency=churny_latency, callbacks=[Recorder()],
        )
        history = sim.run()
        lost_jobs = {e["job_id"] for e in events if e["kind"] == "lost"}
        completed_jobs = {e["job_id"] for e in events if e["kind"] == "completion"}
        assert lost_jobs and not (lost_jobs & completed_jobs)
        committed = sum(len(r.selected_clients) for r in history.commits)
        assert committed == len(completed_jobs) == history.metadata["num_updates"]


class TestFedBuffSemantics:
    def test_commits_fold_exactly_buffer_size_updates(
            self, tiny_bundle, tiny_clients, tiny_model_fn):
        history = make_sim(tiny_model_fn, tiny_clients, tiny_bundle,
                           strategy=FedBuff(buffer_size=2), num_rounds=3).run()
        assert len(history.commits) == 3
        for record in history.commits:
            assert len(record.selected_clients) == 2
            assert len(record.staleness) == 2
            assert all(s >= 0 for s in record.staleness)
        assert history.metadata["num_updates"] == 6

    def test_buffer_flush_order_is_arrival_order(self, tiny_bundle, tiny_clients,
                                                 tiny_model_fn):
        arrivals = []

        class Recorder(Callback):
            def on_event(self, sim, info):
                if info["kind"] == "completion":
                    arrivals.append(info["client_id"])

        sim = AsyncFederatedSimulation(
            tiny_model_fn, tiny_clients, tiny_bundle.test,
            FedBuff(buffer_size=2), async_config(num_rounds=3),
            latency="mild", callbacks=[Recorder()],
        )
        history = sim.run()
        committed = [cid for r in history.commits for cid in r.selected_clients]
        assert committed == arrivals[:len(committed)]


class TestTelemetryAndRegimes:
    def test_telemetry_utilisation_and_participation(self, tiny_bundle,
                                                     tiny_clients, tiny_model_fn):
        telemetry = AsyncTelemetry()
        sim = AsyncFederatedSimulation(
            tiny_model_fn, tiny_clients, tiny_bundle.test, FedAsync(),
            async_config(), latency="uniform", callbacks=[telemetry],
        )
        history = sim.run()
        block = history.metadata["telemetry"]
        assert 0.0 < block["utilisation"] <= 1.0 + 1e-9
        assert sum(block["participation"].values()) == history.metadata["num_updates"]
        assert block["dropouts"] == block["rejoins"] == block["updates_lost"] == 0

    def test_latency_regime_changes_virtual_time_not_commit_count(
            self, tiny_bundle, tiny_clients, tiny_model_fn):
        def virtual_seconds(regime):
            history = make_sim(tiny_model_fn, tiny_clients, tiny_bundle,
                               latency=regime, num_rounds=3).run()
            assert len(history.commits) == 3
            return history.metadata["virtual_seconds"]

        assert virtual_seconds("extreme") > virtual_seconds("uniform")

    def test_staleness_metadata_consistent(self, tiny_bundle, tiny_clients,
                                           tiny_model_fn):
        history = make_sim(tiny_model_fn, tiny_clients, tiny_bundle).run()
        staleness = [s for r in history.commits for s in r.staleness]
        assert history.metadata["mean_staleness"] == pytest.approx(np.mean(staleness))
        assert history.metadata["max_staleness"] == max(staleness)
