"""Resume-equivalence acceptance tests.

The headline guarantee of :mod:`repro.store`: kill a run at any checkpoint
boundary, resume it, and the final weights are **bitwise identical**
(:func:`states_equal`) and the metrics equal to the uninterrupted run — for
every strategy, under the serial and shm executors, and even when the
checkpoint was written under a different executor than the resume.

Checkpoints are written at the end of each round, so the snapshot at round
``r`` is exactly the state of a run killed anywhere between rounds ``r`` and
``r + 1`` — restoring from it and continuing replays the remaining rounds.
"""

import dataclasses
import multiprocessing
import os
import sys

import numpy as np
import pytest
from oracle.states import states_equal

from repro.core.ema import EMALossTracker
from repro.fl.callbacks import CheckpointCallback
from repro.fl.config import FLConfig
from repro.fl.execution import create_executor
from repro.fl.simulation import FederatedSimulation
from repro.fl.strategies import create_strategy
from repro.store.checkpoint import read_checkpoint

ALL_STRATEGIES = ["fedavg", "fedprox", "qfedavg", "scaffold", "heteroswitch"]
HAS_SHM = ("fork" in multiprocessing.get_all_start_methods()
           and sys.platform != "darwin" and os.path.isdir("/dev/shm"))
requires_shm = pytest.mark.skipif(not HAS_SHM,
                                  reason="shm executor needs Linux fork + /dev/shm")

EXECUTORS = ["serial", pytest.param("shm", marks=requires_shm)]

NUM_ROUNDS = 3


@pytest.fixture
def resume_config(tiny_fl_config) -> FLConfig:
    return dataclasses.replace(tiny_fl_config, num_rounds=NUM_ROUNDS)


def build_sim(strategy_name, bundle, clients, config, model_fn,
              executor, callbacks=()):
    return FederatedSimulation(
        model_fn, clients, bundle.test, create_strategy(strategy_name), config,
        callbacks=list(callbacks), executor=executor,
    )


def reference_run(strategy_name, bundle, clients, config, model_fn,
                  executor_name, checkpoint_dir):
    """Uninterrupted run that also drops a checkpoint after every round."""
    with create_executor(executor_name) as executor:
        sim = build_sim(strategy_name, bundle, clients, config, model_fn, executor,
                        callbacks=[CheckpointCallback(checkpoint_dir, every=1)])
        history = sim.run()
    return history, sim.global_state


def resumed_run(strategy_name, bundle, clients, config, model_fn,
                executor_name, checkpoint_path):
    """Fresh simulation restored from ``checkpoint_path``, run to completion."""
    snapshot, _ = read_checkpoint(checkpoint_path)
    with create_executor(executor_name) as executor:
        sim = build_sim(strategy_name, bundle, clients, config, model_fn, executor)
        sim.restore(snapshot)
        history = sim.run()
    return history, sim.global_state


def assert_resume_equivalent(reference, candidate):
    ref_history, ref_state = reference
    cand_history, cand_state = candidate
    assert states_equal(ref_state, cand_state)
    assert cand_history.per_device_metric == ref_history.per_device_metric
    assert [r.to_dict() for r in cand_history.rounds] == \
        [r.to_dict() for r in ref_history.rounds]
    assert cand_history.metadata == ref_history.metadata


class TestResumeEquivalence:
    """Acceptance: interrupt at every boundary x 5 strategies x 2 executors."""

    @pytest.mark.parametrize("executor_name", EXECUTORS)
    @pytest.mark.parametrize("strategy_name", ALL_STRATEGIES)
    def test_every_boundary_bitwise_identical(self, strategy_name, executor_name,
                                              tiny_bundle, tiny_clients,
                                              resume_config, tiny_model_fn,
                                              tmp_path):
        reference = reference_run(strategy_name, tiny_bundle, tiny_clients,
                                  resume_config, tiny_model_fn, executor_name,
                                  tmp_path)
        for boundary in range(1, NUM_ROUNDS + 1):
            candidate = resumed_run(
                strategy_name, tiny_bundle, tiny_clients, resume_config,
                tiny_model_fn, executor_name,
                tmp_path / f"round_{boundary:05d}.npz",
            )
            assert_resume_equivalent(reference, candidate)

    @requires_shm
    @pytest.mark.parametrize("strategy_name", ALL_STRATEGIES)
    def test_cross_executor_resume(self, strategy_name, tiny_bundle, tiny_clients,
                                   resume_config, tiny_model_fn, tmp_path):
        """A checkpoint written under the serial executor resumes under the
        shm executor with identical results: the run key deliberately
        excludes the execution backend."""
        reference = reference_run(strategy_name, tiny_bundle, tiny_clients,
                                  resume_config, tiny_model_fn, "serial", tmp_path)
        candidate = resumed_run(strategy_name, tiny_bundle, tiny_clients,
                                resume_config, tiny_model_fn, "shm",
                                tmp_path / "round_00001.npz")
        assert_resume_equivalent(reference, candidate)

    @requires_shm
    @pytest.mark.parametrize("strategy_name", ALL_STRATEGIES)
    def test_shm_checkpoint_resumes_on_serial(self, strategy_name, tiny_bundle,
                                              tiny_clients, resume_config,
                                              tiny_model_fn, tmp_path):
        """The other direction: a checkpoint written under the shm executor
        resumes under the serial executor with identical results."""
        reference = reference_run(strategy_name, tiny_bundle, tiny_clients,
                                  resume_config, tiny_model_fn, "shm", tmp_path)
        candidate = resumed_run(strategy_name, tiny_bundle, tiny_clients,
                                resume_config, tiny_model_fn, "serial",
                                tmp_path / "round_00001.npz")
        assert_resume_equivalent(reference, candidate)

    def test_final_checkpoint_resume_is_evaluation_only(self, tiny_bundle,
                                                        tiny_clients, resume_config,
                                                        tiny_model_fn, tmp_path):
        """Resuming from final.npz (crash after the last checkpoint but before
        the result was recorded) re-evaluates without training any round."""
        reference = reference_run("fedavg", tiny_bundle, tiny_clients,
                                  resume_config, tiny_model_fn, "serial", tmp_path)
        candidate = resumed_run("fedavg", tiny_bundle, tiny_clients, resume_config,
                                tiny_model_fn, "serial", tmp_path / "final.npz")
        assert_resume_equivalent(reference, candidate)


class TestEarlyStoppingResume:
    """Resume must reproduce early-stopped runs too: the restored history
    re-warms the patience counters, including the already-exhausted case."""

    def _callbacks(self):
        from repro.fl.callbacks import EarlyStopping

        # patience=1 with a huge min_delta: round 0 sets the best, round 1 is
        # "no improvement" and stops the run — deterministically, whatever the
        # actual losses are.
        return [EarlyStopping(monitor="mean_train_loss", patience=1, min_delta=10.0)]

    def _run(self, bundle, clients, config, model_fn, checkpoint_dir=None,
             checkpoint_path=None):
        callbacks = list(self._callbacks())
        if checkpoint_dir is not None:
            callbacks.append(CheckpointCallback(checkpoint_dir, every=1))
        with create_executor("serial") as executor:
            sim = build_sim("fedavg", bundle, clients, config, model_fn, executor,
                            callbacks=callbacks)
            if checkpoint_path is not None:
                snapshot, _ = read_checkpoint(checkpoint_path)
                sim.restore(snapshot)
            history = sim.run()
        return history, sim.global_state

    def test_resume_before_stop_round_reproduces_the_stop(self, tiny_bundle,
                                                          tiny_clients, resume_config,
                                                          tiny_model_fn, tmp_path):
        reference = self._run(tiny_bundle, tiny_clients, resume_config,
                              tiny_model_fn, checkpoint_dir=tmp_path)
        ref_history = reference[0]
        assert ref_history.metadata["early_stopped_at"] == 1
        assert len(ref_history.rounds) == 2  # stopped before round 2
        candidate = self._run(tiny_bundle, tiny_clients, resume_config, tiny_model_fn,
                              checkpoint_path=tmp_path / "round_00001.npz")
        assert_resume_equivalent(reference, candidate)

    def test_resume_after_stop_round_trains_no_further(self, tiny_bundle,
                                                       tiny_clients, resume_config,
                                                       tiny_model_fn, tmp_path):
        """Killed after the stopping round checkpointed but before the result
        landed: the replayed history has already exhausted the patience, so
        the resumed run must evaluate and finish without another round."""
        reference = self._run(tiny_bundle, tiny_clients, resume_config,
                              tiny_model_fn, checkpoint_dir=tmp_path)
        candidate = self._run(tiny_bundle, tiny_clients, resume_config, tiny_model_fn,
                              checkpoint_path=tmp_path / "round_00002.npz")
        assert len(candidate[0].rounds) == 2  # no extra round trained
        assert_resume_equivalent(reference, candidate)


class TestSnapshotRestoreGuards:
    def test_snapshot_requires_active_run(self, tiny_bundle, tiny_clients,
                                          resume_config, tiny_model_fn):
        sim = build_sim("fedavg", tiny_bundle, tiny_clients, resume_config,
                        tiny_model_fn, "serial")
        with pytest.raises(RuntimeError, match="active or completed run"):
            sim.snapshot()

    def test_restore_rejects_strategy_mismatch(self, tiny_bundle, tiny_clients,
                                               resume_config, tiny_model_fn,
                                               tmp_path):
        reference_run("fedavg", tiny_bundle, tiny_clients, resume_config,
                      tiny_model_fn, "serial", tmp_path)
        snapshot, _ = read_checkpoint(tmp_path / "round_00001.npz")
        sim = build_sim("scaffold", tiny_bundle, tiny_clients, resume_config,
                        tiny_model_fn, "serial")
        with pytest.raises(ValueError, match="strategy 'fedavg'"):
            sim.restore(snapshot)

    def test_restore_rejects_seed_mismatch(self, tiny_bundle, tiny_clients,
                                           resume_config, tiny_model_fn, tmp_path):
        reference_run("fedavg", tiny_bundle, tiny_clients, resume_config,
                      tiny_model_fn, "serial", tmp_path)
        snapshot, _ = read_checkpoint(tmp_path / "round_00001.npz")
        other = dataclasses.replace(resume_config, seed=9)
        sim = build_sim("fedavg", tiny_bundle, tiny_clients, other,
                        tiny_model_fn, "serial")
        with pytest.raises(ValueError, match="seed"):
            sim.restore(snapshot)

    def test_run_rejects_checkpoint_beyond_round_budget(self, tiny_bundle,
                                                        tiny_clients, resume_config,
                                                        tiny_model_fn, tmp_path):
        reference_run("fedavg", tiny_bundle, tiny_clients, resume_config,
                      tiny_model_fn, "serial", tmp_path)
        snapshot, _ = read_checkpoint(tmp_path / f"round_{NUM_ROUNDS:05d}.npz")
        sim = build_sim("fedavg", tiny_bundle, tiny_clients, resume_config,
                        tiny_model_fn, "serial")
        sim.restore(snapshot)
        with pytest.raises(ValueError, match="only 1 round"):
            sim.run(num_rounds=1)
        # The failed attempt must not discard the restore: retrying with a
        # sufficient budget still resumes instead of restarting from round 0.
        history = sim.run(num_rounds=NUM_ROUNDS)
        assert len(history.rounds) == NUM_ROUNDS


class TestStrategyStateContract:
    def test_scaffold_state_round_trips_control_variates(self, tiny_bundle,
                                                         tiny_clients, resume_config,
                                                         tiny_model_fn):
        with create_executor("serial") as executor:
            sim = build_sim("scaffold", tiny_bundle, tiny_clients, resume_config,
                            tiny_model_fn, executor)
            sim.run()
        state = sim.strategy.state_dict(sim.context)
        assert "scaffold_c" in state["server_storage"]
        assert state["client_storage"]

        fresh = build_sim("scaffold", tiny_bundle, tiny_clients, resume_config,
                          tiny_model_fn, "serial")
        fresh.strategy.load_state_dict(fresh.context, state)
        assert states_equal(fresh.context.server_storage["scaffold_c"],
                            sim.context.server_storage["scaffold_c"])
        assert set(fresh.context.client_storage) == set(sim.context.client_storage)
        for client_id, storage in sim.context.client_storage.items():
            assert states_equal(fresh.context.client_storage[client_id]["c_i"],
                                storage["c_i"])

    def test_load_state_dict_coerces_string_client_ids(self, tiny_bundle,
                                                       tiny_clients, resume_config,
                                                       tiny_model_fn):
        sim = build_sim("fedavg", tiny_bundle, tiny_clients, resume_config,
                        tiny_model_fn, "serial")
        sim.strategy.load_state_dict(
            sim.context, {"server_storage": {}, "client_storage": {"3": {"k": 1}}})
        assert sim.context.client_storage == {3: {"k": 1}}

    def test_default_state_dict_copies_do_not_alias(self, tiny_bundle, tiny_clients,
                                                    resume_config, tiny_model_fn):
        sim = build_sim("fedavg", tiny_bundle, tiny_clients, resume_config,
                        tiny_model_fn, "serial")
        sim.context.server_storage["w"] = np.zeros(2)
        state = sim.strategy.state_dict(sim.context)
        state["server_storage"]["w"][...] = 7.0
        assert np.all(sim.context.server_storage["w"] == 0.0)


class TestEMAStateDict:
    def test_round_trip_exact(self):
        tracker = EMALossTracker(alpha=0.7)
        for value in (1.0, 0.5, 0.30000000000000004):
            tracker.update(value)
        clone = EMALossTracker(alpha=0.7)
        clone.load_state_dict(tracker.state_dict())
        assert clone.value == tracker.value
        assert clone.history == tracker.history

    def test_fresh_tracker_state(self):
        tracker = EMALossTracker()
        clone = EMALossTracker()
        clone.update(1.0)
        clone.load_state_dict(tracker.state_dict())
        assert clone.value is None and clone.history == []
