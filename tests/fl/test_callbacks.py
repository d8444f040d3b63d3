"""Tests for the simulation observer/callback API."""

import pytest

from repro.fl.callbacks import (
    CALLBACK_REGISTRY,
    Callback,
    CallbackList,
    EarlyStopping,
    PeriodicEvaluation,
    RoundLogger,
    create_callback,
)
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation
from repro.fl.strategies import FedAvg, create_strategy


class Recorder(Callback):
    """Records every hook invocation in order."""

    def __init__(self):
        self.events = []

    def on_run_start(self, sim, history):
        self.events.append("run_start")

    def on_round_start(self, sim, round_index):
        self.events.append(f"round_start:{round_index}")

    def on_round_end(self, sim, record, results):
        self.events.append(f"round_end:{record.round_index}:{len(results)}")

    def on_event(self, sim, info):
        self.events.append(f"event:{info['kind']}")

    def on_evaluate(self, sim, round_index, metrics):
        self.events.append(f"evaluate:{sorted(metrics)}")

    def on_run_end(self, sim, history):
        self.events.append("run_end")


class _Fussy(Recorder):
    """Recorder that raises on the hooks named at construction."""

    def __init__(self, *raise_on):
        super().__init__()
        self.raise_on = set(raise_on)

    def _maybe_raise(self, hook):
        if hook in self.raise_on:
            raise RuntimeError(f"boom in {hook}")

    def on_round_end(self, sim, record, results):
        super().on_round_end(sim, record, results)
        self._maybe_raise("on_round_end")

    def on_run_end(self, sim, history):
        super().on_run_end(sim, history)
        self._maybe_raise("on_run_end")


class TestHookSequence:
    def test_hooks_fire_in_order(self, tiny_bundle, tiny_clients, tiny_fl_config,
                                 tiny_model_fn):
        recorder = Recorder()
        sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                  FedAvg(), tiny_fl_config, callbacks=[recorder])
        sim.run()
        assert recorder.events[0] == "run_start"
        assert recorder.events[1] == "round_start:0"
        assert recorder.events[2].startswith("round_end:0")
        assert recorder.events[-1] == "run_end"
        # The final evaluation fires on_evaluate before on_run_end.
        assert recorder.events[-2].startswith("evaluate:")

    def test_round_results_passed_to_hooks(self, tiny_bundle, tiny_clients,
                                           tiny_fl_config, tiny_model_fn):
        recorder = Recorder()
        sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                  FedAvg(), tiny_fl_config, callbacks=[recorder])
        sim.run()
        round_ends = [e for e in recorder.events if e.startswith("round_end")]
        assert round_ends == [
            f"round_end:{r}:{tiny_fl_config.clients_per_round}"
            for r in range(tiny_fl_config.num_rounds)
        ]

    def test_callback_list_dispatches_to_all(self):
        first, second = Recorder(), Recorder()
        callbacks = CallbackList([first, second])
        callbacks.on_run_start(None, None)
        assert first.events == second.events == ["run_start"]

    def test_full_hook_ordering_with_periodic_eval(self, tiny_bundle, tiny_clients,
                                                   tiny_model_fn):
        """run_start -> (round_start -> round_end)* -> evaluate -> run_end.

        The default PeriodicEvaluation callback sits *before* user callbacks,
        so its eval_every evaluation fires inside each round_end dispatch —
        the recorder sees 'evaluate' just before its own 'round_end'."""
        recorder = Recorder()
        config = FLConfig(num_clients=6, clients_per_round=3, num_rounds=2,
                          batch_size=4, learning_rate=0.1, eval_every=1, seed=0)
        sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                  FedAvg(), config, callbacks=[recorder])
        sim.run()
        kinds = [event.split(":")[0] for event in recorder.events]
        assert kinds == ["run_start",
                         "round_start", "evaluate", "round_end",
                         "round_start", "evaluate", "round_end",
                         "evaluate", "run_end"]

    def test_async_event_hooks_fire_between_run_start_and_end(
            self, tiny_bundle, tiny_clients, tiny_model_fn):
        from repro.fl.async_sim import AsyncFederatedSimulation
        from repro.fl.strategies import create_strategy as _create

        recorder = Recorder()
        config = FLConfig(num_clients=6, clients_per_round=3, num_rounds=2,
                          batch_size=4, learning_rate=0.1, seed=0)
        sim = AsyncFederatedSimulation(
            tiny_model_fn, tiny_clients, tiny_bundle.test, _create("fedasync"),
            config, callbacks=[recorder])
        sim.run()
        assert recorder.events[0] == "run_start"
        assert recorder.events[-1] == "run_end"
        kinds = {e.split(":", 1)[1] for e in recorder.events
                 if e.startswith("event:")}
        assert {"dispatch", "completion", "commit"} <= kinds
        # Every dispatch strictly precedes its run_end; events only occur
        # inside the run_start/run_end envelope.
        assert all(e.startswith(("event:", "round", "evaluate"))
                   for e in recorder.events[1:-1])


class TestCallbackExceptionIsolation:
    def test_later_callbacks_still_run_when_one_raises(self):
        fussy, after = _Fussy("on_round_end"), Recorder()

        class _FakeRecord:
            round_index = 0

        callbacks = CallbackList([fussy, after])
        with pytest.raises(RuntimeError, match="boom in on_round_end"):
            callbacks.on_round_end(None, _FakeRecord(), [])
        # The callback after the raising one still saw the hook.
        assert after.events == ["round_end:0:0"]

    def test_first_of_several_exceptions_propagates(self):
        first, second = _Fussy("on_run_end"), _Fussy("on_run_end")
        first.raise_on = {"on_run_end"}
        with pytest.raises(RuntimeError, match="boom"):
            CallbackList([first, second]).on_run_end(None, None)
        assert first.events == second.events == ["run_end"]

    def test_telemetry_keeps_counting_past_a_raising_callback(
            self, tiny_bundle, tiny_clients, tiny_fl_config, tiny_model_fn):
        """The motivating bug: a raising callback must not silence
        SwitchTelemetry (registered before user callbacks would be unaffected,
        so place the raiser first in the user list and count via a recorder)."""
        fussy = _Fussy("on_round_end")
        after = Recorder()
        sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                  FedAvg(), tiny_fl_config,
                                  callbacks=[fussy, after])
        with pytest.raises(RuntimeError, match="boom in on_round_end"):
            sim.run()
        # The raising callback fired round 0's hook; so did the one after it.
        assert "round_end:0:3" in fussy.events
        assert "round_end:0:3" in after.events


class TestSwitchTelemetry:
    def test_switch_counts_recorded_per_round_and_in_total(self, tiny_bundle,
                                                           tiny_clients,
                                                           tiny_fl_config,
                                                           tiny_model_fn):
        sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                  create_strategy("isp_swad"), tiny_fl_config)
        history = sim.run()
        per_round = sum(record.num_switch1 for record in history.rounds)
        assert per_round == history.metadata["total_switch1"]
        assert per_round == sum(len(r.selected_clients) for r in history.rounds)

    def test_direct_run_round_still_counts_switches(self, tiny_bundle, tiny_clients,
                                                    tiny_fl_config, tiny_model_fn):
        sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                  create_strategy("isp_swad"), tiny_fl_config)
        record = sim.run_round(0)
        assert record.num_switch1 == len(record.selected_clients)


class TestPeriodicEvaluation:
    def test_eval_every_still_populates_history(self, tiny_bundle, tiny_clients,
                                                tiny_model_fn):
        config = FLConfig(num_clients=6, clients_per_round=3, num_rounds=4,
                          batch_size=4, learning_rate=0.1, eval_every=2, seed=0)
        sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                  FedAvg(), config)
        history = sim.run()
        assert len(history.evaluations) == 2
        assert all(set(e) == set(tiny_bundle.test) for e in history.evaluations)

    def test_standalone_run_round_does_not_touch_finished_history(self, tiny_bundle,
                                                                  tiny_clients,
                                                                  tiny_model_fn):
        config = FLConfig(num_clients=6, clients_per_round=3, num_rounds=2,
                          batch_size=4, learning_rate=0.1, eval_every=1, seed=0)
        sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                  FedAvg(), config)
        history = sim.run()
        evaluations_before = list(history.evaluations)
        sim.run_round(0)  # replaying a round must not append to the old run
        assert history.evaluations == evaluations_before

    def test_rejects_non_positive_period(self):
        with pytest.raises(ValueError):
            PeriodicEvaluation(0)


class TestEarlyStopping:
    def test_stops_when_loss_plateaus(self, tiny_bundle, tiny_clients, tiny_model_fn):
        config = FLConfig(num_clients=6, clients_per_round=3, num_rounds=8,
                          batch_size=4, learning_rate=0.02, seed=0)
        # min_delta so large that no round ever counts as an improvement.
        stopper = EarlyStopping(monitor="mean_train_loss", patience=2, min_delta=100.0)
        sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                  FedAvg(), config, callbacks=[stopper])
        history = sim.run()
        # Round 0 establishes the baseline; rounds 1-2 are the two stale rounds.
        assert len(history.rounds) == 3
        assert history.metadata["early_stopped_at"] == 2
        # The final evaluation still happens after a graceful stop.
        assert set(history.per_device_metric) == set(tiny_bundle.test)

    def test_does_not_stop_while_improving(self, tiny_bundle, tiny_clients,
                                           tiny_fl_config, tiny_model_fn):
        stopper = EarlyStopping(monitor="mean_train_loss", patience=50)
        sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                  FedAvg(), tiny_fl_config, callbacks=[stopper])
        history = sim.run()
        assert len(history.rounds) == tiny_fl_config.num_rounds
        assert "early_stopped_at" not in history.metadata

    def test_state_resets_between_runs(self, tiny_bundle, tiny_clients, tiny_model_fn):
        config = FLConfig(num_clients=6, clients_per_round=3, num_rounds=8,
                          batch_size=4, learning_rate=0.02, seed=0)
        stopper = EarlyStopping(monitor="mean_train_loss", patience=2, min_delta=100.0)

        def run():
            # A simulation runs once; the callback instance is shared.
            return FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                       FedAvg(), config, callbacks=[stopper]).run()

        first = run()
        second = run()
        # Patience is per run: the second run gets a fresh baseline + 2 stale
        # rounds, not a carried-over exhausted counter.
        assert len(first.rounds) == len(second.rounds) == 3

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="monitor"):
            EarlyStopping(monitor="accuracy")
        with pytest.raises(ValueError, match="patience"):
            EarlyStopping(patience=0)


class TestRoundLogger:
    def test_logs_every_round(self, capsys, tiny_bundle, tiny_clients, tiny_fl_config,
                              tiny_model_fn):
        sim = FederatedSimulation(tiny_model_fn, tiny_clients, tiny_bundle.test,
                                  FedAvg(), tiny_fl_config, callbacks=[RoundLogger()])
        sim.run()
        out = capsys.readouterr().out
        assert out.count("[round") == tiny_fl_config.num_rounds

    def test_rejects_non_positive_period(self):
        with pytest.raises(ValueError):
            RoundLogger(0)


class TestCallbackRegistry:
    def test_create_by_name(self):
        callback = create_callback("early_stopping", patience=3)
        assert isinstance(callback, EarlyStopping)
        assert callback.patience == 3

    def test_unknown_callback_lists_available(self):
        with pytest.raises(KeyError, match="unknown callback.*early_stopping"):
            CALLBACK_REGISTRY["nope"]
