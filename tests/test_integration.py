"""End-to-end integration tests across the full stack.

These tests exercise the complete path the paper's evaluation uses —
scene generation -> device capture -> FL training with HeteroSwitch ->
per-device metrics — and check the qualitative relationships the paper
reports (at tiny scale, so assertions are directional, not numeric).
"""

import numpy as np
import pytest

from repro.data.capture import build_device_datasets
from repro.data.partition import build_client_specs
from repro.devices.profiles import market_shares
from repro.eval.factories import make_model_factory
from repro.eval.scale import get_scale
from repro.fl.config import FLConfig
from repro.fl.simulation import FederatedSimulation
from repro.fl.strategies import create_strategy
from repro.runtime import Runner, RunSpec, spec_scale


@pytest.fixture(scope="module")
def bundle():
    return build_device_datasets(
        samples_per_class_train=6,
        samples_per_class_test=3,
        num_classes=3,
        image_size=16,
        scene_size=32,
        devices=["Pixel5", "Pixel2", "S22", "S6"],
        seed=0,
    )


class TestSystemInducedHeterogeneityExists:
    def test_cross_device_transfer_shows_heterogeneity(self, bundle):
        """Training on one device yields a usable model whose accuracy is not uniform
        across device types (the mechanism behind Section 3.2).  The full directional
        claim — own device is best, by 1-50% — is checked by the Table 2 benchmark at
        a larger scale; at smoke scale we only assert the mechanism is present."""
        scale = get_scale("smoke").with_overrides(
            samples_per_class_train=6, samples_per_class_test=3, num_classes=3)
        devices = list(bundle.train)
        spec = RunSpec(kind="centralized", dataset_kwargs={"devices": devices},
                       partition_kwargs={"exclude": [d for d in devices if d != "Pixel5"]},
                       scale=spec_scale(scale), seeds=[0],
                       trainer_kwargs={"epochs": 12, "batch_size": 6, "learning_rate": 0.02})
        metrics = Runner().run(spec).metrics[0]
        own = metrics["Pixel5"]
        others = [metrics[d] for d in metrics if d != "Pixel5"]
        assert own > 1.0 / bundle.num_classes  # learned something on its own device
        assert own >= np.mean(others) - 0.05   # transfer does not beat the source device


class TestFullFLPipeline:
    def run_strategy(self, bundle, name, rounds=4, seed=0):
        scale = get_scale("smoke")
        factory = make_model_factory(scale, bundle.num_classes, bundle.image_size, seed=seed)
        shares = {k: v for k, v in market_shares().items() if k in bundle.train}
        clients = build_client_specs(bundle.train, num_clients=8, shares=shares, seed=seed)
        config = FLConfig(num_clients=8, clients_per_round=4, num_rounds=rounds,
                          batch_size=6, learning_rate=0.02, seed=seed)
        sim = FederatedSimulation(factory, clients, bundle.test, create_strategy(name), config)
        return sim.run()

    def test_fedavg_learns_something(self, bundle):
        history = self.run_strategy(bundle, "fedavg", rounds=6)
        # Better than random guessing (1/3) on average across devices.
        assert history.summary["average"] > 0.34

    def test_heteroswitch_runs_and_switches(self, bundle):
        history = self.run_strategy(bundle, "heteroswitch", rounds=6)
        assert history.summary["average"] > 0.3
        total_switch1 = sum(record.num_switch1 for record in history.rounds)
        assert total_switch1 >= 0  # switching machinery executed without error

    def test_all_methods_produce_comparable_histories(self, bundle):
        summaries = {}
        for name in ("fedavg", "heteroswitch", "qfedavg", "fedprox"):
            summaries[name] = self.run_strategy(bundle, name, rounds=3).summary
        for name, summary in summaries.items():
            assert 0.0 <= summary["worst_case"] <= summary["average"] <= 1.0, name

    def test_train_loss_decreases_over_rounds(self, bundle):
        history = self.run_strategy(bundle, "fedavg", rounds=8)
        first, last = history.rounds[0].mean_train_loss, history.rounds[-1].mean_train_loss
        assert last < first


class TestReportGeneration:
    def test_experiment_to_report(self, tmp_path):
        from repro.eval.experiments import run_experiment
        from repro.eval.reporting import write_report

        result = run_experiment("fig1", scale="smoke", devices=["Pixel5", "S6"])
        report = write_report([result], tmp_path)
        content = report.read_text()
        assert "fig1" in content
        assert (tmp_path / "fig1.csv").exists()
