"""Tests for FL client partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import ArrayDataset
from repro.data.partition import ClientSpec, assign_device_types, build_client_specs, shard_dataset


def make_dataset(n=20, seed=0):
    rng = np.random.default_rng(seed)
    return ArrayDataset(rng.random((n, 4)), np.arange(n) % 3)


class TestAssignDeviceTypes:
    def test_counts_follow_shares(self):
        assignment = assign_device_types(100, {"A": 0.7, "B": 0.3}, seed=0)
        counts = {name: assignment.count(name) for name in ("A", "B")}
        assert counts["A"] == 70 and counts["B"] == 30

    def test_total_equals_num_clients(self):
        assignment = assign_device_types(37, {"A": 0.5, "B": 0.3, "C": 0.2}, seed=0)
        assert len(assignment) == 37

    def test_every_device_appears_for_large_population(self):
        shares = {f"D{i}": 1.0 for i in range(5)}
        assignment = assign_device_types(50, shares, seed=0)
        assert set(assignment) == set(shares)

    def test_exclusion(self):
        assignment = assign_device_types(20, {"A": 0.5, "B": 0.5}, seed=0, exclude=["B"])
        assert set(assignment) == {"A"}

    def test_unknown_exclude_name_raises(self):
        with pytest.raises(ValueError, match=r"unknown device\(s\) \['Pixle5'\].*'Pixel5'"):
            assign_device_types(10, {"Pixel5": 0.5, "S6": 0.5}, exclude=["Pixle5"])

    def test_excluding_everything_raises(self):
        with pytest.raises(ValueError):
            assign_device_types(10, {"A": 1.0}, exclude=["A"])

    def test_invalid_num_clients(self):
        with pytest.raises(ValueError):
            assign_device_types(0, {"A": 1.0})

    def test_deterministic(self):
        shares = {"A": 0.4, "B": 0.6}
        assert assign_device_types(11, shares, seed=5) == assign_device_types(11, shares, seed=5)

    @given(st.integers(1, 200))
    @settings(max_examples=25, deadline=None)
    def test_property_length_and_membership(self, num_clients):
        shares = {"A": 0.2, "B": 0.3, "C": 0.5}
        assignment = assign_device_types(num_clients, shares, seed=num_clients)
        assert len(assignment) == num_clients
        assert set(assignment) <= set(shares)


class TestShardDataset:
    def test_shards_partition_dataset(self):
        ds = ArrayDataset(np.arange(20, dtype=float).reshape(20, 1), np.zeros(20, dtype=int))
        shards = shard_dataset(ds, 4, seed=0)
        assert len(shards) == 4
        all_ids = sorted(int(x) for shard in shards for x in shard.features[:, 0])
        assert all_ids == list(range(20))

    def test_near_equal_sizes(self):
        shards = shard_dataset(make_dataset(22), 4, seed=0)
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_too_many_shards_raises(self):
        with pytest.raises(ValueError):
            shard_dataset(make_dataset(3), 5)

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            shard_dataset(make_dataset(), 0)


class TestBuildClientSpecs:
    def test_every_client_gets_data(self):
        datasets = {"A": make_dataset(20, 0), "B": make_dataset(20, 1)}
        specs = build_client_specs(datasets, num_clients=10, seed=0)
        assert len(specs) == 10
        assert all(isinstance(s, ClientSpec) and len(s.dataset) > 0 for s in specs)

    def test_client_ids_sequential(self):
        datasets = {"A": make_dataset(20)}
        specs = build_client_specs(datasets, num_clients=5, seed=0)
        assert [s.client_id for s in specs] == list(range(5))

    def test_device_assignment_respects_shares(self):
        datasets = {"A": make_dataset(30, 0), "B": make_dataset(30, 1)}
        specs = build_client_specs(datasets, num_clients=10, shares={"A": 0.8, "B": 0.2}, seed=0)
        counts = {"A": 0, "B": 0}
        for spec in specs:
            counts[spec.device] += 1
        assert counts["A"] == 8 and counts["B"] == 2

    def test_exclude_device(self):
        datasets = {"A": make_dataset(20, 0), "B": make_dataset(20, 1)}
        specs = build_client_specs(datasets, num_clients=6, seed=0, exclude=["B"])
        assert all(spec.device == "A" for spec in specs)

    def test_unknown_exclude_name_raises(self):
        datasets = {"A": make_dataset(20, 0), "B": make_dataset(20, 1)}
        with pytest.raises(ValueError, match="unknown device"):
            build_client_specs(datasets, num_clients=6, seed=0, exclude=["C"])

    def test_clients_of_same_device_get_distinct_shards(self):
        features = np.arange(20, dtype=float).reshape(20, 1)
        datasets = {"A": ArrayDataset(features, np.zeros(20, dtype=int))}
        specs = build_client_specs(datasets, num_clients=4, seed=0)
        id_sets = [frozenset(spec.dataset.features[:, 0].astype(int)) for spec in specs]
        assert len(set(id_sets)) == 4  # all different shards

    def test_more_clients_than_samples_reuses_shards(self):
        datasets = {"A": make_dataset(3)}
        specs = build_client_specs(datasets, num_clients=6, seed=0)
        assert len(specs) == 6
        assert all(len(spec.dataset) >= 1 for spec in specs)

    def test_missing_device_dataset_raises(self):
        datasets = {"A": make_dataset(10)}
        with pytest.raises(KeyError):
            build_client_specs(datasets, num_clients=4, shares={"A": 0.5, "B": 0.5}, seed=0)

    def test_client_spec_validation(self):
        with pytest.raises(ValueError):
            ClientSpec(client_id=-1, device="A", dataset=make_dataset(2))
