"""Client partitioning utilities for the FL simulations.

The paper's FL experiments assign each simulated client a device type — the
composition either mirrors the market shares of Table 1 (fairness experiments)
or is uniform / leave-one-out (domain-generalization experiments) — and gives
each client a shard of that device's data.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from .dataset import ArrayDataset

__all__ = ["ClientSpec", "assign_device_types", "shard_dataset", "build_client_specs"]


@dataclass
class ClientSpec:
    """One FL client: its id, device type, and local dataset."""

    client_id: int
    device: str
    dataset: ArrayDataset

    def __post_init__(self) -> None:
        if self.client_id < 0:
            raise ValueError("client_id must be non-negative")
        if len(self.dataset) == 0:
            raise ValueError("client dataset must be non-empty")


def assign_device_types(
    num_clients: int,
    shares: Mapping[str, float],
    seed: int = 0,
    exclude: Optional[Sequence[str]] = None,
) -> List[str]:
    """Assign a device type to every client.

    Device counts follow ``shares`` (e.g. the Table 1 market shares) using
    largest-remainder rounding so every listed device appears when the client
    population is large enough, then the assignment order is shuffled.
    Every ``exclude`` name must be a key of ``shares``.
    """
    if num_clients <= 0:
        raise ValueError("num_clients must be positive")
    exclude_set = set(exclude or [])
    unknown = exclude_set - set(shares)
    if unknown:
        raise ValueError(
            f"cannot exclude unknown device(s) {sorted(unknown)}; "
            f"devices: {sorted(shares)}"
        )
    filtered = {name: share for name, share in shares.items() if name not in exclude_set}
    if not filtered:
        raise ValueError("no devices left after exclusion")
    total = sum(filtered.values())
    if total <= 0:
        raise ValueError("shares must sum to a positive value")
    normalized = {name: share / total for name, share in filtered.items()}

    # Largest-remainder apportionment.
    exact = {name: share * num_clients for name, share in normalized.items()}
    counts = {name: int(np.floor(value)) for name, value in exact.items()}
    remainder = num_clients - sum(counts.values())
    by_fraction = sorted(exact, key=lambda name: exact[name] - counts[name], reverse=True)
    for name in by_fraction[:remainder]:
        counts[name] += 1

    assignment: List[str] = []
    for name, count in counts.items():
        assignment.extend([name] * count)
    rng = np.random.default_rng(seed)
    rng.shuffle(assignment)
    return assignment


def shard_dataset(dataset: ArrayDataset, num_shards: int, seed: int = 0) -> List[ArrayDataset]:
    """Split a dataset into ``num_shards`` near-equal random shards."""
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    n = len(dataset)
    if num_shards > n:
        raise ValueError(f"cannot split {n} samples into {num_shards} non-empty shards")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    shards = np.array_split(order, num_shards)
    return [dataset.subset(indices) for indices in shards]


def build_client_specs(
    device_datasets: Mapping[str, ArrayDataset],
    num_clients: int,
    shares: Optional[Mapping[str, float]] = None,
    seed: int = 0,
    exclude: Optional[Sequence[str]] = None,
) -> List[ClientSpec]:
    """Create the client population for an FL run.

    Parameters
    ----------
    device_datasets:
        Per-device training datasets (e.g. from
        :func:`repro.data.capture.build_device_datasets`).
    num_clients:
        Total number of simulated clients ``N``.
    shares:
        Device-type participation shares; defaults to uniform over the devices
        present in ``device_datasets``.
    exclude:
        Device types to leave out entirely (the Fig. 5 leave-one-device-out
        protocol).

    Every client of a given device type receives a distinct shard of that
    device's dataset; if there are more clients of a type than samples allow,
    shards cycle (clients may share samples, which mirrors the paper's setting
    where a device type's data pool is finite).
    """
    if shares is None:
        shares = {name: 1.0 for name in device_datasets}
    assignment = assign_device_types(num_clients, shares, seed=seed, exclude=exclude)

    # Group clients per device so each device's data is sharded once.
    per_device_clients: Dict[str, List[int]] = {}
    for client_id, device in enumerate(assignment):
        per_device_clients.setdefault(device, []).append(client_id)

    specs: List[ClientSpec] = [None] * num_clients  # type: ignore[list-item]
    for device, client_ids in per_device_clients.items():
        if device not in device_datasets:
            raise KeyError(f"no dataset available for device '{device}'")
        dataset = device_datasets[device]
        max_shards = min(len(client_ids), len(dataset))
        # zlib.crc32 gives a stable per-device offset (Python's hash() is salted
        # per process, which would make the sharding non-reproducible).
        shards = shard_dataset(dataset, max_shards,
                               seed=seed + zlib.crc32(device.encode()) % 10_000)
        for position, client_id in enumerate(client_ids):
            shard = shards[position % len(shards)]
            specs[client_id] = ClientSpec(client_id=client_id, device=device, dataset=shard)
    return list(specs)
