"""Weight formats of the FL framework: the packed vector and the state dict.

Weights cross the federated round protocol in one format: a vector packed
in :class:`StateLayout` order (the state dict's insertion order:
parameters, then buffers).  The server broadcasts the global vector,
clients load it with :meth:`~repro.nn.flat.FlatParams.load` and return
:meth:`~repro.nn.flat.FlatParams.pack`, and the aggregation rules fold the
returned vectors.  ``Module.state_dict()``/``load_state_dict(state)`` stay
the dict boundary for checkpoints, ``global_state`` and centralized runs.
This module holds:

* :class:`StateLayout` — the one flatten order, with ``pack``/``unpack``
  between the two formats and per-key ``segments`` of a vector;
* :class:`StreamingAverager` — the one weighted fold of client vectors;
* :func:`state_fingerprint` — a hash of a state dict's raw bytes, so two
  runs can be compared for bit-identity without shipping the weights.

States are persisted by the run store's checkpoint codec
(:mod:`repro.store.checkpoint`).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Optional

import numpy as np

__all__ = [
    "StateLayout",
    "StreamingAverager",
    "state_fingerprint",
]

StateDict = Dict[str, np.ndarray]


class StateLayout:
    """Flat-vector layout of a state dict, preserving the template's key order.

    Packing a state into one contiguous vector turns per-key Python loops
    into whole-vector NumPy ops; the vector is what crosses the round
    protocol.  The layout keeps the *insertion* order of the template's keys
    (not sorted order), which is ``Module.state_dict``'s parameters-then-
    buffers order and so the order of :meth:`repro.nn.flat.FlatParams.pack`.
    Per-key reductions such as q-FedAvg's delta norm sum their per-key
    partials in iteration order, and replaying that exact order through
    :meth:`segments` is what keeps flat reductions bitwise-identical to the
    seed dict-based reductions (the test oracle).
    """

    def __init__(self, template: StateDict) -> None:
        self.keys = list(template)
        self.shapes = [np.asarray(template[key]).shape for key in self.keys]
        dtypes = {np.asarray(template[key]).dtype for key in self.keys}
        self.dtype = np.result_type(*dtypes) if dtypes else np.dtype(np.float64)
        sizes = [int(np.prod(shape)) if shape else 1 for shape in self.shapes]
        self.offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        self.size = int(self.offsets[-1])

    def pack(self, state: StateDict) -> np.ndarray:
        """Flatten ``state`` into one vector (in the layout's dtype) in layout order.

        Every entry must match the layout's recorded shape exactly.  A
        same-size-but-wrong-shape entry (e.g. ``(1, 4)`` where the layout
        records ``(4,)``) would otherwise flatten silently in the wrong
        element order; a dict-based reduction refuses it, and so must this.
        """
        if state.keys() != set(self.keys):
            raise KeyError(f"state keys do not match the layout's: "
                           f"{sorted(set(state) ^ set(self.keys))[:5]}")
        out = np.empty(self.size, dtype=self.dtype)
        for key, shape, start, end in zip(
            self.keys, self.shapes, self.offsets[:-1], self.offsets[1:]
        ):
            value = np.asarray(state[key], dtype=out.dtype)
            if value.shape != shape:
                raise ValueError(
                    f"shape mismatch for '{key}': got {value.shape}, "
                    f"layout records {shape}"
                )
            out[start:end] = value.reshape(-1)
        return out

    def unpack(self, vector: np.ndarray) -> StateDict:
        """Rebuild a state dict of views into ``vector`` (no copies)."""
        if vector.size != self.size:
            raise ValueError(f"vector length {vector.size} does not match layout size {self.size}")
        return {
            key: vector[start:end].reshape(shape)
            for key, shape, start, end in zip(
                self.keys, self.shapes, self.offsets[:-1], self.offsets[1:]
            )
        }

    def segments(self, vector: np.ndarray):
        """Iterate ``(key, flat_segment)`` pairs of ``vector`` in layout order."""
        for key, start, end in zip(self.keys, self.offsets[:-1], self.offsets[1:]):
            yield key, vector[start:end]


def _normalized_weights(weights: Iterable[float] | None, count: int) -> np.ndarray:
    """Validate and normalize aggregation weights for ``count`` states.

    Beyond requiring a positive total, every entry must be finite and
    non-negative: a NaN weight slips past a ``total <= 0`` check (``nan <= 0``
    is False) and silently poisons the whole average, and a negative
    per-client weight (e.g. ``[-1, 2]``) can sum positive while flipping that
    client's contribution sign.
    """
    if weights is None:
        return np.full(count, 1.0 / count)
    weights_arr = np.asarray(list(weights), dtype=np.float64)
    if weights_arr.ndim != 1 or weights_arr.shape[0] != count:
        raise ValueError("weights length must match number of states")
    if not np.all(np.isfinite(weights_arr)):
        raise ValueError(
            f"weights must be finite, got {weights_arr.tolist()}"
        )
    if np.any(weights_arr < 0):
        raise ValueError(
            f"weights must be non-negative, got {weights_arr.tolist()}"
        )
    total = weights_arr.sum()
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    return weights_arr / total


class StreamingAverager:
    """Weighted average of packed state vectors, one vector at a time in O(1) memory.

    The number of vectors (and their weights) must be known up front — the
    seed reduction normalizes weights by their total *before* the first
    multiply-add, so a one-pass streaming reduction can only replay its exact
    float ops if the normalizer is available before the first vector
    arrives.  Given that, :meth:`add` folds each vector into a single flat
    accumulator, so peak memory is independent of how many vectors are
    averaged — the property the fleet-scale execution path relies on.

    Element for element this is the multiply-add sequence of the seed
    per-key reduction (vectors outermost, starting from zeros, weights
    normalized up front), so streaming is bitwise-identical to materializing
    the full list first.

    Precision: the running accumulator is **always float64**, whatever the
    input vectors' compute dtype; the result is cast back to the input dtype
    exactly once in :meth:`finalize`.  Under the float64 golden path the
    accumulate-then-cast is a bitwise no-op, and under float32 the reduction
    over many clients keeps full double precision until the single commit
    cast — the "accumulate in float64, cast on commit" rule every server
    aggregation in this repository follows (pinned in tests/nn/test_dtype.py).
    """

    def __init__(self, count: int, weights: Iterable[float] | None = None) -> None:
        if count <= 0:
            raise ValueError("cannot average an empty list of states")
        self._weights = _normalized_weights(weights, count)
        self._count = count
        self._index = 0
        self._accumulator: Optional[np.ndarray] = None
        self._dtype: Optional[np.dtype] = None

    def add(self, vector: np.ndarray) -> None:
        """Fold the next vector into the running average (in declared order)."""
        if self._index >= self._count:
            raise ValueError(f"received more states than the declared {self._count}")
        if self._accumulator is None:
            self._accumulator = np.zeros(vector.shape, dtype=np.float64)
            self._dtype = vector.dtype
        elif vector.shape != self._accumulator.shape:
            raise ValueError(f"vector of shape {vector.shape} does not match the "
                             f"averaged shape {self._accumulator.shape}")
        # The vector keeps its own dtype, so the promotion to float64 happens
        # inside the multiply-add, not per input element.
        self._accumulator += self._weights[self._index] * vector
        self._index += 1

    def finalize(self) -> np.ndarray:
        """The average, once exactly ``count`` vectors have been folded in."""
        if self._index != self._count:
            raise ValueError(
                f"expected {self._count} states, received {self._index}"
            )
        return self._accumulator.astype(self._dtype, copy=False)


def state_fingerprint(state: StateDict) -> str:
    """sha256 hex digest of a state dict's exact contents.

    Keys are visited in sorted order and each entry contributes its name,
    dtype, shape and raw bytes, so two digests are equal exactly when the
    states are bitwise equal — the run store uses it to compare a resumed
    run against an uninterrupted one without keeping both sets of weights.
    """
    digest = hashlib.sha256()
    for key in sorted(state):
        value = np.ascontiguousarray(state[key])
        digest.update(key.encode("utf-8"))
        digest.update(value.dtype.str.encode("ascii"))
        digest.update(repr(value.shape).encode("ascii"))
        digest.update(value.tobytes())
    return digest.hexdigest()

