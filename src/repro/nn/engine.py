"""Compute-dtype selection for the NumPy substrate.

Every tensor, parameter arena, optimizer buffer and fused kernel allocates in
the current thread's compute dtype: ``"float64"`` by default — the bitwise
golden path — or ``"float32"``, which halves memory bandwidth on the Table 4
workload.  The dtype is *thread-local* so models trained or evaluated on
several threads of one process (two simulations run side by side, say) can
use different precisions without interfering — the same reasoning that made
gradient mode thread-local in :mod:`repro.nn.tensor`.
Every site that builds a model, trains a client or aggregates results enters
``dtype_mode(config.dtype)`` so the whole pipeline agrees on one precision.

Aggregation reductions always accumulate in float64 and cast once on commit
regardless of the compute dtype; see :mod:`repro.nn.serialization`.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["COMPUTE_DTYPES", "current_dtype", "current_dtype_name",
           "dtype_mode", "validate_dtype"]

# The supported compute precisions.  float64 is the golden path the run
# fingerprints pin; float32 is the opt-in fast path, validated by tolerance (tests/nn/test_dtype.py, tests/fl/test_dtype_equivalence.py).
COMPUTE_DTYPES = ("float64", "float32")

_NP_DTYPES = {name: np.dtype(name) for name in COMPUTE_DTYPES}


class _DtypeState(threading.local):
    def __init__(self) -> None:
        self.dtype_name = "float64"
        self.dtype = _NP_DTYPES["float64"]


_ENGINE = _DtypeState()


def validate_dtype(name: str) -> str:
    """Check ``name`` is a supported compute dtype and return it."""
    if name not in COMPUTE_DTYPES:
        raise ValueError(f"dtype must be one of {COMPUTE_DTYPES}, got {name!r}")
    return name


def current_dtype() -> np.dtype:
    """The numpy dtype the current thread's engine allocates in."""
    return _ENGINE.dtype


def current_dtype_name() -> str:
    """The current thread's compute dtype as its config-level name."""
    return _ENGINE.dtype_name


class dtype_mode:
    """Context manager selecting the compute dtype for the current thread.

    ``with dtype_mode("float32"): ...`` makes every tensor / arena / kernel
    allocation inside the block single precision; the previous dtype is
    restored on exit.  The dtype is thread-local, so concurrent threads can
    run different precisions independently.
    """

    def __init__(self, name: str) -> None:
        self._name = validate_dtype(name)

    def __enter__(self) -> "dtype_mode":
        self._prev = _ENGINE.dtype_name
        _ENGINE.dtype_name = self._name
        _ENGINE.dtype = _NP_DTYPES[self._name]
        return self

    def __exit__(self, *exc) -> None:
        _ENGINE.dtype_name = self._prev
        _ENGINE.dtype = _NP_DTYPES[self._prev]
