"""Training-engine mode selection for the NumPy substrate.

The repository ships two bit-identical implementations of the training hot
path:

* ``"flat"`` (the default) — the flat-parameter engine: fused single-node
  autograd kernels (:func:`repro.nn.functional.linear`,
  :func:`repro.nn.functional.cross_entropy`), convolution contractions
  lowered straight to ``np.matmul``, a pointwise-conv path without im2col or
  col2im, a bincount-based col2im scatter, and whole-vector optimizer steps
  over a contiguous :class:`~repro.nn.flat.FlatParams` arena.
* ``"reference"`` — the seed per-parameter path: operator-composed autograd
  graphs, ``np.einsum`` contractions, ``np.add.at`` col2im, and
  per-parameter optimizer loops.

Both engines produce bitwise-identical weights and metrics (the equivalence
suite in ``tests/fl/test_train_engine.py`` pins this for every strategy and
execution backend); the flat engine simply spends far less time in the Python
interpreter.  The mode is *thread-local* so concurrent clients on the thread
executor can train under different engines without interfering — the same
reasoning that made gradient mode thread-local in :mod:`repro.nn.tensor`.

The engine state also owns the *compute dtype*: every tensor, parameter
arena, optimizer buffer and fused kernel allocates in the current thread's
dtype (``"float64"`` by default — the bitwise golden reference — or
``"float32"``, which halves memory bandwidth on the Table 4 workload).
Aggregation reductions always accumulate in float64 and cast once on commit
regardless of the compute dtype; see :mod:`repro.nn.serialization`.
"""

from __future__ import annotations

import threading

import numpy as np

from ..obs.profiling import PROFILER as KERNEL_PROFILER
from ..obs.profiling import profile_kernels

__all__ = ["COMPUTE_DTYPES", "KERNEL_PROFILER", "TRAIN_ENGINES",
           "current_dtype", "current_dtype_name", "current_engine",
           "dtype_mode", "engine_mode", "engine_scope", "profile_kernels",
           "validate_dtype", "validate_engine"]

TRAIN_ENGINES = ("flat", "reference")

# The supported compute precisions.  float64 is the golden path — bitwise
# identical to the seed implementation; float32 is the opt-in fast path,
# validated by tolerance (tests/nn/test_dtype.py, tests/fl/test_dtype_equivalence.py).
COMPUTE_DTYPES = ("float64", "float32")

_NP_DTYPES = {name: np.dtype(name) for name in COMPUTE_DTYPES}


class _EngineMode(threading.local):
    def __init__(self) -> None:
        self.mode = "flat"
        self.dtype_name = "float64"
        self.dtype = _NP_DTYPES["float64"]


_ENGINE = _EngineMode()


def validate_engine(name: str) -> str:
    """Check ``name`` is a known engine and return it."""
    if name not in TRAIN_ENGINES:
        raise ValueError(f"train engine must be one of {TRAIN_ENGINES}, got {name!r}")
    return name


def current_engine() -> str:
    """The engine the current thread's hot-path kernels dispatch on."""
    return _ENGINE.mode


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


class engine_mode:
    """Context manager selecting the hot-path engine for the current thread.

    ``with engine_mode("reference"): ...`` runs the enclosed training code on
    the seed per-parameter kernels; the previous mode is restored on exit.
    """

    def __init__(self, name: str) -> None:
        self._name = validate_engine(name)

    def __enter__(self) -> "engine_mode":
        self._prev = _ENGINE.mode
        _ENGINE.mode = self._name
        return self

    def __exit__(self, *exc) -> None:
        _ENGINE.mode = self._prev


class dtype_mode:
    """Context manager selecting the compute dtype for the current thread.

    ``with dtype_mode("float32"): ...`` makes every tensor / arena / kernel
    allocation inside the block single precision; the previous dtype is
    restored on exit.  Like :class:`engine_mode` it is thread-local, so
    concurrent executor threads can run different precisions independently.
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


class engine_scope:
    """Combined engine + dtype scope derived from an ``FLConfig``-like object.

    Reads ``config.train_engine`` and ``config.dtype`` (falling back to the
    defaults when absent, so plain namespaces and older configs keep
    working) and applies both thread-local modes for the enclosed block.
    Every site that builds a model, trains a client or aggregates results
    enters this scope so the whole pipeline agrees on one precision.
    """

    def __init__(self, config: object) -> None:
        self._engine = engine_mode(getattr(config, "train_engine", "flat"))
        self._dtype = dtype_mode(getattr(config, "dtype", "float64"))

    def __enter__(self) -> "engine_scope":
        self._engine.__enter__()
        self._dtype.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._dtype.__exit__(*exc)
        self._engine.__exit__(*exc)
