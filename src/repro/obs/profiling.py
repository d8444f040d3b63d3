"""Per-kernel timing for the training engine, installed only while profiling.

:data:`KERNELS` lists the engine callables that are timed and the row each
one reports under.  The first :meth:`KernelProfiler.activate` rebinds every
entry to a ``perf_counter`` wrapper around whatever was bound at that moment
(the engine's own function, or a test oracle's or a benchmark's wrapper), and
the last :meth:`KernelProfiler.deactivate` puts exactly those objects back.
With profiling off the kernels are the undecorated functions: the engine
carries no timing code and pays nothing for it.  Callers reach the kernels
through their module (``F.linear``, ``SGD.step``), so a rebinding is seen on
the next call.

Accumulators are *thread-local*: each thread sums ``name -> [calls,
seconds]`` privately and :meth:`KernelProfiler.drain` returns-and-clears
only the calling thread's totals, so profiled scopes that overlap on several
threads of one process never mix numbers.  The wrappers themselves are
process-global behind a nesting counter, so overlapping scopes keep them
installed until the last one finishes and every call made inside a scope is
timed.  A wrapper only times and forwards, so installing it never perturbs
results.

Worker processes of the shm executor activate the profiler per client
inside ``run_client``; the drained totals travel back as packed scalars on
the existing result path.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

__all__ = ["KERNELS", "KernelProfiler", "PROFILER", "kernel_slot",
           "profile_kernels"]

#: The timed kernels: ``(module, attribute path in it, row name)``.
KERNELS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.nn.functional", "_im2col", "im2col"),
    ("repro.nn.functional", "_col2im", "col2im"),
    ("repro.nn.functional", "_contract", "matmul"),
    ("repro.nn.functional", "linear", "linear"),
    ("repro.nn.functional", "batch_norm_train", "batch_norm_train"),
    ("repro.nn.functional", "batch_norm_eval", "batch_norm_eval"),
    ("repro.nn.functional", "hardswish", "hardswish"),
    ("repro.nn.functional", "cross_entropy", "cross_entropy"),
    ("repro.nn.optim", "SGD.step", "optim.step"),
)


def kernel_slot(module: str, path: str) -> Tuple[object, str]:
    """The ``(owner, attribute)`` a :data:`KERNELS` entry is bound at."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class KernelProfiler:
    """Process-global kernel timer with thread-local accumulators."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._active = 0
        self._local = threading.local()
        self._replaced: List[Tuple[object, str, Callable]] = []

    @property
    def enabled(self) -> bool:
        """Whether the kernel wrappers are installed."""
        return self._active > 0

    def _acc(self) -> Dict[str, list]:
        acc = getattr(self._local, "acc", None)
        if acc is None:
            acc = self._local.acc = {}
        return acc

    def add(self, name: str, seconds: float) -> None:
        acc = self._acc()
        entry = acc.get(name)
        if entry is None:
            acc[name] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def drain(self) -> Dict[str, Tuple[int, float]]:
        """Return-and-clear the calling thread's ``name -> (calls, seconds)``."""
        acc = getattr(self._local, "acc", None)
        if not acc:
            return {}
        out = {name: (int(calls), float(seconds))
               for name, (calls, seconds) in acc.items()}
        acc.clear()
        return out

    def _timed(self, fn: Callable, name: str) -> Callable:
        add, clock = self.add, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                add(name, clock() - start)

        return timed

    def activate(self) -> None:
        """Install the kernel wrappers; nests (see :meth:`deactivate`)."""
        with self._lock:
            self._active += 1
            if self._active > 1:
                return
            for module, path, name in KERNELS:
                owner, attr = kernel_slot(module, path)
                current = getattr(owner, attr)
                self._replaced.append((owner, attr, current))
                setattr(owner, attr, self._timed(current, name))

    def deactivate(self) -> None:
        """Drop one activation; the last one restores the replaced kernels."""
        with self._lock:
            if self._active == 0:
                return
            self._active -= 1
            if self._active == 0:
                for owner, attr, original in reversed(self._replaced):
                    setattr(owner, attr, original)
                self._replaced.clear()


PROFILER = KernelProfiler()


@contextmanager
def profile_kernels() -> Iterator[KernelProfiler]:
    """Time the engine kernels for a block; yields the shared profiler."""
    PROFILER.activate()
    try:
        yield PROFILER
    finally:
        PROFILER.deactivate()
