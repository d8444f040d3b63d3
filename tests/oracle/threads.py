"""Run callables concurrently on threads of one process.

The engine's compute dtype and the kernel profiler's accumulators are per
thread; the suites check that by running whole simulations side by side
with :func:`side_by_side` and comparing each with its sequential run.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List


def side_by_side(*runs: Callable[[], object]) -> List[object]:
    """Start each zero-argument ``run`` on its own thread at the same moment;
    return their results in order, re-raising the first failure."""
    start = threading.Barrier(len(runs))

    def call(run):
        start.wait(timeout=30)
        return run()

    with ThreadPoolExecutor(max_workers=len(runs)) as pool:
        futures = [pool.submit(call, run) for run in runs]
        return [future.result() for future in futures]
