"""Per-layer timing taken from outside the program.

:func:`install` wraps public functions and methods of each ``repro`` module
with timers; nothing under ``src/`` is edited.  The wrappers live in the
process that installs them and in every ``shm`` worker forked after it.  A
worker dumps its counters to ``<trace_dir>/worker-<pid>.json`` when its loop
ends at graceful pool shutdown; a worker that is killed loses them, and
:func:`collect` counts it in ``trace.lost_workers``.

Each span records its inclusive time and its self time (inclusive minus the
inclusive time of the spans opened directly inside it).  A span that is
re-entered while already open (``Module.__call__`` inside a model's
``forward``, ``super().step()``) is counted once, at its outermost call.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.connection
import multiprocessing.process
import multiprocessing.queues
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List

__all__ = ["LAYER_METRICS", "TOP_LEVEL", "LayerTrace", "install", "collect"]

# Kernels of repro.nn.functional timed one by one (forward pass only; their
# backward closures are counted in nn.backward_s).
NN_KERNELS = ("conv2d", "depthwise_conv2d", "batch_norm_train", "hardswish",
              "linear", "cross_entropy")

#: Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS: Dict[str, str] = {
    "data.build_s": "s", "data.capture_s": "s", "data.capture_calls": "count",
    "data.partition_s": "s",
    "nn.forward_s": "s", "nn.backward_s": "s", "nn.optim_s": "s",
    **{f"nn.{kernel}{suffix}": unit for kernel in NN_KERNELS
       for suffix, unit in (("_s", "s"), ("_calls", "count"))},
    "fl.local_train_s": "s", "fl.local_train_calls": "count",
    "fl.evaluate_loss_s": "s", "core.isp_transform_s": "s", "core.swad_s": "s",
    "fl.aggregate_s": "s",
    "exec.round_s": "s", "exec.wait_s": "s",
    "exec.ipc_bytes_out": "bytes", "exec.ipc_msgs_out": "count",
    "exec.ipc_bytes_in": "bytes", "exec.ipc_msgs_in": "count",
    "exec.forks": "count",
    "faults.attempts": "count", "faults.failures": "count",
    "faults.retries": "count", "faults.dropped": "count",
    "eval.evaluate_s": "s",
    "store.checkpoint_s": "s", "store.checkpoint_bytes": "bytes",
    "store.checkpoint_calls": "count", "store.result_s": "s",
    "trace.attributed_share": "ratio", "trace.unattributed_s": "s",
    "trace.overhead_s": "s", "trace.lost_workers": "count",
}

#: Server-side rows that never nest in one another; with the unattributed
#: remainder they add up to the experiment's wall time.
TOP_LEVEL = ("data.build_s", "data.partition_s", "exec.round_s", "fl.aggregate_s",
             "eval.evaluate_s", "store.checkpoint_s", "store.result_s")

# Spans reported as self time rather than inclusive time: the streaming fold
# pulls results through the executor's generator, so aggregation time
# excludes the executor (and its waiting) nested inside it.
_SELF_TIME = {"fl.aggregate"}


class LayerTrace:
    """Span totals and counts of one process."""

    def __init__(self) -> None:
        self.server_pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        """Drop every total and open span (a forked worker starts from zero)."""
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.exclusive: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[list] = []   # open frames: [name, start, child seconds]
        self._open: Dict[str, int] = defaultdict(int)

    def in_server(self) -> bool:
        return os.getpid() == self.server_pid

    def timed(self, name: str, fn: Callable, after: Callable = None) -> Callable:
        """``fn`` wrapped in a span; ``after(args)`` runs when it returns."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open[name]:
                return fn(*args, **kwargs)
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name)
            if after is not None:
                after(args)
            return result
        return wrapper

    def timed_generator(self, name: str, fn: Callable) -> Callable:
        """A generator function whose every step (``next``) is one span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def steps():
                try:
                    while True:
                        # Not a span of its own when driven from run_round.
                        opened = not self._open[name]
                        if opened:
                            self._enter(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            if opened:
                                self._exit(name)
                        yield item
                finally:
                    inner.close()
            return steps()
        return wrapper

    def _enter(self, name: str) -> None:
        self._open[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self, name: str) -> None:
        frame_name, start, child = self._stack.pop()
        self._open[frame_name] -= 1
        elapsed = time.perf_counter() - start
        self.inclusive[frame_name] += elapsed
        self.exclusive[frame_name] += elapsed - child
        self.calls[frame_name] += 1
        if self._stack:
            self._stack[-1][2] += elapsed

    def seconds(self, name: str) -> float:
        table = self.exclusive if name in _SELF_TIME else self.inclusive
        return table.get(name, 0.0)

    def to_dict(self) -> Dict[str, Dict]:
        return {"inclusive": dict(self.inclusive), "exclusive": dict(self.exclusive),
                "calls": dict(self.calls), "counts": dict(self.counts)}


def _replace_everywhere(owner, attr: str, wrapper: Callable) -> None:
    """Rebind ``owner.attr`` and every ``repro`` module alias of the same object."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper)
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        if module.__dict__.get(attr) is original:
            setattr(module, attr, wrapper)


def _wrap_method(trace: LayerTrace, cls, attr: str, name: str, after=None) -> None:
    setattr(cls, attr, trace.timed(name, getattr(cls, attr), after))


def _subclasses(cls) -> List[type]:
    found, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def install(trace_dir: Path) -> LayerTrace:
    """Wrap every measured boundary; return the server process's trace."""
    import repro.core  # noqa: F401  (registers the HeteroSwitch strategies)
    import repro.core.swad as swad
    import repro.core.transforms as transforms
    import repro.data.capture as capture
    import repro.data.partition as partition
    import repro.fl.execution as execution
    import repro.fl.simulation as simulation
    import repro.fl.strategies as strategies
    import repro.fl.training as training
    import repro.nn.functional as functional
    import repro.nn.layers as nn_layers
    import repro.nn.optim as optim
    import repro.nn.tensor as tensor
    import repro.runtime.runner as runner
    import repro.store.checkpoint as checkpoint
    import repro.store.run_store as run_store

    trace = LayerTrace()

    # repro.runtime + repro.data
    _wrap_method(trace, runner.Runner, "build_bundle", "data.build")
    _replace_everywhere(capture, "capture_with_device",
                        trace.timed("data.capture", capture.capture_with_device))
    _replace_everywhere(partition, "build_client_specs",
                        trace.timed("data.partition", partition.build_client_specs))

    # repro.nn
    _wrap_method(trace, nn_layers.Module, "__call__", "nn.forward")
    _wrap_method(trace, tensor.Tensor, "backward", "nn.backward")
    for cls in _subclasses(optim.Optimizer):
        if "step" in cls.__dict__:
            _wrap_method(trace, cls, "step", "nn.optim")
    for kernel in NN_KERNELS:
        _replace_everywhere(functional, kernel,
                            trace.timed(f"nn.{kernel}", getattr(functional, kernel)))

    # repro.fl.training + repro.core
    _replace_everywhere(training, "local_train",
                        trace.timed("fl.local_train", training.local_train))
    _replace_everywhere(training, "evaluate_loss",
                        trace.timed("fl.evaluate_loss", training.evaluate_loss))
    _wrap_method(trace, transforms.NCHWTransform, "__call__", "core.isp_transform")
    for attr in ("update", "update_from_model", "average"):
        _wrap_method(trace, swad.WeightAverager, attr, "core.swad")

    # repro.fl.strategies: the server-side fold.
    for cls in _subclasses(strategies.Strategy):
        for attr in ("aggregate", "aggregate_stream"):
            if attr in cls.__dict__:
                _wrap_method(trace, cls, attr, "fl.aggregate")

    # repro.fl.execution: executor calls, waiting, IPC and forks.
    for cls in _subclasses(execution.ClientExecutor):
        for attr in ("run_round", "run_attempts"):
            if attr in cls.__dict__:
                _wrap_method(trace, cls, attr, "exec.round")
        if "iter_round" in cls.__dict__:
            cls.iter_round = trace.timed_generator("exec.round", cls.iter_round)
    _install_ipc(trace)
    worker_main = execution._shm_worker_main

    def traced_worker_main(*args, **kwargs):
        trace.reset()
        worker_main(*args, **kwargs)
        path = trace_dir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(trace.to_dict()), encoding="utf-8")
    execution._shm_worker_main = traced_worker_main

    # repro.eval + repro.store
    _wrap_method(trace, simulation.FederatedSimulation, "evaluate", "eval.evaluate")

    def checkpoint_bytes(args) -> None:
        trace.counts["store.checkpoint_bytes"] += os.path.getsize(args[0])
    _replace_everywhere(checkpoint, "write_checkpoint",
                        trace.timed("store.checkpoint", checkpoint.write_checkpoint,
                                    after=checkpoint_bytes))
    _wrap_method(trace, run_store.RunEntry, "save_result", "store.result")
    return trace


def _install_ipc(trace: LayerTrace) -> None:
    """Count the server's pipe traffic, its waits for results and its forks."""
    connection = multiprocessing.connection._ConnectionBase
    send_bytes, recv_bytes = connection.send_bytes, connection.recv_bytes

    def counted_send(self, buf, offset=0, size=None):
        if trace.in_server():
            view = memoryview(buf)
            trace.counts["exec.ipc_bytes_out"] += (
                view.nbytes - offset * view.itemsize if size is None
                else size * view.itemsize)
            trace.counts["exec.ipc_msgs_out"] += 1
        return send_bytes(self, buf, offset, size)

    def counted_recv(self, maxlength=None):
        data = recv_bytes(self, maxlength)
        if trace.in_server():
            trace.counts["exec.ipc_bytes_in"] += len(data)
            trace.counts["exec.ipc_msgs_in"] += 1
        return data

    connection.send_bytes, connection.recv_bytes = counted_send, counted_recv

    queue_get = multiprocessing.queues.Queue.get
    timed_get = trace.timed("exec.wait", queue_get)

    def waited_get(self, *args, **kwargs):
        if trace.in_server():
            return timed_get(self, *args, **kwargs)
        return queue_get(self, *args, **kwargs)
    multiprocessing.queues.Queue.get = waited_get

    start = multiprocessing.process.BaseProcess.start

    def counted_start(self):
        if trace.in_server():
            trace.counts["exec.forks"] += 1
        return start(self)
    multiprocessing.process.BaseProcess.start = counted_start


def collect(trace: LayerTrace, trace_dir: Path) -> Dict[str, float]:
    """The server's and the flushed workers' totals as per-layer metrics.

    ``faults.*`` and the ``trace.*`` remainder rows other than
    ``trace.lost_workers`` are filled in by the caller, which knows the
    experiment's history and wall time.
    """
    worker_files = sorted(trace_dir.glob("worker-*.json"))
    dumps = [trace.to_dict()] + [json.loads(path.read_text(encoding="utf-8"))
                                 for path in worker_files]
    total = LayerTrace()
    for dump in dumps:
        for table in ("inclusive", "exclusive", "calls", "counts"):
            for name, value in dump[table].items():
                getattr(total, table)[name] += value
    metrics: Dict[str, float] = {}
    for name in LAYER_METRICS:
        if name.startswith(("faults.", "trace.")):
            continue
        base, _, suffix = name.rpartition("_")
        if suffix == "s":
            metrics[name] = total.seconds(base)
        elif suffix == "calls":
            metrics[name] = float(total.calls.get(base, 0))
        else:  # plain counters: IPC traffic, forks, checkpoint bytes
            metrics[name] = float(total.counts.get(name, 0))
    metrics["trace.lost_workers"] = metrics["exec.forks"] - len(worker_files)
    return metrics
