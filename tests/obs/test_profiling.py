"""Kernel profiler: install/uninstall, disabled cost, accumulation, thread isolation, pinned rows."""

import sys
import threading
import types

import numpy as np
import pytest
from oracle import seed_engine

from repro.nn import functional as F
from repro.nn.flat import FlatParams
from repro.nn.layers import Parameter
from repro.nn.models import create_model
from repro.nn.optim import SGD
from repro.nn.tensor import Tensor, no_grad
from repro.obs import PROFILER, KernelProfiler, profile_kernels
from repro.obs import profiling
from repro.obs.profiling import KERNELS, kernel_slot


@pytest.fixture(autouse=True)
def profiler_off():
    """Every test starts and ends with the shared profiler disabled."""
    PROFILER.drain()
    yield
    while PROFILER.enabled:
        PROFILER.deactivate()
    PROFILER.drain()


def bound_kernels():
    """``row -> callable`` currently bound at each :data:`KERNELS` entry."""
    return {row: getattr(*kernel_slot(module, path)) for module, path, row in KERNELS}


def assert_undecorated():
    """Every timed kernel is the engine's own function, with no wrapper."""
    for module, path, row in KERNELS:
        fn = getattr(*kernel_slot(module, path))
        assert not hasattr(fn, "__wrapped__"), row
        assert (fn.__module__, fn.__qualname__) == (module, path), row


class TestKernelProfiler:
    def test_disabled_by_default_and_nested_activation(self):
        profiler = KernelProfiler()
        assert not profiler.enabled
        profiler.activate()
        profiler.activate()
        profiler.deactivate()
        assert profiler.enabled  # still one activation outstanding
        profiler.deactivate()
        assert not profiler.enabled
        profiler.deactivate()  # extra deactivate is harmless
        assert not profiler.enabled

    def test_time_accumulates_calls_and_seconds(self):
        profiler = KernelProfiler()
        for seconds in (0.001, 0.002, 0.003):
            profiler.add("linear", seconds)
        drained = profiler.drain()
        calls, seconds = drained["linear"]
        assert calls == 3
        assert seconds == pytest.approx(0.006)
        assert profiler.drain() == {}  # drain clears

    def test_thread_local_accumulators_do_not_mix(self):
        profiler = KernelProfiler()
        drained = {}

        def work(tag, n):
            for _ in range(n):
                profiler.add(tag, 0.01)
            drained[tag] = profiler.drain()

        threads = [threading.Thread(target=work, args=("a", 2)),
                   threading.Thread(target=work, args=("b", 5))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert drained["a"] == {"a": (2, pytest.approx(0.02))}
        assert drained["b"] == {"b": (5, pytest.approx(0.05))}
        assert profiler.drain() == {}  # main thread saw nothing

    def test_concurrent_scopes_time_every_call_and_restore_kernels(self):
        """Overlapping scopes on more threads than cores: while a thread
        holds an activation the wrappers stay installed, so it times every
        kernel call it makes; the last scope out restores the kernels."""
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 8)))
        w = Tensor(rng.normal(size=(3, 8)))
        wrong = []

        def client():
            for _ in range(200):
                with profile_kernels() as profiler:
                    F.linear(x, w)
                    F.linear(x, w)
                calls = profiler.drain().get("linear", (0, 0.0))[0]
                if calls != 2:
                    wrong.append(calls)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert not PROFILER.enabled
        assert_undecorated()


class TestDisabledIdentity:
    """With profiling off the engine carries no timing code at all: every
    timed kernel is the undecorated engine function."""

    def test_kernels_are_undecorated_outside_profile_scope(self):
        assert not PROFILER.enabled
        assert_undecorated()
        # Outside an oracle scope the convolutions are the engine's own too.
        for name in ("conv2d", "depthwise_conv2d"):
            assert getattr(F, name).__module__ == F.__name__, name

    def test_wrappers_installed_only_inside_scope(self):
        engine = bound_kernels()
        with profile_kernels():
            for row, fn in bound_kernels().items():
                assert fn.__wrapped__ is engine[row], row
        assert bound_kernels() == engine
        assert_undecorated()

    def test_nested_activation_restores_kernels(self):
        PROFILER.activate()
        wrapped = bound_kernels()
        PROFILER.activate()
        assert bound_kernels() == wrapped  # the inner activation installs nothing
        PROFILER.deactivate()
        assert bound_kernels() == wrapped  # one activation still outstanding
        PROFILER.deactivate()
        assert_undecorated()

    def test_extra_deactivate_at_zero_keeps_kernels(self):
        with profile_kernels():
            pass
        PROFILER.deactivate()
        assert not PROFILER.enabled
        assert_undecorated()
        with profile_kernels():  # and the count did not go negative
            assert hasattr(F.linear, "__wrapped__")
        assert_undecorated()

    def test_exception_in_profile_scope_restores_kernels(self):
        with pytest.raises(RuntimeError):
            with profile_kernels():
                raise RuntimeError("boom")
        assert not PROFILER.enabled
        assert_undecorated()


class TestDisabledOverhead:
    def test_disabled_guard_costs_under_five_percent(self, monkeypatch):
        """The documented guarantee that disabled profiling is (nearly) free
        now holds by construction: with profiling off a training step runs
        no profiler code at all -- no clock read, no sample recorded -- so
        its overhead is zero, not merely under 5%.  Inside a scope the same
        step is timed, which shows the counters below can see the wrappers.
        """
        clock_reads, samples = [], []
        fake_time = types.SimpleNamespace(
            perf_counter=lambda: clock_reads.append(None) or 0.0)
        monkeypatch.setattr(profiling, "time", fake_time)
        monkeypatch.setattr(PROFILER, "add",
                            lambda name, seconds: samples.append(name))
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(8, 16)))
        w = Parameter(rng.normal(size=(4, 16)))

        def step():
            loss = F.cross_entropy(F.hardswish(F.linear(x, w)),
                                   np.zeros(8, dtype=int))
            loss.backward()
            SGD(FlatParams([w]), lr=0.1).step()

        step()
        assert not PROFILER.enabled
        assert (clock_reads, samples) == ([], [])
        with profile_kernels():
            step()
        assert sorted(set(samples)) == ["cross_entropy", "hardswish", "linear",
                                        "optim.step"]
        assert len(clock_reads) == 2 * len(samples)
        clock_reads.clear(), samples.clear()
        step()  # the scope is closed: back to no profiler work
        assert (clock_reads, samples) == ([], [])


class TestEngineIntegration:
    def test_kernels_recorded_only_while_enabled(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(8, 16)))
        w = Tensor(rng.normal(size=(4, 16)))
        F.linear(x, w)
        assert PROFILER.drain() == {}  # disabled: no samples
        with profile_kernels() as profiler:
            F.linear(x, w)
            F.hardswish(x)
            loss = F.cross_entropy(F.linear(x, w), np.zeros(8, dtype=int))
            loss.backward()
        drained = profiler.drain()
        assert drained["linear"][0] == 2
        assert drained["hardswish"][0] == 1
        assert drained["cross_entropy"][0] == 1
        assert all(seconds >= 0.0 for _, seconds in drained.values())

    def test_optimizer_step_recorded(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 8)))
        w = Parameter(rng.normal(size=(3, 8)))
        with profile_kernels() as profiler:
            loss = F.cross_entropy(F.linear(x, w), np.zeros(4, dtype=int))
            loss.backward()
            SGD(FlatParams([w]), lr=0.1).step()
        assert profiler.drain()["optim.step"][0] == 1

    def test_profiled_results_match_unprofiled(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(6, 12)))
        w = Tensor(rng.normal(size=(5, 12)))
        plain = F.linear(x, w).data
        with profile_kernels():
            profiled = F.linear(x, w).data
        PROFILER.drain()
        np.testing.assert_array_equal(plain, profiled)

    def test_mobilenet_step_rows_and_calls_are_pinned(self):
        """One MobileNetV3-small train step reports exactly these rows.  A
        module that reached a kernel by a name the table does not cover would
        drop calls from them."""
        model = create_model("mobilenetv3_small", num_classes=5)
        x = Tensor(np.random.default_rng(0).normal(size=(4, 3, 32, 32)))
        optimizer = SGD(FlatParams.from_module(model), lr=0.1)
        with profile_kernels() as profiler:
            F.cross_entropy(model(x), np.arange(4)).backward()
            optimizer.step()
            train = {row: calls for row, (calls, _) in profiler.drain().items()}
            model.eval()
            with no_grad():
                model(x)
            evaluate = {row: calls for row, (calls, _) in profiler.drain().items()}
        assert train == {"batch_norm_train": 14, "col2im": 4, "cross_entropy": 1,
                         "hardswish": 6, "im2col": 5, "linear": 7, "matmul": 41,
                         "optim.step": 1}
        assert evaluate == {"batch_norm_eval": 14, "hardswish": 6, "im2col": 5,
                            "linear": 7, "matmul": 14}


class TestSeedOracleComposition:
    def test_profiling_inside_oracle_times_and_restores_oracle(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        w = Parameter(rng.normal(size=(4, 27)))
        with seed_engine.engine("reference"):
            oracle = bound_kernels()
            assert (oracle["im2col"], oracle["col2im"], oracle["optim.step"]) == \
                (seed_engine._im2col, seed_engine._col2im, seed_engine.sgd_step)
            with profile_kernels() as profiler:
                wrapped = bound_kernels()
                for row in ("im2col", "col2im", "optim.step"):
                    assert wrapped[row].__wrapped__ is oracle[row], row
                # max_pool2d is the engine's, reaching the oracle's gather
                # and scatter through the module.  The convolutions are the
                # oracle's own and call its helpers directly.
                F.linear(F.flatten(F.max_pool2d(x, 2)), w).sum().backward()
                SGD(FlatParams([w]), lr=0.1).step()
            rows = profiler.drain()
            assert {"im2col", "col2im", "optim.step"} <= rows.keys()
            assert bound_kernels() == oracle
        assert_undecorated()
