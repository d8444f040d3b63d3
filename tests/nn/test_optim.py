"""Tests for SGD, momentum, weight decay, and the FedProx proximal optimizer."""

import numpy as np
import pytest
from oracle import seed_engine

from repro.nn.layers import Linear, Parameter
from repro.nn.optim import SGD, ProximalSGD
from repro.nn.tensor import Tensor


def make_param(values) -> Parameter:
    p = Parameter(np.asarray(values, dtype=float))
    return p


class TestSGD:
    def test_basic_step(self):
        p = make_param([1.0, 2.0])
        p.grad = np.array([0.5, 1.0])
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [0.95, 1.9])

    def test_skips_params_without_grad(self):
        p = make_param([1.0])
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_zero_grad(self):
        p = make_param([1.0])
        p.grad = np.array([1.0])
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None

    def test_weight_decay_shrinks_weights(self):
        p = make_param([10.0])
        p.grad = np.array([0.0])
        SGD([p], lr=0.1, weight_decay=0.5).step()
        assert p.data[0] < 10.0

    def test_momentum_accelerates(self):
        # With a constant gradient, momentum accumulates larger steps.
        plain = make_param([0.0])
        momentum = make_param([0.0])
        opt_plain = SGD([plain], lr=0.1)
        opt_momentum = SGD([momentum], lr=0.1, momentum=0.9)
        for _ in range(5):
            plain.grad = np.array([1.0])
            momentum.grad = np.array([1.0])
            opt_plain.step()
            opt_momentum.step()
        assert momentum.data[0] < plain.data[0]  # moved further in the -grad direction

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD([make_param([1.0])], lr=0.0)

    def test_invalid_momentum(self):
        with pytest.raises(ValueError):
            SGD([make_param([1.0])], lr=0.1, momentum=1.5)

    def test_invalid_weight_decay(self):
        with pytest.raises(ValueError):
            SGD([make_param([1.0])], lr=0.1, weight_decay=-1.0)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_converges_on_quadratic(self):
        p = make_param([5.0])
        opt = SGD([p], lr=0.1)
        for _ in range(100):
            p.grad = 2 * p.data  # d/dp p^2
            opt.step()
        assert abs(p.data[0]) < 1e-3


class TestProximalSGD:
    def test_pulls_towards_reference(self):
        p = make_param([0.0])
        opt = ProximalSGD([p], lr=0.1, mu=1.0)
        opt.set_reference(np.array([10.0]))
        for _ in range(50):
            p.grad = np.array([0.0])  # no task gradient; only proximal pull
            opt.step()
        # Proximal gradient mu*(w - ref) pushes w *away from* ref in gradient
        # descent only if w > ref; starting at 0 below ref=10 it moves toward it.
        assert p.data[0] > 0.0

    def test_mu_zero_equals_sgd(self):
        p1, p2 = make_param([1.0]), make_param([1.0])
        prox = ProximalSGD([p1], lr=0.1, mu=0.0)
        prox.set_reference(np.array([100.0]))
        sgd = SGD([p2], lr=0.1)
        p1.grad = np.array([1.0])
        p2.grad = np.array([1.0])
        prox.step()
        sgd.step()
        np.testing.assert_allclose(p1.data, p2.data)

    def test_limits_drift_from_reference(self):
        """With a large mu the iterate stays closer to the reference point."""
        def run(mu):
            p = make_param([0.0])
            opt = ProximalSGD([p], lr=0.1, mu=mu)
            opt.set_reference(np.array([0.0]))
            for _ in range(20):
                p.grad = np.array([-1.0])  # constant pull away from the reference
                opt.step()
            return abs(p.data[0])

        assert run(mu=10.0) < run(mu=0.0)

    def test_reference_size_mismatch(self):
        opt = ProximalSGD([make_param([1.0])], lr=0.1, mu=0.1)
        with pytest.raises(ValueError, match="1-element parameter block"):
            opt.set_reference(np.array([1.0, 2.0]))

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            ProximalSGD([make_param([1.0])], lr=0.1, mu=-0.1)

    def test_works_through_model_training(self):
        from repro.nn import functional as F

        rng = np.random.default_rng(0)
        model = Linear(4, 2, rng=rng)
        reference = [p.data.copy() for p in model.parameters()]
        opt = ProximalSGD(model.parameters(), lr=0.1, mu=0.5)
        opt.set_reference(np.concatenate([r.reshape(-1) for r in reference]))
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 2, size=8)
        for _ in range(5):
            loss = F.cross_entropy(model(Tensor(x)), y)
            opt.zero_grad()
            loss.backward()
            opt.step()
        # Training changed the weights but they stay in a bounded neighbourhood.
        drift = sum(np.abs(p.data - r).max() for p, r in zip(model.parameters(), reference))
        assert 0 < drift < 10.0


class TestFusedMatchesReference:
    """The fused flat-vector step must be bitwise-equal to the seed oracle's
    per-parameter loop for every supported hyperparameter combination."""

    SHAPES = [(4, 3), (3,), (2, 2, 2), (5,)]

    def _step_pair(self, fused_opt, ref_opt, params_f, params_r, steps=5):
        rng = np.random.default_rng(7)
        for step in range(steps):
            for p_f, p_r in zip(params_f, params_r):
                grad = rng.normal(size=p_f.data.shape)
                p_f.grad = grad.copy()
                p_r.grad = grad.copy()
            fused_opt.step()
            seed_engine.sgd_step(ref_opt)
        for p_f, p_r in zip(params_f, params_r):
            assert p_f.data.tobytes() == p_r.data.tobytes()

    @pytest.mark.parametrize("momentum", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4, 0.1])
    def test_sgd_grid(self, momentum, weight_decay):
        rng = np.random.default_rng(0)
        values = [rng.normal(size=shape) for shape in self.SHAPES]
        params_f = [make_param(v.copy()) for v in values]
        params_r = [make_param(v.copy()) for v in values]
        fused = SGD(params_f, lr=0.05, momentum=momentum, weight_decay=weight_decay)
        ref = SGD(params_r, lr=0.05, momentum=momentum, weight_decay=weight_decay)
        self._step_pair(fused, ref, params_f, params_r)

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    @pytest.mark.parametrize("mu", [0.0, 0.1, 1.0])
    def test_proximal_grid(self, momentum, weight_decay, mu):
        rng = np.random.default_rng(1)
        values = [rng.normal(size=shape) for shape in self.SHAPES]
        refs = [rng.normal(size=shape) for shape in self.SHAPES]
        params_f = [make_param(v.copy()) for v in values]
        params_r = [make_param(v.copy()) for v in values]
        fused = ProximalSGD(params_f, lr=0.05, mu=mu, momentum=momentum,
                            weight_decay=weight_decay)
        ref = ProximalSGD(params_r, lr=0.05, mu=mu, momentum=momentum,
                          weight_decay=weight_decay)
        fused.set_reference(np.concatenate([r.reshape(-1) for r in refs]))
        ref.set_reference(np.concatenate([r.reshape(-1) for r in refs]))
        self._step_pair(fused, ref, params_f, params_r)

    def test_partial_grad_coverage_matches(self):
        """Params without grads are skipped identically in both paths,
        including their momentum state, even when coverage changes per step."""
        rng = np.random.default_rng(2)
        values = [rng.normal(size=(3,)) for _ in range(3)]
        params_f = [make_param(v.copy()) for v in values]
        params_r = [make_param(v.copy()) for v in values]
        fused = SGD(params_f, lr=0.1, momentum=0.9)
        ref = SGD(params_r, lr=0.1, momentum=0.9)
        coverage = [(0, 2), (0, 1, 2), (1,), (0, 1, 2)]
        for step, present in enumerate(coverage):
            for index in range(3):
                grad = rng.normal(size=3)
                params_f[index].grad = grad.copy() if index in present else None
                params_r[index].grad = grad.copy() if index in present else None
            fused.step()
            seed_engine.sgd_step(ref)
            for p_f, p_r in zip(params_f, params_r):
                assert p_f.data.tobytes() == p_r.data.tobytes(), f"step {step}"

    def test_no_grads_is_a_noop(self):
        param = make_param([1.0, 2.0])
        before = param.data.copy()
        SGD([param], lr=0.1).step()
        np.testing.assert_array_equal(param.data, before)

    def test_fused_through_model_training_matches(self):
        from repro.nn import functional as F
        from repro.nn.models import SimpleMLP

        rng = np.random.default_rng(3)
        x = rng.normal(size=(8, 6))
        y = rng.integers(0, 3, size=8)
        states = {}
        for mode in seed_engine.ENGINES:
            with seed_engine.engine(mode):
                model = SimpleMLP(6, 3, hidden=4, seed=0)
                opt = SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=1e-4)
                for _ in range(4):
                    loss = F.cross_entropy(model(Tensor(x)), y)
                    opt.zero_grad()
                    loss.backward()
                    opt.step()
                states[mode] = model.state_dict()
        for key in states["flat"]:
            assert states["flat"][key].tobytes() == states["reference"][key].tobytes()


class TestVelocityKeyedByIndex:
    """Regression for the id(param)-keyed velocity dict: a recycled object
    address must never inherit another parameter's momentum state."""

    def test_reference_velocity_uses_indices(self):
        params = [make_param([1.0]), make_param([2.0])]
        opt = SGD(params, lr=0.1, momentum=0.9)
        for param in params:
            param.grad = np.ones(1)
        seed_engine.sgd_step(opt)
        assert set(opt._seed_velocity) <= {0, 1}
        # The fused step keeps one velocity vector laid out like the arena.
        opt.step()
        assert opt._velocity_flat.shape == (opt._flat.size,)

    def test_velocity_survives_id_reuse(self):
        """Replacing a parameter list entry cannot alias old velocity state:
        a fresh optimizer over a fresh (possibly same-id) parameter starts
        from zero momentum."""
        def run_with_gc_churn():
            param = make_param([0.0])
            opt = SGD([param], lr=0.1, momentum=0.9)
            param.grad = np.ones(1)
            opt.step()
            return param.data.copy()

        first = run_with_gc_churn()
        # Allocate garbage so a naive id()-keyed store would likely see the
        # same address again, then repeat: the result must be identical.
        import gc
        gc.collect()
        second = run_with_gc_churn()
        np.testing.assert_array_equal(first, second)


class TestProximalGradNotMutated:
    def test_step_leaves_param_grad_untouched(self):
        """The proximal term must not leak into the stored gradient
        (batch hooks read .grad after the step)."""
        for step in (ProximalSGD.step, seed_engine.sgd_step):
            param = make_param([2.0, -1.0])
            opt = ProximalSGD([param], lr=0.1, mu=0.5)
            opt.set_reference(np.zeros(2))
            grad = np.array([0.25, 0.75])
            param.grad = grad
            step(opt)
            assert param.grad is grad, "stored gradient was rebound"
            np.testing.assert_array_equal(param.grad, [0.25, 0.75])


class TestOptimizerValidation:
    def test_reference_shape_mismatch_rejected(self):
        opt = ProximalSGD([make_param([1.0, 2.0])], lr=0.1, mu=0.1)
        with pytest.raises(ValueError):
            opt.set_reference(np.zeros((2, 2)))

    def test_fused_optimizer_adopts_module_arena(self):
        from repro.nn.flat import FlatParams
        from repro.nn.models import SimpleMLP

        model = SimpleMLP(4, 2, hidden=3, seed=0)
        arena = FlatParams.from_module(model)
        opt = SGD(model.parameters(), lr=0.1)
        assert opt._flat is arena
