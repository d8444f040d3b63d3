"""Configuration objects for federated-learning simulations."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from ..nn.engine import validate_dtype
from .faults import FaultPlan, FaultPolicy

__all__ = ["FLConfig", "TASKS"]

TASKS = ("classification", "multilabel", "regression")


@dataclass(frozen=True)
class FLConfig:
    """Hyperparameters of an FL run (Section 6 / Appendix A.2 of the paper).

    Defaults follow the paper's selected values where feasible at simulation
    scale: ``B = 10``, ``E = 1``, learning rate 0.1, ``K = 20`` participants per
    round out of ``N = 100`` clients.  ``num_rounds`` defaults far below the
    paper's 1000 because every experiment runner scales rounds to its compute
    budget explicitly.
    """

    num_clients: int = 100
    clients_per_round: int = 20
    num_rounds: int = 20
    local_epochs: int = 1
    batch_size: int = 10
    learning_rate: float = 0.1
    momentum: float = 0.0
    weight_decay: float = 0.0
    task: str = "classification"
    ema_alpha: float = 0.9  # smoothing factor for L_EMA (Eq. 1, appendix: alpha = 0.9)
    seed: int = 0
    eval_every: int = 0  # 0 = evaluate only at the end
    # Compute precision for the whole pipeline (tensors, parameter arena,
    # optimizer buffers, fused kernels, shm segments, checkpoints).
    # "float64" is the golden path the run fingerprints pin (bitwise equal
    # to the seed kernels on MLP-sized shapes, a few ulp from them at Table 4
    # conv shapes — see tests/oracle/seed_engine.py); "float32" is the opt-in
    # fast path, equivalent to float64 within tolerance (tests/fl/test_dtype_equivalence.py) at
    # roughly half the memory-bandwidth cost.  Aggregation reductions
    # accumulate in float64 either way.  Changes results -> in the spec hash.
    dtype: str = "float64"
    # Observability (repro.obs).  Both flags are purely observational and
    # result-neutral: they never perturb training results, fingerprints, or
    # the spec hash (store._RESULT_NEUTRAL_CONFIG_OVERRIDES).  ``trace``
    # records run-level spans (capture / client updates / aggregate / eval);
    # ``profile`` additionally enables the per-kernel timers in the engine
    # hot paths and implies trace collection.
    profile: bool = False
    trace: bool = False
    # Fault tolerance (repro.fl.faults).  ``faults`` is a seeded chaos
    # schedule — which (round, client, attempt) jobs crash / hang / return
    # poisoned updates / kill their worker is a pure function of its seed,
    # so chaos runs replay bit-for-bit.  ``fault_policy`` is the server's
    # response: per-client timeouts, bounded retries, update sanitization
    # and quorum-based graceful degradation.  Both change results when set
    # (degraded rounds aggregate over survivors) -> in the spec hash; both
    # default to None, which keeps the golden path byte-for-byte unchanged.
    # Dicts (e.g. from JSON config_overrides) are coerced to the frozen
    # dataclasses, so FLConfig itself stays hashable.
    faults: Optional[FaultPlan] = None
    fault_policy: Optional[FaultPolicy] = None

    def __post_init__(self) -> None:
        if self.num_clients <= 0:
            raise ValueError("num_clients must be positive")
        if not 0 < self.clients_per_round <= self.num_clients:
            raise ValueError("clients_per_round must be in (0, num_clients]")
        if self.num_rounds <= 0:
            raise ValueError("num_rounds must be positive")
        if self.local_epochs <= 0:
            raise ValueError("local_epochs must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got '{self.task}'")
        if not 0.0 < self.ema_alpha <= 1.0:
            raise ValueError("ema_alpha must be in (0, 1]")
        validate_dtype(self.dtype)
        if not isinstance(self.profile, bool):
            raise ValueError("profile must be a bool")
        if not isinstance(self.trace, bool):
            raise ValueError("trace must be a bool")
        for name, cls in (("faults", FaultPlan), ("fault_policy", FaultPolicy)):
            value = getattr(self, name)
            if isinstance(value, dict):
                known = [f.name for f in fields(cls)]
                unknown = sorted(set(value) - set(known))
                if unknown:
                    raise ValueError(
                        f"unknown {name} field(s) {unknown}; {cls.__name__} "
                        f"has {known}")
                value = cls(**value)
                object.__setattr__(self, name, value)
            if value is not None and not isinstance(value, cls):
                raise ValueError(
                    f"{name} must be a {cls.__name__}, a dict of its fields, "
                    f"or None; got {value!r}")
