"""Federated-learning framework: clients, server loop, strategies and metrics."""

from .callbacks import (
    CALLBACK_REGISTRY,
    Callback,
    CallbackList,
    EarlyStopping,
    FaultTelemetry,
    PeriodicEvaluation,
    RoundLogger,
    SwitchTelemetry,
    create_callback,
)
from .config import FLConfig
from .errors import (
    ClientFailure,
    ExecutorError,
    RoundFailedError,
    RoundTimeout,
    WorkerDied,
)
from .execution import (
    EXECUTOR_REGISTRY,
    ClientExecutor,
    SerialExecutor,
    ThreadExecutor,
    client_rng,
    create_executor,
    derive_client_seed,
)
from .faults import (
    FaultPlan,
    FaultPolicy,
    RoundFaultReport,
    run_tolerant_round,
    sanitize_result,
)
from .metrics import (
    accuracy,
    accuracy_variance,
    average_precision,
    heart_rate_deviation,
    mean_average_precision,
    mean_value,
    model_quality_degradation,
    summarize_per_device,
    worst_case,
)
from .sampling import (
    SAMPLER_REGISTRY,
    ClientSampler,
    RoundRobinSampler,
    UniformSampler,
    create_sampler,
)
from .simulation import FederatedSimulation, FLHistory, RoundRecord
from .strategies import (
    STRATEGY_REGISTRY,
    FedAvg,
    FedProx,
    FLContext,
    QFedAvg,
    Scaffold,
    Strategy,
    create_strategy,
)
from .training import ClientResult, compute_loss, evaluate_loss, evaluate_metric, local_train

_CORE_STRATEGY_NAMES = ("HeteroSwitch", "ISPTransformOnly", "ISPTransformWithSWAD")


def __getattr__(name: str):
    """Lazily expose the HeteroSwitch strategies (defined in :mod:`repro.core`).

    The laziness breaks the ``repro.fl`` <-> ``repro.core`` import cycle: the
    strategy classes subclass :class:`repro.fl.strategies.base.Strategy`, so
    they cannot be imported eagerly while this package initializes.
    """
    if name in _CORE_STRATEGY_NAMES:
        from ..core import heteroswitch as _hs

        return getattr(_hs, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "FLConfig",
    "FederatedSimulation",
    "FLHistory",
    "RoundRecord",
    "ClientExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "EXECUTOR_REGISTRY",
    "create_executor",
    "derive_client_seed",
    "client_rng",
    "ExecutorError",
    "ClientFailure",
    "WorkerDied",
    "RoundTimeout",
    "RoundFailedError",
    "FaultPlan",
    "FaultPolicy",
    "RoundFaultReport",
    "run_tolerant_round",
    "sanitize_result",
    "Callback",
    "CallbackList",
    "SwitchTelemetry",
    "FaultTelemetry",
    "PeriodicEvaluation",
    "EarlyStopping",
    "RoundLogger",
    "CALLBACK_REGISTRY",
    "create_callback",
    "ClientSampler",
    "UniformSampler",
    "RoundRobinSampler",
    "SAMPLER_REGISTRY",
    "create_sampler",
    "Strategy",
    "FLContext",
    "FedAvg",
    "FedProx",
    "QFedAvg",
    "Scaffold",
    "HeteroSwitch",
    "ISPTransformOnly",
    "ISPTransformWithSWAD",
    "STRATEGY_REGISTRY",
    "create_strategy",
    "ClientResult",
    "local_train",
    "compute_loss",
    "evaluate_loss",
    "evaluate_metric",
    "accuracy",
    "accuracy_variance",
    "average_precision",
    "mean_average_precision",
    "model_quality_degradation",
    "heart_rate_deviation",
    "worst_case",
    "mean_value",
    "summarize_per_device",
]
