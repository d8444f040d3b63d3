"""Evaluation experiments: Section 6 of the paper.

* :func:`table4_main_evaluation`     — Table 4: DG / fairness for every method.
* :func:`table5_model_architectures` — Table 5: FedAvg vs HeteroSwitch across models.
* :func:`table6_flair`               — Table 6: FLAIR-like multi-label evaluation.
* :func:`fig8_synthetic_cifar`       — Fig. 8: synthetic-CIFAR per-device accuracy.
* :func:`ecg_heart_rate`             — Section 6.6: ECG heart-rate deviation.

Every federated run is a declarative :class:`~repro.runtime.RunSpec` (one per
table row) executed by one :class:`~repro.runtime.Runner` per experiment call,
which builds each dataset once.  The dataset registry entries
(``device_capture``, ``flair``, ``synthetic_cifar``, ``ecg``) own the
per-dataset parameter derivations, default models and strategy defaults.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..devices.profiles import DEVICE_NAMES
from ..fl.metrics import accuracy_variance, mean_value, worst_case
from .results import ExperimentResult
from .scale import ExperimentScale, get_scale

__all__ = [
    "TABLE4_METHODS",
    "table4_main_evaluation",
    "table5_model_architectures",
    "table6_flair",
    "fig8_synthetic_cifar",
    "ecg_heart_rate",
]

# The rows of Table 4, in the paper's order.
TABLE4_METHODS = (
    "fedavg",
    "isp_transform",
    "isp_swad",
    "heteroswitch",
    "qfedavg",
    "fedprox",
    "scaffold",
)


def _run_methods(name: str, methods: Sequence[str], scale: "str | ExperimentScale", seed: int,
                 runner=None, **spec_fields) -> Tuple[Dict[str, Dict[str, float]], Dict[str, Any]]:
    """Run every method as one :class:`~repro.runtime.RunSpec` on one dataset.

    ``spec_fields`` are the spec fields the methods share (dataset, model...).
    Returns each method's per-device metrics and the dataset's metadata.  The
    :class:`~repro.runtime.Runner` (a fresh one unless ``runner`` is given)
    builds the dataset once and memoises it.
    """
    from ..runtime import Runner, RunSpec, spec_scale  # late: runtime imports repro.eval

    runner = runner or Runner()
    spec = RunSpec(scale=spec_scale(scale), seeds=[seed], **spec_fields)
    per_method = {}
    for method in methods:
        run = spec.with_overrides(name=f"{name}/{method}", strategy=method)
        per_method[method] = runner.run(run).history.per_device_metric
    return per_method, runner.build_bundle(spec, seed).metadata


# --------------------------------------------------------------------------- #
# Table 4 — main evaluation
# --------------------------------------------------------------------------- #
def table4_main_evaluation(
    scale: "str | ExperimentScale" = "smoke",
    methods: Sequence[str] = TABLE4_METHODS,
    devices: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> ExperimentResult:
    """Table 4: worst-case accuracy (DG), variance and average accuracy (fairness).

    Clients follow the Table 1 market shares; the global model is evaluated on
    each device type's held-out set.  Each method is one declarative
    :class:`~repro.runtime.RunSpec` executed by a shared
    :class:`~repro.runtime.Runner` (the dataset is built once and memoised).
    """
    device_names = list(devices) if devices else DEVICE_NAMES
    per_method, _ = _run_methods("table4", methods, scale, seed,
                                 dataset_kwargs={"devices": device_names})

    rows: List[List[object]] = []
    scalars: Dict[str, float] = {}
    for method, metrics in per_method.items():
        worst = worst_case(metrics)
        variance = accuracy_variance(metrics)
        average = mean_value(metrics)
        rows.append([method, worst, variance, average])
        scalars[f"{method}_worst_case"] = worst
        scalars[f"{method}_variance"] = variance
        scalars[f"{method}_average"] = average

    return ExperimentResult(
        experiment_id="table4",
        description="Main evaluation: DG worst-case accuracy and fairness variance/average",
        headers=["method", "worst_case_accuracy", "variance", "average_accuracy"],
        rows=rows,
        scalars=scalars,
        metadata={"scale": get_scale(scale).name, "devices": device_names,
                  "per_method": per_method},
    )


# --------------------------------------------------------------------------- #
# Table 5 — model architectures
# --------------------------------------------------------------------------- #
def table5_model_architectures(
    scale: "str | ExperimentScale" = "smoke",
    model_names: Sequence[str] = ("mobilenetv3_small", "shufflenet_v2_x0_5", "squeezenet1_1"),
    methods: Sequence[str] = ("fedavg", "heteroswitch"),
    devices: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> ExperimentResult:
    """Table 5: FedAvg vs HeteroSwitch across mobile-friendly model architectures.

    Each (model, method) cell is one :class:`~repro.runtime.RunSpec`; the
    shared :class:`~repro.runtime.Runner` builds the dataset once for the
    whole grid.
    """
    from ..runtime import Runner  # late: runtime imports repro.eval

    device_names = list(devices) if devices else DEVICE_NAMES
    runner = Runner()

    rows: List[List[object]] = []
    scalars: Dict[str, float] = {}
    for model_name in model_names:
        per_method, _ = _run_methods(f"table5/{model_name}", methods, scale, seed, runner,
                                     model=model_name, dataset_kwargs={"devices": device_names})
        for method, metrics in per_method.items():
            worst = worst_case(metrics)
            variance = accuracy_variance(metrics)
            average = mean_value(metrics)
            rows.append([model_name, method, worst, variance, average])
            scalars[f"{model_name}_{method}_worst_case"] = worst
            scalars[f"{model_name}_{method}_variance"] = variance
            scalars[f"{model_name}_{method}_average"] = average

    return ExperimentResult(
        experiment_id="table5",
        description="FedAvg vs HeteroSwitch across model architectures",
        headers=["model", "method", "worst_case_accuracy", "variance", "average_accuracy"],
        rows=rows,
        scalars=scalars,
        metadata={"scale": get_scale(scale).name, "models": list(model_names)},
    )


# --------------------------------------------------------------------------- #
# Table 6 — FLAIR-like multi-label evaluation
# --------------------------------------------------------------------------- #
def table6_flair(
    scale: "str | ExperimentScale" = "smoke",
    methods: Sequence[str] = ("fedavg", "heteroswitch", "qfedavg", "fedprox"),
    num_device_types: Optional[int] = None,
    seed: int = 0,
) -> ExperimentResult:
    """Table 6: averaged precision and its variance on the FLAIR-like dataset."""
    dataset_kwargs = {} if num_device_types is None else {"num_device_types": num_device_types}
    per_method, metadata = _run_methods("table6", methods, scale, seed, dataset="flair",
                                        dataset_kwargs=dataset_kwargs)

    rows: List[List[object]] = []
    scalars: Dict[str, float] = {}
    for method, metrics in per_method.items():
        average_precision_value = mean_value(metrics)
        variance = accuracy_variance(metrics)
        rows.append([method, average_precision_value, variance])
        scalars[f"{method}_averaged_precision"] = average_precision_value
        scalars[f"{method}_variance"] = variance

    return ExperimentResult(
        experiment_id="table6",
        description="FLAIR-like multi-label evaluation: averaged precision across device types",
        headers=["method", "averaged_precision", "variance"],
        rows=rows,
        scalars=scalars,
        metadata={"scale": get_scale(scale).name,
                  "num_device_types": metadata["num_device_types"]},
    )


# --------------------------------------------------------------------------- #
# Fig. 8 — synthetic CIFAR
# --------------------------------------------------------------------------- #
def fig8_synthetic_cifar(
    scale: "str | ExperimentScale" = "smoke",
    methods: Sequence[str] = ("fedavg", "heteroswitch"),
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 8: per-synthetic-device accuracy with FedAvg vs HeteroSwitch."""
    per_method, metadata = _run_methods("fig8", methods, scale, seed, dataset="synthetic_cifar")

    rows: List[List[object]] = []
    scalars: Dict[str, float] = {}
    for method, metrics in per_method.items():
        for device in sorted(metrics):
            rows.append([method, device, metrics[device]])
        scalars[f"{method}_average"] = mean_value(metrics)
        scalars[f"{method}_variance"] = accuracy_variance(metrics)

    return ExperimentResult(
        experiment_id="fig8",
        description="Synthetic-CIFAR per-device accuracy: FedAvg vs HeteroSwitch",
        headers=["method", "synthetic_device", "accuracy"],
        rows=rows,
        scalars=scalars,
        metadata={"scale": get_scale(scale).name,
                  "num_device_types": metadata["num_device_types"],
                  "per_method": per_method},
    )


# --------------------------------------------------------------------------- #
# Section 6.6 — ECG heart-rate deviation
# --------------------------------------------------------------------------- #
def ecg_heart_rate(
    scale: "str | ExperimentScale" = "smoke",
    methods: Sequence[str] = ("fedavg", "heteroswitch"),
    window_size: int = 64,
    seed: int = 0,
) -> ExperimentResult:
    """Section 6.6: heart-rate prediction deviation across ECG sensor types.

    HeteroSwitch uses its random-Gaussian-filter transform for this 1-D task
    (the ``ecg`` dataset's strategy default).  The reported number mirrors the
    paper's: the mean relative deviation of predictions across sensor types
    (lower is better).
    """
    per_method, metadata = _run_methods("ecg", methods, scale, seed, dataset="ecg",
                                        dataset_kwargs={"window_size": window_size})

    rows: List[List[object]] = []
    scalars: Dict[str, float] = {}
    for method, metrics in per_method.items():
        # Convert the simulation's "1 - deviation" metric back to deviation.
        deviations = {sensor: 1.0 - value for sensor, value in metrics.items()}
        for sensor in sorted(deviations):
            rows.append([method, sensor, deviations[sensor]])
        scalars[f"{method}_mean_deviation"] = float(np.mean(list(deviations.values())))
        scalars[f"{method}_worst_deviation"] = float(np.max(list(deviations.values())))

    return ExperimentResult(
        experiment_id="ecg",
        description="ECG heart-rate deviation across sensor types",
        headers=["method", "sensor", "deviation"],
        rows=rows,
        scalars=scalars,
        metadata={"scale": get_scale(scale).name, "window_size": window_size,
                  "sensors": metadata["sensors"]},
    )
