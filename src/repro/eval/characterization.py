"""Characterization experiments: Sections 3 and 4 of the paper.

* :func:`fig1_homo_vs_hetero`      — Fig. 1: homogeneous vs heterogeneous FL clients.
* :func:`table2_cross_device`      — Table 2: cross-device model-quality degradation.
* :func:`fig2_raw_degradation`     — Fig. 2: the same matrix trained on RAW data.
* :func:`fig3_isp_stage_ablation`  — Fig. 3: per-ISP-stage degradation.
* :func:`fig4_fairness`            — Fig. 4: degradation vs the dominant devices.
* :func:`fig5_domain_generalization` — Fig. 5: leave-one-device-out DG.

Every run is a :class:`~repro.runtime.RunSpec` on the ``device_capture``
dataset that :class:`~repro.runtime.Runner` executes: federated FedAvg runs
for Figs. 1, 4 and 5, and centralized runs for Table 2 and Figs. 2-3, which
train on one device (``partition_kwargs.exclude`` names the others) or on the
pooled baseline-ISP images (``dataset_kwargs.isp_override``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..devices.profiles import DEVICE_NAMES, DOMINANT_DEVICES
from ..fl.metrics import mean_value, model_quality_degradation
from ..isp.pipeline import BASELINE_CONFIG, stage_variants
from .centralized import evaluate_on_devices
from .results import ExperimentResult
from .scale import ExperimentScale, get_scale

__all__ = [
    "fig1_homo_vs_hetero",
    "table2_cross_device",
    "fig2_raw_degradation",
    "fig3_isp_stage_ablation",
    "fig4_fairness",
    "fig5_domain_generalization",
]


def _centralized_spec(name: str, scale: ExperimentScale, seed: int, **spec_fields):
    """A centralized run on the device-capture dataset (the Section 3.2 protocol)."""
    from ..runtime import RunSpec, spec_scale  # late: runtime imports repro.eval

    return RunSpec(name=name, kind="centralized", dataset="device_capture",
                   scale=spec_scale(scale), seeds=[seed], **spec_fields)


def _fedavg_metrics(name: str, scale: "str | ExperimentScale", seed: int, runner=None,
                    **spec_fields) -> Dict[str, float]:
    """Per-device metrics of one FedAvg run on the device-capture dataset.

    Pass ``runner`` to share its memoised datasets across runs.
    """
    from ..runtime import Runner, RunSpec, spec_scale  # late: runtime imports repro.eval

    spec = RunSpec(name=name, strategy="fedavg", dataset="device_capture",
                   scale=spec_scale(scale), seeds=[seed], **spec_fields)
    return (runner or Runner()).run(spec).history.per_device_metric


# --------------------------------------------------------------------------- #
# Fig. 1 — homogeneous vs heterogeneous clients
# --------------------------------------------------------------------------- #
def fig1_homo_vs_hetero(scale: "str | ExperimentScale" = "smoke",
                        devices: Optional[Sequence[str]] = None,
                        seed: int = 0) -> ExperimentResult:
    """Fig. 1: FL accuracy with homogeneous vs heterogeneous client devices.

    Homogeneous: all clients use the same (dominant) device type; the model is
    tested on that device.  Heterogeneous: clients are drawn across all device
    types by market share; the model is tested on every device and the average
    accuracy is reported.  The paper observes a 23.5% average drop.
    """
    scale = get_scale(scale)
    device_names = list(devices) if devices else DEVICE_NAMES

    # Homogeneous: every client holds data from the same device (the most common
    # one).  The homogeneous arm captures a larger pool from that single device so
    # that both arms see the same *total* amount of training data — otherwise the
    # comparison would conflate device heterogeneity with dataset size.
    homo_device = DOMINANT_DEVICES[0] if DOMINANT_DEVICES[0] in device_names else device_names[0]
    homo_scale = scale.with_overrides(
        samples_per_class_train=scale.samples_per_class_train * len(device_names)
    )
    homo_acc = mean_value(_fedavg_metrics("fig1/homogeneous", homo_scale, seed,
                                          dataset_kwargs={"devices": [homo_device]}))

    # Heterogeneous: market-share mixture of all devices, tested on all devices.
    hetero_acc = mean_value(_fedavg_metrics("fig1/heterogeneous", scale, seed,
                                            dataset_kwargs={"devices": device_names}))

    degradation = model_quality_degradation(homo_acc, hetero_acc)
    rows = [
        ["homogeneous", homo_device, homo_acc],
        ["heterogeneous", "market-share mix", hetero_acc],
    ]
    return ExperimentResult(
        experiment_id="fig1",
        description="FL accuracy with homogeneous vs heterogeneous client devices",
        headers=["setting", "devices", "accuracy"],
        rows=rows,
        scalars={
            "homogeneous_accuracy": homo_acc,
            "heterogeneous_accuracy": hetero_acc,
            "degradation": degradation,
        },
        metadata={"scale": scale.name, "devices": device_names},
    )


# --------------------------------------------------------------------------- #
# Table 2 / Fig. 2 — cross-device degradation matrix
# --------------------------------------------------------------------------- #
def _cross_device_matrix(scale: ExperimentScale, raw: bool,
                         devices: Optional[Sequence[str]], seed: int) -> ExperimentResult:
    from ..runtime import Runner  # late: runtime imports repro.eval

    device_names = list(devices) if devices else DEVICE_NAMES
    experiment_id = "fig2" if raw else "table2"
    runner = Runner()  # every train device's run shares one memoised capture

    accuracy_matrix: Dict[str, Dict[str, float]] = {}
    for train_device in device_names:
        spec = _centralized_spec(
            f"{experiment_id}/{train_device}", scale, seed,
            dataset_kwargs={"devices": device_names, "raw": raw},
            partition_kwargs={"exclude": [d for d in device_names if d != train_device]})
        accuracy_matrix[train_device] = runner.run(spec).metrics[0]

    headers = ["train \\ test"] + device_names + ["mean_others"]
    rows: List[List[object]] = []
    degradations: List[float] = []
    per_target_degradation: Dict[str, List[float]] = {name: [] for name in device_names}
    for train_device in device_names:
        own_accuracy = accuracy_matrix[train_device][train_device]
        row: List[object] = [train_device]
        others: List[float] = []
        for test_device in device_names:
            degradation = model_quality_degradation(
                own_accuracy, accuracy_matrix[train_device][test_device]
            )
            row.append(degradation if test_device != train_device else 0.0)
            if test_device != train_device:
                others.append(degradation)
                degradations.append(degradation)
                per_target_degradation[test_device].append(degradation)
        row.append(float(np.mean(others)) if others else 0.0)
        rows.append(row)
    mean_others_row: List[object] = ["mean_others"]
    for test_device in device_names:
        values = per_target_degradation[test_device]
        mean_others_row.append(float(np.mean(values)) if values else 0.0)
    mean_others_row.append(float(np.mean(degradations)) if degradations else 0.0)
    rows.append(mean_others_row)

    description = (
        "Cross-device model-quality degradation (RAW data)" if raw
        else "Cross-device model-quality degradation (ISP-processed images)"
    )
    return ExperimentResult(
        experiment_id=experiment_id,
        description=description,
        headers=headers,
        rows=rows,
        scalars={
            "mean_degradation": float(np.mean(degradations)) if degradations else 0.0,
            "max_degradation": float(np.max(degradations)) if degradations else 0.0,
        },
        metadata={"scale": scale.name, "raw": raw, "devices": device_names,
                  "accuracy_matrix": accuracy_matrix},
    )


def table2_cross_device(scale: "str | ExperimentScale" = "smoke",
                        devices: Optional[Sequence[str]] = None,
                        seed: int = 0) -> ExperimentResult:
    """Table 2: train on each device's processed images, test on all devices."""
    return _cross_device_matrix(get_scale(scale), raw=False, devices=devices, seed=seed)


def fig2_raw_degradation(scale: "str | ExperimentScale" = "smoke",
                         devices: Optional[Sequence[str]] = None,
                         seed: int = 0) -> ExperimentResult:
    """Fig. 2: the cross-device degradation matrix computed on RAW captures."""
    return _cross_device_matrix(get_scale(scale), raw=True, devices=devices, seed=seed)


# --------------------------------------------------------------------------- #
# Fig. 3 — ISP stage ablation
# --------------------------------------------------------------------------- #
def fig3_isp_stage_ablation(scale: "str | ExperimentScale" = "smoke",
                            devices: Optional[Sequence[str]] = None,
                            seed: int = 0) -> ExperimentResult:
    """Fig. 3: model-quality degradation when one ISP stage is omitted/replaced.

    The model is trained on images processed by the Baseline ISP (Table 3) and
    tested on images whose ISP replaces a single stage with Option 1 (omitted)
    or Option 2 (alternative algorithm).
    """
    from ..runtime import Runner, build_dataset  # late: runtime imports repro.eval

    scale = get_scale(scale)
    device_names = list(devices) if devices else DEVICE_NAMES[:3]

    spec = _centralized_spec("fig3/baseline", scale, seed, dataset_kwargs={
        "devices": device_names, "isp_override": dataclasses.asdict(BASELINE_CONFIG)})
    # One model trained on the pooled baseline-ISP images of the selected devices.
    result = Runner().run(spec)
    model = result.models[0]
    baseline_accuracy = mean_value(result.metrics[0])

    rows: List[List[object]] = []
    degradations: Dict[str, float] = {}
    for variant in stage_variants(BASELINE_CONFIG):
        variant_spec = spec.with_overrides(dataset_kwargs={
            "devices": device_names, "isp_override": dataclasses.asdict(variant)})
        # Each variant's bundle is used once: build it, keep only its test sets.
        test_sets = build_dataset(variant_spec.dataset, scale=variant_spec.resolve_scale(),
                                  seed=seed, **variant_spec.dataset_kwargs).test
        accuracy = mean_value(evaluate_on_devices(model, test_sets))
        degradation = model_quality_degradation(baseline_accuracy, accuracy)
        rows.append([variant.name, accuracy, degradation])
        degradations[variant.name] = degradation

    color_tone = [value for name, value in degradations.items()
                  if name.startswith(("white_balance", "tone"))]
    other = [value for name, value in degradations.items()
             if not name.startswith(("white_balance", "tone"))]
    return ExperimentResult(
        experiment_id="fig3",
        description="Model-quality degradation per ISP-stage substitution",
        headers=["isp_variant", "accuracy", "degradation"],
        rows=rows,
        scalars={
            "baseline_accuracy": baseline_accuracy,
            "mean_degradation": float(np.mean(list(degradations.values()))),
            "mean_color_tone_degradation": float(np.mean(color_tone)) if color_tone else 0.0,
            "mean_other_degradation": float(np.mean(other)) if other else 0.0,
        },
        metadata={"scale": scale.name, "devices": device_names},
    )


# --------------------------------------------------------------------------- #
# Fig. 4 — fairness toward dominant devices
# --------------------------------------------------------------------------- #
def fig4_fairness(scale: "str | ExperimentScale" = "smoke",
                  devices: Optional[Sequence[str]] = None,
                  seed: int = 0) -> ExperimentResult:
    """Fig. 4: per-device degradation relative to the dominant devices (S9, S6).

    Clients are allocated by market share; the global model's accuracy on each
    device is compared with the best accuracy among the dominant devices.
    """
    scale = get_scale(scale)
    device_names = list(devices) if devices else DEVICE_NAMES
    per_device = _fedavg_metrics("fig4", scale, seed, dataset_kwargs={"devices": device_names})

    dominant = [d for d in DOMINANT_DEVICES if d in per_device]
    if not dominant:
        dominant = [max(per_device, key=per_device.get)]
    dominant_accuracy = max(per_device[d] for d in dominant)

    rows: List[List[object]] = []
    degradations: Dict[str, float] = {}
    for device in device_names:
        degradation = model_quality_degradation(dominant_accuracy, per_device[device])
        rows.append([device, per_device[device], degradation])
        if device not in dominant:
            degradations[device] = degradation

    return ExperimentResult(
        experiment_id="fig4",
        description="Per-device degradation vs the dominant devices under market-share FL",
        headers=["device", "accuracy", "degradation_vs_dominant"],
        rows=rows,
        scalars={
            "dominant_accuracy": dominant_accuracy,
            "mean_nondominant_degradation": float(np.mean(list(degradations.values())))
            if degradations else 0.0,
            "max_nondominant_degradation": float(np.max(list(degradations.values())))
            if degradations else 0.0,
        },
        metadata={"scale": scale.name, "dominant": dominant, "per_device": per_device},
    )


# --------------------------------------------------------------------------- #
# Fig. 5 — leave-one-device-out domain generalization
# --------------------------------------------------------------------------- #
def fig5_domain_generalization(scale: "str | ExperimentScale" = "smoke",
                               devices: Optional[Sequence[str]] = None,
                               seed: int = 0) -> ExperimentResult:
    """Fig. 5: accuracy change on a device when it is excluded from FL training.

    For each device: run FL with uniform participation of all *other* devices
    and measure accuracy on the excluded device; compare with the accuracy on
    that device when every device participates equally.  Every run scores
    every device, each independently of the others.
    """
    from ..runtime import Runner  # late: runtime imports repro.eval

    scale = get_scale(scale)
    device_names = list(devices) if devices else DEVICE_NAMES
    runner = Runner()
    uniform = {"devices": device_names, "shares": "uniform"}
    reference = _fedavg_metrics("fig5/all", scale, seed, runner, dataset_kwargs=uniform)

    rows: List[List[object]] = []
    degradations: Dict[str, float] = {}
    for excluded in device_names:
        unseen_accuracy = _fedavg_metrics(
            f"fig5/without-{excluded}", scale, seed, runner, dataset_kwargs=uniform,
            partition_kwargs={"exclude": [excluded]})[excluded]
        degradation = model_quality_degradation(reference[excluded], unseen_accuracy)
        rows.append([excluded, reference[excluded], unseen_accuracy, degradation])
        degradations[excluded] = degradation

    values = list(degradations.values())
    return ExperimentResult(
        experiment_id="fig5",
        description="Leave-one-device-out domain generalization",
        headers=["excluded_device", "accuracy_all_devices", "accuracy_when_excluded", "degradation"],
        rows=rows,
        scalars={
            "mean_degradation": float(np.mean(values)),
            "max_degradation": float(np.max(values)),
            "min_degradation": float(np.min(values)),
        },
        metadata={"scale": scale.name, "devices": device_names, "per_device": degradations},
    )
