"""Experiment harness: one runner per table/figure of the paper, plus reporting."""

from .centralized import evaluate_on_devices, evaluate_under_transform
from .experiments import (
    EXPERIMENTS,
    ecg_heart_rate,
    fig1_homo_vs_hetero,
    fig2_raw_degradation,
    fig3_isp_stage_ablation,
    fig4_fairness,
    fig5_domain_generalization,
    fig7_swad_robustness,
    fig8_synthetic_cifar,
    fig9_hyperparameter_sensitivity,
    run_experiment,
    table2_cross_device,
    table4_main_evaluation,
    table5_model_architectures,
    table6_flair,
)
from .factories import make_model_factory
from .reporting import result_to_csv, results_to_markdown, write_report
from .results import ExperimentResult, format_table
from .scale import SCALES, ExperimentScale, get_scale

__all__ = [
    "EXPERIMENTS",
    "run_experiment",
    "ExperimentResult",
    "format_table",
    "ExperimentScale",
    "SCALES",
    "get_scale",
    "make_model_factory",
    "evaluate_on_devices",
    "evaluate_under_transform",
    "results_to_markdown",
    "result_to_csv",
    "write_report",
    "fig1_homo_vs_hetero",
    "table2_cross_device",
    "fig2_raw_degradation",
    "fig3_isp_stage_ablation",
    "fig4_fairness",
    "fig5_domain_generalization",
    "fig7_swad_robustness",
    "table4_main_evaluation",
    "table5_model_architectures",
    "table6_flair",
    "fig8_synthetic_cifar",
    "ecg_heart_rate",
    "fig9_hyperparameter_sensitivity",
]
