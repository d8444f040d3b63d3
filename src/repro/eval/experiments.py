"""One-stop index of experiment runners, keyed by paper artifact.

Every table and figure of the paper's evaluation maps to one function here,
whose docstring's first line is its ``repro list`` description.  Each runner
accepts a ``scale`` preset ("smoke" / "default" / "paper" or a custom
:class:`ExperimentScale`) and returns an
:class:`repro.eval.results.ExperimentResult`.
"""

from __future__ import annotations

from typing import Callable, Dict

from .async_eval import async_vs_sync
from .characterization import (
    fig1_homo_vs_hetero,
    fig2_raw_degradation,
    fig3_isp_stage_ablation,
    fig4_fairness,
    fig5_domain_generalization,
    table2_cross_device,
)
from .evaluation import (
    ecg_heart_rate,
    fig8_synthetic_cifar,
    table4_main_evaluation,
    table5_model_architectures,
    table6_flair,
)
from .generalization import fig7_swad_robustness
from .results import ExperimentResult
from .sensitivity import fig9_hyperparameter_sensitivity

__all__ = [
    "EXPERIMENTS",
    "run_experiment",
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
    "async_vs_sync",
]

EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "fig1": fig1_homo_vs_hetero,
    "table2": table2_cross_device,
    "fig2": fig2_raw_degradation,
    "fig3": fig3_isp_stage_ablation,
    "fig4": fig4_fairness,
    "fig5": fig5_domain_generalization,
    "fig7": fig7_swad_robustness,
    "table4": table4_main_evaluation,
    "table5": table5_model_architectures,
    "table6": table6_flair,
    "fig8": fig8_synthetic_cifar,
    "ecg": ecg_heart_rate,
    "fig9": fig9_hyperparameter_sensitivity,
    "async": async_vs_sync,
}


def run_experiment(experiment_id: str, scale: str = "smoke", **kwargs) -> ExperimentResult:
    """Run one experiment by its paper artifact id (e.g. ``"table4"``)."""
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError as exc:
        raise KeyError(
            f"unknown experiment '{experiment_id}'; available: {sorted(EXPERIMENTS)}"
        ) from exc
    return runner(scale=scale, **kwargs)
