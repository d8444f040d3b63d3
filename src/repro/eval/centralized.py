"""Evaluation helpers for centralized (non-federated) runs.

Sections 3.2-3.4 of the paper train a model on one device type's data and test
it on every other device type; Fig. 7 tests SWA/SWAD-trained models under
test-time transformations.  The training itself is a centralized
:class:`~repro.runtime.RunSpec` that :class:`~repro.runtime.Runner` runs with
:func:`~repro.fl.training.local_train`; these helpers score the trained
models.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from ..core.transforms import NCHWTransform
from ..data.dataset import ArrayDataset
from ..fl.training import evaluate_metric
from ..isp.transforms import Transform
from ..nn.layers import Module

__all__ = ["evaluate_on_devices", "evaluate_under_transform"]


def evaluate_on_devices(
    model: Module,
    test_sets: Mapping[str, ArrayDataset],
    task: str = "classification",
) -> Dict[str, float]:
    """Evaluate a trained model on each per-device test set."""
    return {device: evaluate_metric(model, dataset, task) for device, dataset in test_sets.items()}


def evaluate_under_transform(
    model: Module,
    dataset: ArrayDataset,
    transform: Transform,
    seed: int = 0,
    task: str = "classification",
) -> float:
    """Accuracy of ``model`` on a test set perturbed by a channel-last transform.

    Used by the Fig. 7 robustness sweep: the test images are perturbed with the
    named transformation (affine / Gaussian noise / WB / gamma at a given
    degree) and the model's accuracy on the perturbed set is measured.
    """
    rng = np.random.default_rng(seed)
    wrapper = NCHWTransform(transform)
    perturbed = ArrayDataset(wrapper(dataset.features, rng), dataset.labels, metadata=dataset.metadata)
    return evaluate_metric(model, perturbed, task)
