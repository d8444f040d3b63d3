"""Local training and evaluation primitives shared by all FL strategies.

``local_train`` implements the generic ClientUpdate loop (Section 2.1): given
the broadcast global weights and a client's dataset, run ``E`` epochs of
mini-batch SGD and report the updated weights together with the running
training loss.  Strategy-specific behaviour (proximal terms, control variates,
HeteroSwitch's switched transformations and SWAD averaging) hooks into this
loop through small extension points rather than re-implementing it.
Only the strategies that read the initial loss ``L_init`` measure it, with
:func:`measure_init_loss` (HeteroSwitch's switch 1, q-FedAvg's ``F_k``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from ..nn import functional as F
from ..nn.flat import FlatParams
from ..nn.layers import Module
from ..nn.optim import SGD, Optimizer
from ..nn.tensor import Tensor, no_grad
from ..data.dataset import ArrayDataset, DataLoader
from .config import FLConfig
from .metrics import accuracy, heart_rate_deviation, mean_average_precision

__all__ = ["ClientResult", "broadcast_weights", "compute_loss", "evaluate_loss",
           "evaluate_metric", "local_train", "measure_init_loss"]

BatchHook = Callable[[Module, int, int], None]


@dataclass
class ClientResult:
    """What a client returns to the server after a round of local training.

    ``vector`` is the trained weights packed in the run's
    :class:`~repro.nn.serialization.StateLayout` order (what
    :meth:`~repro.nn.flat.FlatParams.pack` returns); the aggregation drops
    it to ``None`` once folded.  ``client_id`` identifies the reporting
    client (stamped by the execution backend); aggregation uses it to check
    that results arrive in selection order no matter which order the
    parallel workers completed in.  ``init_loss`` is ``None`` unless the
    strategy measured ``L_init``.
    """

    vector: Optional[np.ndarray]
    num_samples: int
    train_loss: float
    init_loss: Optional[float] = None
    client_id: int = -1
    metadata: Dict[str, object] = field(default_factory=dict)


def broadcast_weights(model: Module, global_vec: np.ndarray) -> FlatParams:
    """Load the packed global weights into the model's parameter arena.

    The model's parameters live in one contiguous
    :class:`~repro.nn.flat.FlatParams` arena (built and cached on first use),
    so the load is one vector copy plus the buffers, and so is collecting the
    trained weights (:meth:`~repro.nn.flat.FlatParams.pack`); the cached
    arena is returned.  ``global_vec`` is only read.
    """
    arena = FlatParams.from_module(model)
    arena.load(global_vec)
    return arena


def task_loss(outputs: Tensor, labels: np.ndarray, task: str) -> Tensor:
    """Task-appropriate loss of a batch's model outputs."""
    if task == "classification":
        return F.cross_entropy(outputs, labels.astype(int))
    if task == "multilabel":
        return F.binary_cross_entropy_with_logits(outputs, labels)
    if task == "regression":
        return F.mse_loss(outputs, labels)
    raise ValueError(f"unknown task '{task}'")


def compute_loss(model: Module, features: np.ndarray, labels: np.ndarray, task: str) -> Tensor:
    """Forward pass + task-appropriate loss on one batch."""
    return task_loss(model(Tensor(features)), labels, task)


def _eval_forward(model: Module, dataset: ArrayDataset,
                  batch_size: int) -> Iterator[Tuple[Tensor, np.ndarray]]:
    """Yield each batch's ``(outputs, labels)`` in eval mode under ``no_grad``."""
    model.eval()
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=False)
    with no_grad():
        for features, labels in loader:
            yield model(Tensor(features)), labels
    model.train()


def evaluate_loss(model: Module, dataset: ArrayDataset, task: str, batch_size: int = 64) -> float:
    """Average loss of ``model`` over ``dataset`` without building gradients."""
    total, count = 0.0, 0
    for outputs, labels in _eval_forward(model, dataset, batch_size):
        loss = task_loss(outputs, labels, task)
        total += float(loss.data) * len(labels)
        count += len(labels)
    return total / max(count, 1)


def evaluate_metric(model: Module, dataset: ArrayDataset, task: str, batch_size: int = 64) -> float:
    """Task-appropriate quality metric (higher is better).

    * classification — top-1 accuracy,
    * multilabel     — macro averaged precision,
    * regression     — ``1 - mean relative deviation`` so that, like accuracy,
      larger values indicate a better model.
    """
    outputs_list, labels_list = [], []
    for outputs, labels in _eval_forward(model, dataset, batch_size):
        outputs_list.append(outputs.data)
        labels_list.append(labels)
    outputs_all = np.concatenate(outputs_list, axis=0)
    labels_all = np.concatenate(labels_list, axis=0)
    if task == "classification":
        return accuracy(outputs_all, labels_all)
    if task == "multilabel":
        scores = 1.0 / (1.0 + np.exp(-outputs_all))
        return mean_average_precision(scores, labels_all)
    if task == "regression":
        return 1.0 - heart_rate_deviation(outputs_all, labels_all)
    raise ValueError(f"unknown task '{task}'")


def measure_init_loss(model: Module, dataset: ArrayDataset, config: FLConfig,
                      global_vec: np.ndarray) -> float:
    """``L_init``: load ``global_vec`` and evaluate it on the client's data."""
    broadcast_weights(model, global_vec)
    return evaluate_loss(model, dataset, config.task, batch_size=max(config.batch_size, 32))


def local_train(
    model: Module,
    dataset: ArrayDataset,
    config: FLConfig,
    global_vec: np.ndarray,
    optimizer: Optional[Optimizer] = None,
    transform: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
    batch_hook: Optional[BatchHook] = None,
    seed: int = 0,
) -> ClientResult:
    """Run the generic ClientUpdate loop.

    Parameters
    ----------
    model:
        The (shared) model instance; its weights are overwritten with
        ``global_vec`` before training, so the caller can reuse one model
        object across clients.
    dataset:
        The client's local dataset (features already in model layout).
    config:
        FL hyperparameters (epochs ``E``, batch size ``B``, learning rate).
    global_vec:
        Weights broadcast by the server this round, packed in
        :class:`~repro.nn.serialization.StateLayout` order; only read.
    optimizer:
        Optional pre-built optimizer over ``FlatParams.from_module(model)``
        (FedProx passes a :class:`ProximalSGD`); defaults to plain SGD with
        the config's learning rate.
    transform:
        Optional data transformation applied to each batch's features before
        the forward pass; receives ``(features, labels)`` and returns features.
        HeteroSwitch's random WB / gamma transforms plug in here.
    batch_hook:
        Called after every optimizer step with ``(model, batch_index,
        epoch_index)``; SCAFFOLD's control-variate correction and SWA's
        per-epoch / SWAD's per-batch weight averaging plug in here.
    seed:
        Seed of the mini-batch shuffle.

    Returns
    -------
    ClientResult
        Updated weights (packed), sample count and running average train loss
        over all batches (the paper's ``L_train``); ``init_loss`` is ``None``.
    """
    arena = broadcast_weights(model, global_vec)

    if optimizer is None:
        optimizer = SGD(arena, lr=config.learning_rate,
                        momentum=config.momentum, weight_decay=config.weight_decay)

    loader = DataLoader(dataset, batch_size=config.batch_size, shuffle=True, seed=seed)
    model.train()
    train_loss = 0.0
    batch_index = 0
    for epoch in range(config.local_epochs):
        for features, labels in loader:
            if transform is not None:
                features = transform(features, labels)
            loss = compute_loss(model, features, labels, config.task)
            # Running average of the training loss (Algorithm 1, line 14).
            train_loss = (train_loss * batch_index + float(loss.data)) / (batch_index + 1)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            if batch_hook is not None:
                batch_hook(model, batch_index, epoch)
            batch_index += 1

    return ClientResult(
        vector=arena.pack(),
        num_samples=len(dataset),
        train_loss=train_loss,
    )
