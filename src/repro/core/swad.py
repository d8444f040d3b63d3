"""Stochastic weight averaging: SWA (per-epoch) and SWAD (per-batch).

Section 5.2 of the paper adopts SWAD (Cha et al., 2021) on the client: during
local training the model weights after every *batch* update are folded into a
running average, and — if the switch condition holds — the averaged weights
are returned to the server instead of the final SGD iterate.  Conventional SWA
(Izmailov et al., 2018) averages once per *epoch*; Fig. 7 compares the two and
finds the denser averaging more robust, which is why HeteroSwitch uses SWAD.

Both plug into :func:`~repro.fl.training.local_train`'s per-batch hook
(``batch_hook=averager.on_batch_end``): SWAD folds every batch in, SWA only
the last batch of each epoch.  That hook is the only averaging path, for
HeteroSwitch's clients and for the Fig. 7 centralized runs alike.

The running average is one flat vector; the seed per-key dict loop it
replaced is kept as a test oracle (``tests/oracle/seed_engine.py``) and the
two are pinned bitwise equal.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..nn.flat import FlatParams
from ..nn.layers import Module
from ..nn.serialization import StateLayout

__all__ = ["WeightAverager", "SWADAverager", "SWAAverager"]

StateDict = Dict[str, np.ndarray]


class WeightAverager:
    """Running average of model weights (Algorithm 1, line 17).

    The update follows the incremental-mean form used in the paper:
    ``W_avg <- (W_avg * k + W) / (k + 1)`` where ``k`` counts prior updates.

    The average lives as one flat vector in :class:`StateLayout` order:
    SWAD folds the weights in after *every* batch, and the incremental mean
    over the concatenated vector is elementwise — hence bitwise — identical
    to a per-key dict loop, at a fraction of the interpreter overhead.
    :meth:`update_from_model` packs straight from the model's
    :class:`~repro.nn.flat.FlatParams` arena (built on first use; inside
    ``local_train`` it already exists) without materialising a state dict.

    Precision: the mean is computed in the weights' own dtype, so under
    float32 every fold rounds to float32 (unlike the server folds, which
    accumulate in float64).
    """

    def __init__(self) -> None:
        self._layout: Optional[StateLayout] = None
        self._flat: Optional[np.ndarray] = None
        self._count = 0

    @property
    def count(self) -> int:
        """Number of states folded into the average so far."""
        return self._count

    def _fold(self, vector: np.ndarray) -> None:
        if self._flat is None:
            self._flat = vector
            self._count = 1
            return
        if vector.shape != self._flat.shape:
            raise ValueError(f"weights of shape {vector.shape} do not match the "
                             f"averaged shape {self._flat.shape}")
        k = self._count
        self._flat = (self._flat * k + vector) / (k + 1)
        self._count += 1

    def update(self, state: StateDict) -> None:
        """Fold one state dict into the running average."""
        if self._layout is None:
            self._layout = StateLayout(state)
        self._fold(self._layout.pack(state))

    def update_from_model(self, model: Module) -> None:
        """Fold the model's current weights (parameters and buffers) into the average."""
        self._fold(FlatParams.from_module(model).pack())

    def average(self) -> np.ndarray:
        """A copy of the current average, packed in :class:`StateLayout` order."""
        if self._flat is None:
            raise RuntimeError("no states have been averaged yet")
        return self._flat.copy()

    def reset(self) -> None:
        self._layout = None
        self._flat = None
        self._count = 0


class SWADAverager(WeightAverager):
    """Per-batch weight averaging (SWAD): call :meth:`on_batch_end` after every step."""

    def on_batch_end(self, model: Module, batch_index: int, epoch_index: int) -> None:
        del batch_index, epoch_index  # SWAD averages after every batch unconditionally
        self.update_from_model(model)


class SWAAverager(WeightAverager):
    """Per-epoch weight averaging (conventional SWA): averages at each epoch boundary.

    ``batches_per_epoch`` must be supplied so the averager can detect epoch
    boundaries from the per-batch hook the training loop exposes.
    """

    def __init__(self, batches_per_epoch: int) -> None:
        super().__init__()
        if batches_per_epoch <= 0:
            raise ValueError("batches_per_epoch must be positive")
        self.batches_per_epoch = batches_per_epoch

    def on_batch_end(self, model: Module, batch_index: int, epoch_index: int) -> None:
        del epoch_index
        if (batch_index + 1) % self.batches_per_epoch == 0:
            self.update_from_model(model)
