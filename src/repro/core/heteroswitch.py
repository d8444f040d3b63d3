"""The HeteroSwitch client update (Algorithm 1) and FL strategy (Section 5).

HeteroSwitch adapts how much generalization each client applies per round:

1. *Bias measurement*: the client's initial loss ``L_init`` is compared with the
   server-tracked EMA of the aggregated loss ``L_EMA`` (Eq. 1).
2. *Switch 1 — dataset diversification*: if ``L_init < L_EMA`` the client's data
   is already well captured by the global model (bias toward its device type),
   so random ISP transformations (Eq. 2 random white balance + Eq. 3 random
   gamma) are applied during local training.
3. *Switch 2 — model generalization*: if additionally the training loss stays
   below ``L_EMA``, the SWAD per-batch weight average is returned to the server
   instead of the final SGD iterate.

Two always-on ablations of the same machinery, ``ISPTransformOnly`` and
``ISPTransformWithSWAD``, reproduce the middle rows of Table 4.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..data.partition import ClientSpec
from ..fl.strategies.base import FLContext, Strategy
from ..fl.training import ClientResult, local_train, measure_init_loss
from ..nn.layers import Module
from .swad import SWADAverager
from .switch import SwitchDecision, decide_switch1, decide_switch2
from .transforms import BatchTransform, default_isp_transform

__all__ = ["HeteroSwitch", "ISPTransformOnly", "ISPTransformWithSWAD"]


class _GeneralizingStrategy(Strategy):
    """Shared implementation for strategies that may transform data and/or use SWAD."""

    def __init__(self, transform: Optional[BatchTransform] = None) -> None:
        self.transform: BatchTransform = transform if transform is not None else default_isp_transform()

    # Subclasses decide whether each mechanism is active for this client round.
    def _use_transform(self, init_loss: float, context: FLContext) -> bool:
        raise NotImplementedError

    def _use_swad_weights(self, switch1: bool, train_loss: float, context: FLContext) -> bool:
        raise NotImplementedError

    def client_update(self, model: Module, spec: ClientSpec, global_vec: np.ndarray,
                      context: FLContext) -> ClientResult:
        config = context.config
        # Private per-client stream: identical regardless of which execution
        # backend (serial / shm) runs this update.
        seed = context.client_seed(spec.client_id)
        rng = context.client_rng(spec.client_id)

        # Bias measurement (Algorithm 1): L_init is measured before training
        # because switch 1 decides how the client trains.
        init_loss = measure_init_loss(model, spec.dataset, config, global_vec)
        switch1 = self._use_transform(init_loss, context)

        # Switch 1 turns on the random ISP transform and SWAD's per-batch average.
        averager = SWADAverager()
        result = local_train(
            model, spec.dataset, config, global_vec,
            transform=(lambda features, labels: self.transform(features, rng)) if switch1 else None,
            batch_hook=averager.on_batch_end if switch1 else None, seed=seed)
        switch2 = self._use_swad_weights(switch1, result.train_loss, context)
        if switch2 and averager.count > 0:
            result.vector = averager.average()

        result.init_loss = init_loss
        result.metadata["device"] = spec.device
        result.metadata["switch"] = SwitchDecision(
            switch1=switch1, switch2=switch2, init_loss=init_loss,
            train_loss=result.train_loss, ema_loss=context.ema.value)
        return result


class HeteroSwitch(_GeneralizingStrategy):
    """The proposed method: switched ISP transformation + switched SWAD."""

    name = "heteroswitch"

    def _use_transform(self, init_loss: float, context: FLContext) -> bool:
        return decide_switch1(init_loss, context.ema.value)

    def _use_swad_weights(self, switch1: bool, train_loss: float, context: FLContext) -> bool:
        return decide_switch2(switch1, train_loss, context.ema.value)


class ISPTransformOnly(_GeneralizingStrategy):
    """Ablation: random ISP transformation applied to every client, no SWAD.

    Corresponds to the "ISP Transformation" row of Table 4.
    """

    name = "isp_transform"

    def _use_transform(self, init_loss: float, context: FLContext) -> bool:
        del init_loss, context
        return True

    def _use_swad_weights(self, switch1: bool, train_loss: float, context: FLContext) -> bool:
        del switch1, train_loss, context
        return False


class ISPTransformWithSWAD(_GeneralizingStrategy):
    """Ablation: ISP transformation and SWAD weights for every client.

    Corresponds to the "+ SWAD" row of Table 4 — the one-size-fits-all variant
    whose over-generalization HeteroSwitch's switching avoids.
    """

    name = "isp_swad"

    def _use_transform(self, init_loss: float, context: FLContext) -> bool:
        del init_loss, context
        return True

    def _use_swad_weights(self, switch1: bool, train_loss: float, context: FLContext) -> bool:
        del switch1, train_loss, context
        return True
