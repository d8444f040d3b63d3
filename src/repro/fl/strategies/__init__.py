"""FL strategies: FedAvg baseline, prior works, and the HeteroSwitch family.

The HeteroSwitch strategies live in :mod:`repro.core` (they are the paper's
contribution and import from here).  The registry builds them through
deferred imports, so the simulation layer can build any method in Table 4
from one registry without an import cycle.
"""

from __future__ import annotations

from typing import Callable

from ...registry import Registry
from .base import FedAvg, FLContext, Strategy
from .fedprox import FedProx
from .qfedavg import QFedAvg
from .scaffold import Scaffold

__all__ = [
    "Strategy",
    "FLContext",
    "FedAvg",
    "FedProx",
    "QFedAvg",
    "Scaffold",
    "STRATEGY_REGISTRY",
    "ASYNC_STRATEGY_NAMES",
    "create_strategy",
]

# Asynchronous-only strategies (repro.fl.async_sim): their round-based
# ``aggregate_stream`` raises and they run only under RunSpec
# kind="federated_async".  Named here (next to their registration) so spec
# validation can reject mismatched kinds without instantiating anything.
ASYNC_STRATEGY_NAMES = frozenset({"fedasync", "fedbuff"})


def _core_factory(name: str) -> Callable[..., Strategy]:
    def factory(**kwargs) -> Strategy:
        from ...core import heteroswitch as _hs

        return getattr(_hs, name)(**kwargs)

    factory.__name__ = name
    return factory


def _async_factory(name: str) -> Callable[..., Strategy]:
    """Deferred import of the async strategies (same pattern as core)."""
    def factory(**kwargs) -> Strategy:
        from ..async_sim import strategies as _async

        return getattr(_async, name)(**kwargs)

    factory.__name__ = name
    factory.requires_async = True
    return factory


STRATEGY_REGISTRY: Registry[Strategy] = Registry("strategy", {
    "fedavg": FedAvg,
    "fedprox": FedProx,
    "qfedavg": QFedAvg,
    "scaffold": Scaffold,
    "isp_transform": _core_factory("ISPTransformOnly"),
    "isp_swad": _core_factory("ISPTransformWithSWAD"),
    "heteroswitch": _core_factory("HeteroSwitch"),
    "fedasync": _async_factory("FedAsync"),
    "fedbuff": _async_factory("FedBuff"),
})


def create_strategy(name: str, **kwargs) -> Strategy:
    """Instantiate a strategy by name (the names used in Table 4's rows)."""
    return STRATEGY_REGISTRY.create(name, **kwargs)
