"""Declarative, serializable description of one experiment run.

A :class:`RunSpec` pins down everything an FL (or centralized) run needs —
strategy, model, dataset/partition, client sampler, config overrides, attached
callbacks and the seeds to replicate over — as plain strings and JSON-safe
values resolved against the component registries.  Specs round-trip through
``to_dict``/``from_dict`` and ``to_json``/``from_json``, so every scenario is
a config file rather than a code fork::

    spec = RunSpec(strategy="heteroswitch", dataset="device_capture",
                   scale="smoke", seeds=[0, 1, 2])
    RunSpec.from_json(spec.to_json()) == spec    # True
"""

from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from ..eval.scale import ExperimentScale, get_scale
from ..fl.callbacks import CALLBACK_REGISTRY
from ..fl.config import FLConfig
from ..fl.execution import EXECUTOR_REGISTRY, validate_max_workers
from ..fl.sampling import SAMPLER_REGISTRY
from ..fl.strategies import ASYNC_STRATEGY_NAMES, STRATEGY_REGISTRY
from ..nn.models import MODEL_REGISTRY

__all__ = ["RunSpec", "RUN_KINDS", "spec_scale"]


def spec_scale(scale: "str | ExperimentScale") -> "str | Dict[str, Any]":
    """Express a runner ``scale`` argument in :attr:`RunSpec.scale` form.

    Preset names pass through as strings; custom :class:`ExperimentScale`
    instances become their (JSON-serializable) field dict.
    """
    if isinstance(scale, str):
        return scale
    return dataclasses.asdict(get_scale(scale))

RUN_KINDS = ("federated", "federated_async", "centralized")

# latency_kwargs keys a federated_async spec may carry.  ``regime`` names a
# preset from repro.devices.latency.LATENCY_REGIMES.
_LATENCY_KWARGS_FIELDS = ("regime",)
# partition_kwargs keys any spec may carry.  ``exclude`` leaves the named
# devices' training data out (federated: build_client_specs; centralized: the
# pooled train set); their test sets are still scored.
_PARTITION_KWARGS_FIELDS = ("exclude",)

_FL_CONFIG_FIELDS = {f.name for f in dataclasses.fields(FLConfig)}
# A config override that no longer exists.  Specs stored before the seed
# training engine was removed carry train_engine="flat" — the only engine
# there is — so that value still loads (the runner drops it before building
# the FLConfig, and the spec hash keeps it); any other value is refused.
LEGACY_ENGINE_OVERRIDE = "train_engine"
_SCALE_FIELDS = {f.name for f in dataclasses.fields(ExperimentScale)}


@dataclass
class RunSpec:
    """One experiment run as data.

    Attributes
    ----------
    name:
        Optional human-readable label (used in reports).
    kind:
        ``"federated"`` (the synchronous FL loop), ``"federated_async"``
        (the event-driven asynchronous loop with a simulated clock), or
        ``"centralized"`` (single-model SGD: the Table 2 / Figs. 2-3
        characterization and the Fig. 7 SWA/SWAD comparison).
    strategy / strategy_kwargs:
        FL strategy registry key and constructor arguments (federated kinds
        only).  Asynchronous strategies (``fedasync``/``fedbuff``) require
        ``kind="federated_async"`` and vice versa.
    model:
        Model registry key; ``None`` defers to the dataset's / scale's default.
    dataset / dataset_kwargs:
        Dataset-builder registry key and arguments (e.g. ``devices=[...]``).
    partition_kwargs:
        Which training data a run uses; currently ``exclude=[...]``, the
        devices whose train sets are left out (every device is still
        tested).  Federated runs partition the rest into clients;
        centralized runs train on the rest, merged in bundle order.
    sampler / sampler_kwargs:
        Client-sampler registry key and constructor arguments.
    executor / max_workers:
        Client-execution backend (``"serial"``, ``"thread"``, ``"shm"``)
        and its worker cap (``None`` = one per CPU core).  Every backend
        produces bit-identical results, so this is purely a wall-clock knob
        (federated only).
    scale:
        Scale preset name, or a dict of :class:`ExperimentScale` fields for a
        fully custom scale.
    config_overrides:
        :class:`FLConfig` fields overriding the scale-derived defaults.
    callbacks:
        Mapping of callback registry key to constructor kwargs, attached to
        every seed's run.
    latency_kwargs:
        Asynchronous-only device-latency options; currently ``regime``
        (a :data:`repro.devices.latency.LATENCY_REGIMES` preset name,
        default ``"mild"``).
    concurrency:
        Asynchronous-only cap on simultaneously training clients
        (``None`` = the config's ``clients_per_round``).
    trainer_kwargs:
        Centralized-only options (``averager``, ``transform_degree``,
        ``epochs``...).
    seeds:
        Seeds to replicate the run over (multi-seed sweeps).
    """

    name: Optional[str] = None
    kind: str = "federated"
    strategy: str = "fedavg"
    strategy_kwargs: Dict[str, Any] = field(default_factory=dict)
    model: Optional[str] = None
    dataset: str = "device_capture"
    dataset_kwargs: Dict[str, Any] = field(default_factory=dict)
    partition_kwargs: Dict[str, Any] = field(default_factory=dict)
    sampler: str = "uniform"
    sampler_kwargs: Dict[str, Any] = field(default_factory=dict)
    executor: str = "serial"
    max_workers: Optional[int] = None
    scale: Union[str, Dict[str, Any]] = "smoke"
    config_overrides: Dict[str, Any] = field(default_factory=dict)
    callbacks: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    latency_kwargs: Dict[str, Any] = field(default_factory=dict)
    concurrency: Optional[int] = None
    trainer_kwargs: Dict[str, Any] = field(default_factory=dict)
    seeds: List[int] = field(default_factory=lambda: [0])

    def __post_init__(self) -> None:
        self.validate()

    # -- validation -------------------------------------------------------- #
    def validate(self) -> None:
        """Check every registry key and structural field, with helpful errors."""
        # Local import: the dataset registry lives one layer up to keep this
        # module free of heavyweight data/eval dependencies.
        from .registries import DATASET_REGISTRY

        if self.kind not in RUN_KINDS:
            raise ValueError(f"kind must be one of {RUN_KINDS}, got '{self.kind}'")
        if self.kind in ("federated", "federated_async"):
            _require(STRATEGY_REGISTRY, self.strategy)
            _require(EXECUTOR_REGISTRY, self.executor)
            validate_max_workers(self.max_workers)
            for callback_name in self.callbacks:
                _require(CALLBACK_REGISTRY, callback_name)
            engine = self.config_overrides.get(LEGACY_ENGINE_OVERRIDE, "flat")
            if engine != "flat":
                raise ValueError(
                    f"train_engine {engine!r} was removed: every run uses the flat "
                    f"engine, so drop the override"
                )
            unknown = set(self.config_overrides) - _FL_CONFIG_FIELDS - {LEGACY_ENGINE_OVERRIDE}
            if unknown:
                raise ValueError(
                    f"unknown FLConfig override(s) {sorted(unknown)}; "
                    f"valid fields: {sorted(_FL_CONFIG_FIELDS)}"
                )
            if self.trainer_kwargs:
                raise ValueError(
                    "trainer_kwargs only applies to centralized specs; federated "
                    "runs configure training via config_overrides"
                )
        unknown = set(self.partition_kwargs) - set(_PARTITION_KWARGS_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown partition_kwargs {sorted(unknown)}; "
                f"valid keys: {sorted(_PARTITION_KWARGS_FIELDS)}"
            )
        if self.kind == "federated":
            _require(SAMPLER_REGISTRY, self.sampler)
            if self.strategy in ASYNC_STRATEGY_NAMES:
                raise ValueError(
                    f"strategy '{self.strategy}' is asynchronous-only; "
                    f"use kind='federated_async'"
                )
            ignored = [name for name in ("latency_kwargs",) if getattr(self, name)]
            if self.concurrency is not None:
                ignored.append("concurrency")
            if ignored:
                raise ValueError(
                    f"synchronous federated specs do not use {sorted(ignored)}; "
                    f"these fields require kind='federated_async'"
                )
        elif self.kind == "federated_async":
            if self.strategy not in ASYNC_STRATEGY_NAMES:
                raise ValueError(
                    f"kind='federated_async' requires an asynchronous strategy "
                    f"{sorted(ASYNC_STRATEGY_NAMES)}, got '{self.strategy}'"
                )
            # The event loop dispatches to whichever clients are online and
            # idle — there is no per-round cohort to sample.
            if self.sampler != RunSpec.sampler or self.sampler_kwargs:
                raise ValueError(
                    "federated_async specs do not use sampler/sampler_kwargs; "
                    "client scheduling is driven by the latency/availability "
                    "models (latency_kwargs)"
                )
            # Async dispatch has no retry/quorum path yet: injected faults
            # would fire unhandled and a fault policy would be ignored.
            faulty = [name for name in ("faults", "fault_policy")
                      if self.config_overrides.get(name) is not None]
            if faulty:
                raise ValueError(
                    f"federated_async specs do not support {faulty}; fault "
                    f"injection and fault policies apply to kind='federated'"
                )
            unknown = set(self.latency_kwargs) - set(_LATENCY_KWARGS_FIELDS)
            if unknown:
                raise ValueError(
                    f"unknown latency_kwargs {sorted(unknown)}; "
                    f"valid keys: {sorted(_LATENCY_KWARGS_FIELDS)}"
                )
            if "regime" in self.latency_kwargs:
                # Local import: the devices package is independent of runtime.
                from ..devices.latency import get_regime

                get_regime(self.latency_kwargs["regime"])
            if self.concurrency is not None and (
                isinstance(self.concurrency, bool)
                or not isinstance(self.concurrency, int)
                or self.concurrency <= 0
            ):
                raise ValueError(
                    f"concurrency must be a positive integer or None, "
                    f"got {self.concurrency!r}"
                )
        else:
            # Centralized runs have no FL loop: reject fields that would be
            # silently ignored instead of letting a wrong run look valid.
            ignored = [name for name in
                       ("strategy_kwargs", "config_overrides", "callbacks",
                        "sampler_kwargs", "latency_kwargs") if getattr(self, name)]
            if self.strategy != RunSpec.strategy:
                ignored.append("strategy")
            if self.sampler != RunSpec.sampler:
                ignored.append("sampler")
            if self.executor != RunSpec.executor:
                ignored.append("executor")
            if self.max_workers is not None:
                ignored.append("max_workers")
            if self.concurrency is not None:
                ignored.append("concurrency")
            if ignored:
                raise ValueError(
                    f"centralized specs do not use {sorted(ignored)}; training is "
                    f"configured via trainer_kwargs (epochs, batch_size, "
                    f"learning_rate, transform_degree, averager)"
                )
        if self.model is not None:
            _require(MODEL_REGISTRY, self.model)
        _require(DATASET_REGISTRY, self.dataset)
        if isinstance(self.scale, dict):
            missing = _SCALE_FIELDS - set(self.scale)
            extra = set(self.scale) - _SCALE_FIELDS
            if missing or extra:
                raise ValueError(
                    f"custom scale dict must supply exactly the ExperimentScale fields; "
                    f"missing {sorted(missing)}, unexpected {sorted(extra)}"
                )
        else:
            get_scale(self.scale)  # raises with the available preset names
        if not self.seeds:
            raise ValueError("seeds must not be empty")
        if not all(isinstance(seed, int) for seed in self.seeds):
            raise ValueError("seeds must be integers")

    def resolve_scale(self) -> ExperimentScale:
        """The concrete :class:`ExperimentScale` this spec runs at."""
        if isinstance(self.scale, dict):
            return ExperimentScale(**self.scale)
        return get_scale(self.scale)

    # -- derivation --------------------------------------------------------- #
    def with_overrides(self, **kwargs) -> "RunSpec":
        """A deep copy with selected fields replaced (specs stay immutable-ish)."""
        return dataclasses.replace(copy.deepcopy(self), **kwargs)

    # -- serialization ------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data dict representation (deep-copied, JSON-compatible)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSpec":
        """Inverse of :meth:`to_dict`; unknown keys raise a listing error."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown RunSpec field(s) {sorted(unknown)}; valid fields: {sorted(known)}"
            )
        return cls(**copy.deepcopy(data))

    def to_json(self, indent: int = 2) -> str:
        """JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        """Parse a spec from its JSON rendering."""
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        """Write the spec as JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "RunSpec":
        """Read a spec from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    # -- display ------------------------------------------------------------ #
    @property
    def label(self) -> str:
        """Short human-readable identifier for tables and reports."""
        if self.name:
            return self.name
        if self.kind == "centralized":
            return f"centralized/{self.dataset}"
        return f"{self.strategy}/{self.dataset}"


def _require(registry, name: str) -> None:
    """Validate a registry key, re-raising the registry's listing error."""
    registry[name]  # KeyError lists available keys
