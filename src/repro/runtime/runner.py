"""Composable experiment runner executing declarative :class:`RunSpec`\\ s.

The :class:`Runner` turns a spec into concrete components — dataset bundle,
model factory, client population, strategy, sampler, callbacks — runs every
requested seed, and returns a :class:`RunResult` with per-seed histories and a
cross-seed summary.  Dataset bundles are memoised per ``(dataset, scale, seed,
kwargs)``, so sweeping strategies or hyperparameters over one dataset builds
the data once instead of once per run.  Every run of the paper's experiment
runners (:mod:`repro.eval`), federated or centralized, goes through this
class.

Attach a :class:`~repro.store.RunStore` (``Runner(store=..., checkpoint_every=
...)``) to make runs durable: every federated seed gets a manifest + periodic
crash-safe checkpoints + a result JSON in the store, and ``run(spec,
resume=True)`` skips seeds whose results are already stored and continues
partial seeds from their newest checkpoint — with final weights and metrics
bitwise identical to an uninterrupted run.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..core.swad import SWAAverager, SWADAverager
from ..eval.centralized import evaluate_on_devices
from ..eval.factories import make_model_factory
from ..eval.results import ExperimentResult
from ..eval.scale import ExperimentScale
from ..fl.callbacks import CheckpointCallback
from ..fl.config import FLConfig
from ..fl.metrics import summarize_per_device
from ..fl.async_sim import AsyncFederatedSimulation
from ..fl.simulation import (FederatedSimulation, FLHistory, check_checkpoint_dtype,
                             history_from_dict)
from ..fl.strategies import create_strategy
from ..fl.training import local_train
from ..data.dataset import ArrayDataset
from ..data.partition import build_client_specs
from ..nn.flat import FlatParams
from ..nn.layers import Module
from ..obs import Tracer, export_run_obs
from ..store import CheckpointError, RunStore
from .registries import (
    CALLBACK_REGISTRY,
    EXECUTOR_REGISTRY,
    SAMPLER_REGISTRY,
    DataBundle,
    build_dataset,
)
from .registries import default_train_transform
from .spec import LEGACY_ENGINE_OVERRIDE, RunSpec

__all__ = ["Runner", "RunResult", "run_spec"]

_SUMMARY_KEYS = ("worst_case", "variance", "average")


def _check_checkpoint_dtype(snapshot: Dict[str, Any], dtype_name: str) -> None:
    """Refuse to resume a run whose checkpoint was written under another dtype.

    The same check as :meth:`BaseSimulation.restore`, made before the dataset
    is built.  Both the sync and async snapshot formats carry the weights
    under ``"global_state"``.
    """
    try:
        check_checkpoint_dtype(snapshot.get("global_state") or {}, dtype_name)
    except ValueError as exc:
        raise CheckpointError(str(exc)) from exc


@dataclass
class RunResult:
    """Outcome of executing one :class:`RunSpec` across all its seeds.

    ``models`` is filled for centralized specs only; a federated seed's final
    weights are its run-store entry's final checkpoint (``Runner(store=...)``).
    """

    spec: RunSpec
    seeds: List[int]
    metrics: List[Dict[str, float]]
    histories: List[FLHistory] = field(default_factory=list)
    models: List[Module] = field(default_factory=list)
    summary: Dict[str, float] = field(default_factory=dict)

    @property
    def history(self) -> FLHistory:
        """The single-seed history (raises when the spec ran several seeds)."""
        if len(self.histories) != 1:
            raise ValueError(f"expected exactly one history, have {len(self.histories)}")
        return self.histories[0]

    def per_seed_summaries(self) -> List[Dict[str, float]]:
        """Worst-case / variance / average of each seed's per-device metrics."""
        return [summarize_per_device(metric) for metric in self.metrics]

    def to_experiment_result(self, experiment_id: str = "bench") -> ExperimentResult:
        """Render as the uniform result record the reporting layer consumes."""
        rows: List[List[object]] = []
        for seed, summary in zip(self.seeds, self.per_seed_summaries()):
            rows.append([self.spec.label, seed, summary["worst_case"],
                         summary["variance"], summary["average"]])
        return ExperimentResult(
            experiment_id=experiment_id,
            description=f"RunSpec '{self.spec.label}' over seeds {self.seeds}",
            headers=["run", "seed", "worst_case", "variance", "average"],
            rows=rows,
            scalars=dict(self.summary),
            metadata={"spec": self.spec.to_dict()},
        )


class Runner:
    """Executes :class:`RunSpec`\\ s, memoising dataset construction.

    One runner instance can execute many specs; bundles are cached by
    ``(dataset, scale, seed, dataset_kwargs)`` so grids over strategies,
    models or FL hyperparameters rebuild nothing but the runs themselves.

    Parameters
    ----------
    store:
        Optional :class:`~repro.store.RunStore` (or a path to create one at)
        making federated runs durable: manifests, checkpoints and results are
        persisted per ``(spec, seed)``, and :meth:`run` with ``resume=True``
        picks completed seeds up from the store and partial seeds up from
        their newest checkpoint.
    checkpoint_every:
        Checkpoint cadence in rounds for stored runs (``None``/``0`` writes
        only the final snapshot).
    """

    def __init__(self, store: "RunStore | str | None" = None,
                 checkpoint_every: Optional[int] = None) -> None:
        if store is not None and not isinstance(store, RunStore):
            store = RunStore(store)
        self.store = store
        if checkpoint_every is not None and (
            isinstance(checkpoint_every, bool)
            or not isinstance(checkpoint_every, int)
            or checkpoint_every < 0
        ):
            raise ValueError(
                f"checkpoint_every must be a non-negative integer or None, "
                f"got {checkpoint_every!r}"
            )
        self.checkpoint_every = checkpoint_every
        self._bundle_cache: Dict[str, DataBundle] = {}

    # -- data --------------------------------------------------------------- #
    def build_bundle(self, spec: RunSpec, seed: int) -> DataBundle:
        """Build (or fetch from cache) the spec's dataset bundle for ``seed``."""
        scale = spec.resolve_scale()
        key = json.dumps(
            {"dataset": spec.dataset, "scale": spec.scale, "seed": seed,
             "kwargs": spec.dataset_kwargs},
            sort_keys=True, default=str,
        )
        if key not in self._bundle_cache:
            self._bundle_cache[key] = build_dataset(spec.dataset, scale=scale, seed=seed,
                                                    **spec.dataset_kwargs)
        return self._bundle_cache[key]

    # -- execution ---------------------------------------------------------- #
    def run(self, spec: RunSpec, resume: bool = False) -> RunResult:
        """Execute every seed of the spec and summarise across seeds.

        With ``resume=True`` (requires a store), seeds whose results are
        already in the store are loaded instead of re-run, and partially
        completed seeds continue from their newest checkpoint.  Federated
        seeds leave :attr:`RunResult.models` empty: building their models
        would cost a resumed, completed seed its dataset construction.
        """
        spec.validate()
        if resume and self.store is None:
            raise ValueError("resume=True requires a Runner constructed with a store")
        if self.store is not None and spec.kind == "centralized":
            raise ValueError(
                "the run store supports federated specs; run centralized "
                "specs with a store-less Runner"
            )
        result = RunResult(spec=spec, seeds=list(spec.seeds), metrics=[])
        for seed in spec.seeds:
            if spec.kind == "centralized":
                model, metrics = self._run_centralized(spec, seed)
                result.models.append(model)
            else:
                history = self.run_seed(spec, seed, resume=resume)
                result.histories.append(history)
                metrics = history.per_device_metric
            result.metrics.append(metrics)
        result.summary = self._summarize(result)
        return result

    def run_seed(self, spec: RunSpec, seed: int, resume: bool = False) -> FLHistory:
        """Execute one federated run of the spec at ``seed``.

        When the runner has a store, the run is checkpointed into it and its
        result persisted on completion; ``resume=True`` returns the stored
        history for completed runs and restores partial runs from their
        newest checkpoint before continuing.
        """
        if spec.kind not in ("federated", "federated_async"):
            raise ValueError(f"run_seed requires a federated spec, got kind '{spec.kind}'")
        scale = spec.resolve_scale()

        # Consult the store before building anything expensive: resuming a
        # completed seed must not pay for dataset construction.
        entry = snapshot = None
        if self.store is not None:
            num_rounds = int(spec.config_overrides.get("num_rounds", scale.num_rounds))
            entry = self.store.open_run(spec, seed, extra={"num_rounds": num_rounds})
            if resume:
                if entry.has_result():
                    return history_from_dict(entry.load_result()["history"])
                snapshot = entry.load_checkpoint()
                if snapshot is not None:
                    _check_checkpoint_dtype(
                        snapshot, spec.config_overrides.get("dtype", "float64"))

        # Tracing/profiling are result-neutral config overrides; the tracer is
        # created here (not inside the simulation) so it also covers dataset
        # capture and can be exported into the store entry after the run.
        tracer = None
        if spec.config_overrides.get("trace") or spec.config_overrides.get("profile"):
            tracer = Tracer()

        if tracer is not None:
            with tracer.span("capture", dataset=spec.dataset, seed=seed):
                bundle = self.build_bundle(spec, seed)
        else:
            bundle = self.build_bundle(spec, seed)
        config = self._build_config(spec, scale, bundle, seed)
        factory = make_model_factory(
            scale, bundle.num_classes, bundle.image_size,
            in_channels=bundle.in_channels,
            model_name=spec.model or bundle.default_model,
            seed=seed,
        )
        clients = build_client_specs(
            bundle.train, num_clients=config.num_clients, shares=bundle.shares,
            seed=seed, **spec.partition_kwargs,
        )
        strategy_kwargs = {**bundle.strategy_defaults.get(spec.strategy, {}),
                           **spec.strategy_kwargs}
        strategy = create_strategy(spec.strategy, **strategy_kwargs)
        callbacks = [CALLBACK_REGISTRY.create(name, **kwargs)
                     for name, kwargs in spec.callbacks.items()]
        if entry is not None:
            callbacks.append(CheckpointCallback(entry.checkpoint_dir,
                                                every=self.checkpoint_every or 0))
        # The executor is created last so nothing can fail between its
        # construction and the try/finally that guarantees it is closed —
        # including exceptions raised by callbacks or the simulation itself.
        executor = EXECUTOR_REGISTRY.create(spec.executor, max_workers=spec.max_workers)
        try:
            if spec.kind == "federated_async":
                simulation = AsyncFederatedSimulation(
                    factory, clients, bundle.test, strategy, config,
                    latency=spec.latency_kwargs.get("regime", "mild"),
                    concurrency=spec.concurrency,
                    callbacks=callbacks, executor=executor,
                )
            else:
                sampler = SAMPLER_REGISTRY.create(spec.sampler, **spec.sampler_kwargs)
                simulation = FederatedSimulation(
                    factory, clients, bundle.test, strategy, config,
                    sampler=sampler, callbacks=callbacks, executor=executor,
                )
            if tracer is not None:
                simulation.tracer = tracer
            if snapshot is not None:
                simulation.restore(snapshot)
            history = simulation.run()
        finally:
            executor.close()
        if entry is not None:
            entry.save_result(history, final_state=simulation.global_state)
            if tracer is not None:
                export_run_obs(entry.path, tracer,
                               metadata={"run_id": entry.run_id, "seed": seed})
        return history

    def _build_config(self, spec: RunSpec, scale: ExperimentScale,
                      bundle: DataBundle, seed: int) -> FLConfig:
        settings: Dict[str, Any] = dict(
            num_clients=scale.num_clients,
            clients_per_round=min(scale.clients_per_round, scale.num_clients),
            num_rounds=scale.num_rounds,
            local_epochs=scale.local_epochs,
            batch_size=scale.batch_size,
            learning_rate=scale.learning_rate,
            task=bundle.task,
            seed=seed,
        )
        settings.update(spec.config_overrides)
        settings.pop(LEGACY_ENGINE_OVERRIDE, None)
        return FLConfig(**settings)

    def _run_centralized(self, spec: RunSpec, seed: int):
        """One centralized SGD run: returns (model, metrics).

        Trains on the bundle's train sets left after
        ``partition_kwargs["exclude"]``, merged in bundle order, with one
        :func:`local_train` call of ``epochs`` local epochs; every device's
        test set is scored.
        """
        scale = spec.resolve_scale()
        bundle = self.build_bundle(spec, seed)
        exclude = spec.partition_kwargs.get("exclude", [])
        unknown = sorted(set(exclude) - set(bundle.train))
        if unknown:
            raise ValueError(
                f"partition_kwargs.exclude names unknown device(s) {unknown}; "
                f"dataset '{spec.dataset}' has {sorted(bundle.train)}"
            )
        kept = [dataset for name, dataset in bundle.train.items() if name not in exclude]
        if not kept:
            raise ValueError(
                f"partition_kwargs.exclude leaves no train set: it excludes every "
                f"device of dataset '{spec.dataset}'"
            )
        train_set = functools.reduce(ArrayDataset.merge, kept)
        trainer = dict(spec.trainer_kwargs)
        epochs = int(trainer.pop("epochs", scale.central_epochs))
        batch_size = int(trainer.pop("batch_size", scale.batch_size))
        learning_rate = float(trainer.pop("learning_rate", scale.learning_rate))
        transform_degree = trainer.pop("transform_degree", None)
        averager_name = trainer.pop("averager", "none")
        if trainer:
            raise ValueError(f"unknown trainer_kwargs {sorted(trainer)}")

        if averager_name == "swa":
            batches_per_epoch = max(1, int(np.ceil(len(train_set) / batch_size)))
            averager = SWAAverager(batches_per_epoch)
        elif averager_name == "swad":
            averager = SWADAverager()
        elif averager_name == "none":
            averager = None
        else:
            raise ValueError(
                f"averager must be 'none', 'swa' or 'swad', got '{averager_name}'"
            )
        transform = None
        if transform_degree is not None:
            train_transform = default_train_transform(float(transform_degree))
            rng = np.random.default_rng(seed)
            transform = lambda features, _: train_transform(features, rng)

        config = FLConfig(num_clients=1, clients_per_round=1, local_epochs=epochs,
                          batch_size=batch_size, learning_rate=learning_rate,
                          task=bundle.task)
        factory = make_model_factory(
            scale, bundle.num_classes, bundle.image_size,
            in_channels=bundle.in_channels,
            model_name=spec.model or bundle.default_model,
            seed=seed,
        )
        model = factory()
        arena = FlatParams.from_module(model)
        local_train(model, train_set, config, arena.pack(), transform=transform,
                    batch_hook=averager.on_batch_end if averager is not None else None,
                    seed=seed)
        if averager is not None and averager.count:
            arena.load(averager.average())
        return model, evaluate_on_devices(model, bundle.test, bundle.task)

    # -- summary ------------------------------------------------------------ #
    @staticmethod
    def _summarize(result: RunResult) -> Dict[str, float]:
        summaries = result.per_seed_summaries()
        summary: Dict[str, float] = {"num_seeds": float(len(summaries))}
        for key in _SUMMARY_KEYS:
            values = np.array([s[key] for s in summaries], dtype=np.float64)
            summary[key] = float(values.mean())
            if len(values) > 1:
                summary[f"{key}_std"] = float(values.std(ddof=1))
        return summary


def run_spec(spec: RunSpec, runner: Optional[Runner] = None) -> RunResult:
    """Execute one spec with a fresh (or provided) :class:`Runner`."""
    return (runner or Runner()).run(spec)
