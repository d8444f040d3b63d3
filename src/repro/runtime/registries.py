"""Dataset-builder registry and the bundle contract the Runner consumes.

Each entry of :data:`DATASET_REGISTRY` is a builder ``(scale, seed, **kwargs)
-> DataBundle`` producing per-device train/test sets plus the metadata the
:class:`~repro.runtime.runner.Runner` needs to assemble a model factory and a
client population.  The builders wrap the synthetic dataset families of
:mod:`repro.data` and own their scale-derived parameters (sample counts,
device-type counts, default models, strategy defaults), so the experiment
runners of :mod:`repro.eval` and a hand-written spec build the same data.

The strategy / model / sampler / callback registries defined elsewhere are
re-exported here so :mod:`repro.runtime` is a one-stop shop for everything a
:class:`~repro.runtime.spec.RunSpec` can reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, fields
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.transforms import default_isp_transform, ecg_transform
from ..data.capture import build_device_datasets
from ..data.cifar_synthetic import SyntheticCifarConfig, build_synthetic_cifar
from ..data.dataset import ArrayDataset, hwc_to_nchw, train_test_split
from ..data.ecg import build_ecg_datasets
from ..data.flair_synthetic import FlairConfig, build_flair_dataset
from ..data.scenes import generate_scene_dataset
from ..devices.profiles import DEVICE_NAMES, market_shares
from ..eval.scale import ExperimentScale
from ..fl.callbacks import CALLBACK_REGISTRY
from ..fl.execution import EXECUTOR_REGISTRY
from ..fl.sampling import SAMPLER_REGISTRY
from ..fl.strategies import STRATEGY_REGISTRY
from ..isp.pipeline import ISPConfig
from ..nn.models import MODEL_REGISTRY
from ..registry import Registry

__all__ = [
    "DataBundle",
    "DATASET_REGISTRY",
    "build_dataset",
    "STRATEGY_REGISTRY",
    "MODEL_REGISTRY",
    "SAMPLER_REGISTRY",
    "CALLBACK_REGISTRY",
    "EXECUTOR_REGISTRY",
]

# The strategies that accept HeteroSwitch's ``transform`` constructor argument;
# dataset bundles may supply a modality-appropriate default for them (the ECG
# datasets need the 1-D Gaussian-filter transform instead of the ISP one).
_TRANSFORM_STRATEGIES = ("heteroswitch", "isp_transform", "isp_swad")


@dataclass
class DataBundle:
    """Everything the Runner needs to know about a built dataset family."""

    train: Dict[str, ArrayDataset]
    test: Dict[str, ArrayDataset]
    task: str
    num_classes: int
    image_size: int
    in_channels: int = 3
    shares: Optional[Dict[str, float]] = None
    default_model: Optional[str] = None
    strategy_defaults: Dict[str, Dict[str, Any]] = dataclass_field(default_factory=dict)
    metadata: Dict[str, Any] = dataclass_field(default_factory=dict)

    def devices(self) -> List[str]:
        return list(self.train.keys())


DATASET_REGISTRY: Registry[DataBundle] = Registry("dataset")


def build_dataset(name: str, scale: ExperimentScale, seed: int, **kwargs) -> DataBundle:
    """Build the named dataset family at the given scale and seed."""
    return DATASET_REGISTRY.create(name, scale=scale, seed=seed, **kwargs)


@DATASET_REGISTRY.register("device_capture")
def _device_capture(
    scale: ExperimentScale,
    seed: int,
    devices: Optional[Sequence[str]] = None,
    raw: bool = False,
    shares: str = "market",
    isp_override: Optional[Dict[str, str]] = None,
    capture_cache: Optional[str] = None,
) -> DataBundle:
    """The Table 1 smartphone-capture dataset (Tables 2/4/5, Figs 1-5, 9).

    ``shares`` selects the partition weighting: ``"market"`` follows the
    Table 1 market shares, ``"uniform"`` weights every device equally.
    ``isp_override`` is a dict of :class:`~repro.isp.pipeline.ISPConfig`
    fields (e.g. ``dataclasses.asdict(BASELINE_CONFIG)``) that replaces every
    device's own ISP; Fig. 3 uses it for its stage ablation.
    ``capture_cache`` names a directory where per-device captures are
    persisted and reloaded bitwise-identically (the CLI's
    ``--capture-cache``); it never changes the data, only the build cost.
    """
    device_names = list(devices) if devices else list(DEVICE_NAMES)
    if shares == "market":
        share_map = {name: value for name, value in market_shares().items()
                     if name in device_names}
    elif shares == "uniform":
        share_map = {name: 1.0 for name in device_names}
    else:
        raise ValueError(f"shares must be 'market' or 'uniform', got '{shares}'")
    isp_config = None
    if isp_override is not None:
        known = [f.name for f in fields(ISPConfig)]
        unknown = sorted(set(isp_override) - set(known))
        if unknown:
            raise ValueError(
                f"unknown isp_override field(s) {unknown}; ISPConfig has {known}")
        try:
            isp_config = ISPConfig(**isp_override)
        except ValueError as exc:
            raise ValueError(f"isp_override: {exc}") from exc
    bundle = build_device_datasets(
        samples_per_class_train=scale.samples_per_class_train,
        samples_per_class_test=scale.samples_per_class_test,
        num_classes=scale.num_classes,
        image_size=scale.image_size,
        scene_size=scale.scene_size,
        devices=device_names,
        raw=raw,
        isp_override=isp_config,
        seed=seed,
        cache=capture_cache,
    )
    return DataBundle(
        train=bundle.train,
        test=bundle.test,
        task="classification",
        num_classes=bundle.num_classes,
        image_size=bundle.image_size,
        shares=share_map,
        metadata={"devices": device_names, "raw": raw},
    )


@DATASET_REGISTRY.register("synthetic_cifar")
def _synthetic_cifar(
    scale: ExperimentScale,
    seed: int,
    num_classes: Optional[int] = None,
    num_device_types: Optional[int] = None,
) -> DataBundle:
    """The Fig. 8 synthetic-CIFAR heterogeneity dataset."""
    config = SyntheticCifarConfig(
        num_classes=num_classes if num_classes is not None else (
            5 if scale.name == "smoke" else 20
        ),
        samples_per_class_train=scale.samples_per_class_train * 2,
        samples_per_class_test=scale.samples_per_class_test * 2,
        image_size=scale.image_size,
        num_device_types=num_device_types if num_device_types is not None else (
            4 if scale.name == "smoke" else 10
        ),
        seed=seed,
    )
    train_sets, test_sets, devices = build_synthetic_cifar(config)
    return DataBundle(
        train=train_sets,
        test=test_sets,
        task="classification",
        num_classes=config.num_classes,
        image_size=config.image_size,
        default_model="simple_mlp" if scale.name == "smoke" else "simple_cnn",
        metadata={"num_device_types": config.num_device_types,
                  "devices": [d.name for d in devices]},
    )


@DATASET_REGISTRY.register("flair")
def _flair(
    scale: ExperimentScale,
    seed: int,
    num_labels: Optional[int] = None,
    num_device_types: Optional[int] = None,
) -> DataBundle:
    """The Table 6 FLAIR-like multi-label dataset."""
    config = FlairConfig(
        num_labels=num_labels if num_labels is not None else (
            6 if scale.name == "smoke" else 8
        ),
        num_device_types=num_device_types if num_device_types is not None else (
            6 if scale.name == "smoke" else 15
        ),
        samples_per_device_train=max(scale.samples_per_class_train * 3, 9),
        samples_per_device_test=max(scale.samples_per_class_test * 3, 6),
        image_size=scale.image_size,
        seed=seed,
    )
    train_sets, test_sets, devices = build_flair_dataset(config)
    return DataBundle(
        train=train_sets,
        test=test_sets,
        task="multilabel",
        num_classes=config.num_labels,
        image_size=config.image_size,
        default_model="simple_mlp" if scale.name == "smoke" else "multilabel_cnn",
        metadata={"num_device_types": config.num_device_types,
                  "devices": [d.name for d in devices]},
    )


@DATASET_REGISTRY.register("ecg")
def _ecg(
    scale: ExperimentScale,
    seed: int,
    window_size: int = 64,
) -> DataBundle:
    """The Section 6.6 multi-sensor ECG heart-rate regression dataset."""
    train_sets, test_sets, sensors = build_ecg_datasets(
        samples_per_sensor_train=max(scale.samples_per_class_train * 6, 24),
        samples_per_sensor_test=max(scale.samples_per_class_test * 6, 12),
        window_size=window_size,
        seed=seed,
    )
    return DataBundle(
        train=train_sets,
        test=test_sets,
        task="regression",
        num_classes=1,
        image_size=window_size,
        in_channels=1,
        default_model="ecg_regressor",
        # HeteroSwitch's ISP transform is image-specific; the 1-D task needs
        # the random-Gaussian-filter transform instead.
        strategy_defaults={name: {"transform": ecg_transform()}
                           for name in _TRANSFORM_STRATEGIES},
        metadata={"window_size": window_size, "sensors": [s.name for s in sensors]},
    )


def _resize_nearest(images: np.ndarray, size: int) -> np.ndarray:
    """Nearest-neighbour downsample of an (N, H, W, C) batch to size x size."""
    n, h, w, c = images.shape
    if h == size and w == size:
        return images
    rows = np.linspace(0, h - 1, size).round().astype(int)
    cols = np.linspace(0, w - 1, size).round().astype(int)
    return images[:, rows][:, :, cols]


@DATASET_REGISTRY.register("scenes")
def _scenes(
    scale: ExperimentScale,
    seed: int,
    test_fraction: float = 0.3,
) -> DataBundle:
    """The original (pre-capture) procedural scenes, for centralized runs.

    Used by the Fig. 7 robustness study: one pooled train/test split of the
    scene images themselves, before any device capture.
    """
    scenes, labels = generate_scene_dataset(
        scale.samples_per_class_train + scale.samples_per_class_test,
        num_classes=scale.num_classes,
        image_size=scale.scene_size,
        seed=seed,
    )
    scenes = _resize_nearest(scenes, scale.image_size)
    dataset = ArrayDataset(hwc_to_nchw(scenes), labels)
    train_set, test_set = train_test_split(dataset, test_fraction=test_fraction, seed=seed)
    return DataBundle(
        train={"scenes": train_set},
        test={"scenes": test_set},
        task="classification",
        num_classes=scale.num_classes,
        image_size=scale.image_size,
        metadata={"test_fraction": test_fraction},
    )


def default_train_transform(degree: float) -> Callable:
    """The low-degree random ISP transform used for centralized training."""
    return default_isp_transform(wb_degree=degree, gamma_degree=degree)
