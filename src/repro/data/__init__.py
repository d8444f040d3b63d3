"""Datasets and data-handling utilities for the HeteroSwitch reproduction.

Every dataset the paper evaluates on is rebuilt here as a synthetic analogue:
the 12-class device-capture dataset, the synthetic-heterogeneity CIFAR
experiment, the FLAIR-like multi-label dataset and the multi-sensor ECG
dataset, plus FL client partitioning and batching.
"""

from .capture import (
    CaptureConfig,
    DeviceDatasetBundle,
    build_device_datasets,
    capture_with_device,
    derive_capture_seeds,
)
from .capture_cache import CaptureCache, device_fingerprint
from .cifar_synthetic import SyntheticCifarConfig, build_synthetic_cifar, generate_base_images
from .dataset import ArrayDataset, DataLoader, hwc_to_nchw, nchw_to_hwc, train_test_split
from .ecg import ECG_SENSOR_TYPES, ECGSensorType, build_ecg_datasets, synthesize_ecg_window
from .flair_synthetic import FlairConfig, build_flair_dataset
from .partition import ClientSpec, assign_device_types, build_client_specs, shard_dataset
from .scenes import SCENE_CLASSES, SceneGenerator, generate_scene_dataset

__all__ = [
    "ArrayDataset",
    "DataLoader",
    "hwc_to_nchw",
    "nchw_to_hwc",
    "train_test_split",
    "SceneGenerator",
    "SCENE_CLASSES",
    "generate_scene_dataset",
    "CaptureConfig",
    "CaptureCache",
    "DeviceDatasetBundle",
    "build_device_datasets",
    "capture_with_device",
    "derive_capture_seeds",
    "device_fingerprint",
    "ClientSpec",
    "assign_device_types",
    "build_client_specs",
    "shard_dataset",
    "SyntheticCifarConfig",
    "build_synthetic_cifar",
    "generate_base_images",
    "FlairConfig",
    "build_flair_dataset",
    "ECGSensorType",
    "ECG_SENSOR_TYPES",
    "build_ecg_datasets",
    "synthesize_ecg_window",
]
