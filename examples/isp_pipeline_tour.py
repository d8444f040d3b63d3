#!/usr/bin/env python3
"""ISP pipeline tour: from a scene, through a simulated sensor, to a training tensor.

This example exposes the data-generation machinery behind every experiment
(Fig. 1 of the paper): a procedural scene is "displayed on the monitor", each
simulated smartphone captures RAW data with its own sensor, its ISP processes
the RAW into the final image, and the differences between devices are measured.

It also demonstrates the per-stage ISP configuration of Table 3 by processing
the same RAW capture with the Baseline / Option 1 / Option 2 pipelines.

Every sensor and ISP call takes a batch; this tour passes batches of one scene.

Run it with:  python examples/isp_pipeline_tour.py
"""

from __future__ import annotations

import numpy as np

from repro.data.scenes import SceneGenerator
from repro.devices import DEVICE_PROFILES
from repro.isp import BASELINE_CONFIG, OPTION1_CONFIG, OPTION2_CONFIG, ISPPipeline
from repro.isp.raw import raw_to_training_array_batch


def describe(name: str, image: np.ndarray) -> str:
    means = image.reshape(-1, 3).mean(axis=0)
    return (f"{name:<22s} mean RGB = ({means[0]:.3f}, {means[1]:.3f}, {means[2]:.3f}), "
            f"std = {image.std():.3f}")


def main() -> None:
    scene = SceneGenerator(image_size=64, num_classes=12, seed=0).generate(4)  # "ambulance"
    print("Scene statistics (ideal monitor image):")
    print("  " + describe("scene", scene))
    print()

    # ------------------------------------------------------------------ #
    # 1. The same scene captured by every device (hardware + software).
    # ------------------------------------------------------------------ #
    print("Captured by each device profile (sensor + its own ISP):")
    rng = np.random.default_rng(0)
    captures = {}
    for name, profile in DEVICE_PROFILES.items():
        raw = profile.sensor.capture_raw_batch(scene[None], rng)
        processed = ISPPipeline(profile.isp).process_batch(raw)[0]
        captures[name] = processed
        print("  " + describe(f"{name} ({profile.tier})", processed))
    print()

    # Pairwise distance between device captures = system-induced heterogeneity.
    names = list(captures)
    print("Largest pairwise differences (mean absolute pixel gap):")
    gaps = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            size = min(captures[a].shape[0], captures[b].shape[0])
            gap = float(np.abs(captures[a][:size, :size] - captures[b][:size, :size]).mean())
            gaps.append((gap, a, b))
    for gap, a, b in sorted(gaps, reverse=True)[:5]:
        print(f"  {a:>8s} vs {b:<8s}: {gap:.4f}")
    print()

    # ------------------------------------------------------------------ #
    # 2. One device's RAW capture processed by the three Table 3 pipelines.
    # ------------------------------------------------------------------ #
    pixel5 = DEVICE_PROFILES["Pixel5"]
    raw = pixel5.sensor.capture_raw_batch(scene[None], np.random.default_rng(1))
    print("The same Pixel5 RAW capture under the three Table 3 ISP configurations:")
    print("  " + describe("raw (no ISP)", raw_to_training_array_batch(raw)[0]))
    for config in (BASELINE_CONFIG, OPTION1_CONFIG, OPTION2_CONFIG):
        processed = ISPPipeline(config).process_batch(raw)[0]
        print("  " + describe(config.name, processed))
    print()
    print("Different ISP configurations render the identical sensor data into visibly"
          " different images — the software half of system-induced data heterogeneity.")


if __name__ == "__main__":
    main()
