"""Persistent on-disk store of experiment runs: manifests, checkpoints, results.

A :class:`RunStore` owns a root directory with one subdirectory per
``(spec, seed)`` run::

    <root>/
      <strategy>-<dataset>-<spec_hash[:10]>-seed<seed>/
        manifest.json          # spec JSON, spec hash, versions, env fingerprint
        checkpoints/
          round_00005.npz      # periodic snapshots (crash-safe, atomic)
          final.npz            # snapshot at run end
        result.json            # completed run: metrics, history, fingerprint

The run directory is keyed by a sha256 hash of the spec's *result-affecting*
fields: seeds are factored out (one directory per seed) and ``name`` /
``executor`` / ``max_workers`` are excluded because they change labels and
wall clock, never results — so a run checkpointed under the serial executor
resumes under the shm executor and still finishes bit-identical.

Completion writes in crash-safe order — final checkpoint, then
``result.json``, then the manifest flips to ``completed`` — each via
atomic-replace, so a run killed at *any* point either resumes from its last
checkpoint or is already complete; no intermediate state is ever observed.

Every manifest and result is stamped with :data:`STORE_FORMAT_VERSION` and
the library version; resuming across an incompatible format raises
:class:`StoreVersionError` with instructions rather than corrupting the run.
"""

from __future__ import annotations

import hashlib
import json
import platform
import re
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional

import numpy as np

from .. import __version__
from ..io import atomic_write
from ..nn.serialization import state_fingerprint
from .checkpoint import read_checkpoint

if TYPE_CHECKING:  # pragma: no cover - type-only imports (no runtime cycle)
    from ..fl.simulation import FLHistory
    from ..runtime.spec import RunSpec

__all__ = [
    "STORE_FORMAT_VERSION",
    "RunStoreError",
    "StoreVersionError",
    "spec_hash",
    "env_fingerprint",
    "run_fingerprint",
    "RunEntry",
    "RunStore",
]

# Bump whenever the manifest/result layout changes incompatibly.
STORE_FORMAT_VERSION = 1

# Spec fields that do not affect a run's numbers: excluded from the run key so
# relabeling a spec or switching execution backend finds the same run.
_RESULT_NEUTRAL_FIELDS = ("seeds", "name", "executor", "max_workers")

# Dataset-builder kwargs that only change build cost, never the data (cache
# hits are bitwise-identical to rebuilds), so a run started without a capture
# cache resumes cleanly with one and vice versa.
_RESULT_NEUTRAL_DATASET_KWARGS = ("capture_cache",)

# Config overrides that only turn observation on or off (repro.obs tracing and
# per-kernel profiling) — timing never feeds back into results, so a traced
# run shares its directory and fingerprint with the untraced one.
_RESULT_NEUTRAL_CONFIG_OVERRIDES = ("profile", "trace")

_CHECKPOINT_PATTERN = re.compile(r"^round_(\d+)\.npz$")


class RunStoreError(Exception):
    """The run store could not complete an operation."""


class StoreVersionError(RunStoreError):
    """A manifest or result was written under an incompatible format version."""


def spec_hash(spec: "RunSpec") -> str:
    """sha256 of the spec's result-affecting fields (canonical JSON)."""
    data = spec.to_dict()
    for field_name in _RESULT_NEUTRAL_FIELDS:
        data.pop(field_name, None)
    dataset_kwargs = data.get("dataset_kwargs")
    if isinstance(dataset_kwargs, dict):
        for kwarg in _RESULT_NEUTRAL_DATASET_KWARGS:
            dataset_kwargs.pop(kwarg, None)
    config_overrides = data.get("config_overrides")
    if isinstance(config_overrides, dict):
        for key in _RESULT_NEUTRAL_CONFIG_OVERRIDES:
            config_overrides.pop(key, None)
    blob = json.dumps(data, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def env_fingerprint() -> Dict[str, str]:
    """The environment facts a resumed run should match (informational)."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def run_fingerprint(state: Dict[str, np.ndarray], metrics: Dict[str, float]) -> str:
    """sha256 digest of a finished run: final weights plus final metrics.

    Two runs have equal fingerprints exactly when their final global weights
    are bitwise identical and their per-device metrics are equal — the
    headline resume guarantee, checkable without shipping weights around.
    """
    digest = hashlib.sha256()
    digest.update(state_fingerprint(state).encode("ascii"))
    digest.update(json.dumps(metrics, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


def _write_json_atomic(path: Path, payload: Dict[str, Any]) -> None:
    with atomic_write(path, mode="w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


class RunEntry:
    """Handle to one run's directory inside a :class:`RunStore`."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.run_id = self.path.name

    # -- layout --------------------------------------------------------- #
    @property
    def manifest_path(self) -> Path:
        return self.path / "manifest.json"

    @property
    def checkpoint_dir(self) -> Path:
        return self.path / "checkpoints"

    @property
    def result_path(self) -> Path:
        return self.path / "result.json"

    # Observability artifacts (repro.obs exporters).  Result-neutral: they
    # never enter the spec hash or the run fingerprint.
    @property
    def trace_path(self) -> Path:
        return self.path / "trace.json"

    @property
    def events_path(self) -> Path:
        return self.path / "events.jsonl"

    @property
    def obs_summary_path(self) -> Path:
        return self.path / "obs_summary.json"

    # -- manifest ------------------------------------------------------- #
    def manifest(self) -> Dict[str, Any]:
        """Load and version-check the manifest."""
        if not self.manifest_path.exists():
            raise RunStoreError(f"run '{self.run_id}' has no manifest "
                                f"({self.manifest_path} missing)")
        data = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        version = data.get("format_version")
        if version != STORE_FORMAT_VERSION:
            raise StoreVersionError(
                f"run '{self.run_id}' was written under store format version "
                f"{version} (repro {data.get('repro_version', '?')}); this "
                f"library reads format version {STORE_FORMAT_VERSION} "
                f"(repro {__version__}). Refusing to resume — point --store at "
                f"a fresh directory or delete the stale run."
            )
        return data

    def update_manifest(self, **fields: Any) -> Dict[str, Any]:
        """Merge ``fields`` into the manifest (atomic replace)."""
        data = self.manifest()
        data.update(fields)
        data["updated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        _write_json_atomic(self.manifest_path, data)
        return data

    # -- checkpoints ----------------------------------------------------- #
    def checkpoints(self) -> List[Path]:
        """Periodic checkpoints, oldest first (``final.npz`` excluded)."""
        if not self.checkpoint_dir.is_dir():
            return []
        entries = []
        for entry in self.checkpoint_dir.iterdir():
            match = _CHECKPOINT_PATTERN.match(entry.name)
            if match:
                entries.append((int(match.group(1)), entry))
        return [path for _, path in sorted(entries)]

    def checkpoint_files(self) -> List[Path]:
        """Every snapshot on disk: periodic (oldest first), then ``final.npz``."""
        files = self.checkpoints()
        final = self.checkpoint_dir / "final.npz"
        if final.exists():
            files.append(final)
        return files

    def latest_checkpoint(self) -> Optional[Path]:
        """The most advanced snapshot on disk: ``final.npz`` if present,
        else the highest-round periodic checkpoint, else ``None``."""
        final = self.checkpoint_dir / "final.npz"
        if final.exists():
            return final
        periodic = self.checkpoints()
        return periodic[-1] if periodic else None

    def load_checkpoint(self, path: Optional[Path] = None) -> Optional[Dict[str, Any]]:
        """Read a snapshot tree (default: the latest), or ``None`` if none exist."""
        path = path if path is not None else self.latest_checkpoint()
        if path is None:
            return None
        tree, _ = read_checkpoint(path)
        return tree

    # -- results --------------------------------------------------------- #
    def has_result(self) -> bool:
        return self.result_path.exists()

    def save_result(self, history: "FLHistory",
                    final_state: Optional[Dict[str, np.ndarray]] = None) -> Dict[str, Any]:
        """Persist a completed run: result JSON, then manifest ``completed``.

        ``final_state`` defaults to the weights in the run's final checkpoint
        (written by the checkpoint callback at run end); the fingerprint ties
        the stored result to those exact bytes.
        """
        if final_state is None:
            snapshot = self.load_checkpoint()
            if snapshot is None:
                raise RunStoreError(
                    f"run '{self.run_id}' has no final checkpoint to fingerprint; "
                    f"attach the 'checkpoint' callback or pass final_state"
                )
            final_state = snapshot["global_state"]
        payload = {
            "format_version": STORE_FORMAT_VERSION,
            "repro_version": __version__,
            "run_id": self.run_id,
            "metrics": dict(history.per_device_metric),
            "history": history.to_dict(),
            "fingerprint": run_fingerprint(final_state, history.per_device_metric),
        }
        _write_json_atomic(self.result_path, payload)
        rounds_done = (history.rounds[-1].round_index + 1) if history.rounds else 0
        self.update_manifest(status="completed", rounds_completed=rounds_done,
                             fingerprint=payload["fingerprint"])
        return payload

    def load_result(self) -> Dict[str, Any]:
        """Read a completed run's result record (version-checked)."""
        if not self.has_result():
            raise RunStoreError(f"run '{self.run_id}' has no result.json "
                                f"(status: {self.status()})")
        data = json.loads(self.result_path.read_text(encoding="utf-8"))
        version = data.get("format_version")
        if version != STORE_FORMAT_VERSION:
            raise StoreVersionError(
                f"result for run '{self.run_id}' uses store format version "
                f"{version}; this library reads {STORE_FORMAT_VERSION}"
            )
        return data

    # -- convenience ----------------------------------------------------- #
    def status(self) -> str:
        try:
            return str(self.manifest().get("status", "unknown"))
        except RunStoreError:
            return "unknown"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunEntry({self.run_id!r})"


class RunStore:
    """Directory of persistent runs, keyed by ``(spec hash, seed)``."""

    def __init__(self, root) -> None:
        self.root = Path(root)

    # -- keys ------------------------------------------------------------ #
    @staticmethod
    def run_id(spec: "RunSpec", seed: int) -> str:
        # Both federated kinds key by strategy (the names are disjoint);
        # centralized runs have no strategy and key by kind.
        prefix = spec.kind if spec.kind == "centralized" else spec.strategy
        return f"{prefix}-{spec.dataset}-{spec_hash(spec)[:10]}-seed{seed}"

    # -- lifecycle -------------------------------------------------------- #
    def open_run(self, spec: "RunSpec", seed: int,
                 extra: Optional[Dict[str, Any]] = None) -> RunEntry:
        """Create (or re-open) the run directory for ``(spec, seed)``.

        A fresh run gets a manifest stamped with the spec JSON, its hash, the
        store/library versions and the environment fingerprint.  Re-opening
        validates the manifest's format version and spec hash, so a stale or
        foreign directory fails loudly instead of being silently resumed.
        """
        entry = RunEntry(self.root / self.run_id(spec, seed))
        entry.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        digest = spec_hash(spec)
        if entry.manifest_path.exists():
            manifest = entry.manifest()  # raises StoreVersionError if stale
            if manifest.get("spec_hash") != digest:
                raise RunStoreError(
                    f"run directory '{entry.run_id}' belongs to a different "
                    f"spec (hash {manifest.get('spec_hash')!r} != {digest!r})"
                )
            if extra:
                entry.update_manifest(**extra)
            return entry
        manifest = {
            "format_version": STORE_FORMAT_VERSION,
            "repro_version": __version__,
            "run_id": entry.run_id,
            "spec_hash": digest,
            "seed": seed,
            "spec": spec.to_dict(),
            "env": env_fingerprint(),
            "status": "running",
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            **(extra or {}),
        }
        _write_json_atomic(entry.manifest_path, manifest)
        return entry

    # -- lookup ----------------------------------------------------------- #
    def get(self, run_id: str) -> RunEntry:
        """Fetch an existing run by id; unknown ids list what is available."""
        entry = RunEntry(self.root / run_id)
        if not entry.manifest_path.exists():
            available = [e.run_id for e in self.list_runs()]
            raise RunStoreError(
                f"no run '{run_id}' in store {self.root}; available: {available}"
            )
        return entry

    def list_runs(self) -> List[RunEntry]:
        """Every run directory under the root (sorted by run id)."""
        if not self.root.is_dir():
            return []
        return [RunEntry(path) for path in sorted(self.root.iterdir())
                if (path / "manifest.json").exists()]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunStore({str(self.root)!r})"
