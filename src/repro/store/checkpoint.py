"""Crash-safe ``.npz`` checkpoint codec for simulation snapshots.

A checkpoint is one file holding an arbitrary *state tree*: nested dicts and
lists whose leaves are NumPy arrays or JSON scalars — exactly the shape of
:meth:`repro.fl.simulation.BaseSimulation.snapshot`.  Arrays are stored
as ordinary ``.npy`` members of the archive (dtype, shape and raw bytes
preserved exactly); everything else lives in an embedded JSON manifest whose
floats round-trip bit-exactly through Python's ``repr``-based JSON encoder.
Integer dict keys (per-client storage) survive because dicts are encoded as
``[key, value]`` pair lists rather than JSON objects.

Writes go to a temporary sibling and are moved into place with
:func:`os.replace`, so a crash — the scenario the run store exists for —
never leaves a truncated checkpoint behind: readers see the previous complete
file or none at all.

Every checkpoint records :data:`CHECKPOINT_FORMAT_VERSION` and the library
version; :func:`read_checkpoint` refuses to load an incompatible format with
a :class:`CheckpointVersionError` instead of mis-deserializing it.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Tuple

import numpy as np

from .. import __version__
from ..io import atomic_write

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointError",
    "CheckpointVersionError",
    "write_checkpoint",
    "read_checkpoint",
]

# Bump whenever the encoded tree layout changes incompatibly; readers refuse
# to load checkpoints written under a different format version.
CHECKPOINT_FORMAT_VERSION = 1

_META_KEY = "__checkpoint_meta__"


class CheckpointError(Exception):
    """A checkpoint file could not be written or read."""


class CheckpointVersionError(CheckpointError):
    """The checkpoint was written under an incompatible format version."""


def _encode(node: Any, arrays: Dict[str, np.ndarray]) -> Any:
    """Encode a state-tree node into JSON-safe form, hoisting arrays out."""
    if isinstance(node, np.ndarray):
        name = f"arr_{len(arrays)}"
        arrays[name] = np.asarray(node)
        return {"__ndarray__": name}
    if isinstance(node, np.generic):
        # NumPy scalars keep their dtype by travelling as 0-d arrays.
        name = f"arr_{len(arrays)}"
        arrays[name] = np.asarray(node)
        return {"__ndarray__": name, "scalar": True}
    if isinstance(node, dict):
        items = []
        for key, value in node.items():
            if not isinstance(key, (str, int)) or isinstance(key, bool):
                raise CheckpointError(
                    f"checkpoint dict keys must be str or int, got {key!r}"
                )
            items.append([key, _encode(value, arrays)])
        return {"__dict__": items}
    if isinstance(node, (list, tuple)):
        return {"__list__": [_encode(value, arrays) for value in node]}
    if node is None or isinstance(node, (bool, int, float, str)):
        return node
    raise CheckpointError(
        f"cannot checkpoint value of type {type(node).__name__}: {node!r}"
    )


def _decode(node: Any, archive) -> Any:
    """Inverse of :func:`_encode`, resolving array references lazily."""
    if isinstance(node, dict):
        if "__ndarray__" in node:
            value = np.asarray(archive[node["__ndarray__"]])
            return value[()] if node.get("scalar") else value
        if "__dict__" in node:
            return {key: _decode(value, archive) for key, value in node["__dict__"]}
        if "__list__" in node:
            return [_decode(value, archive) for value in node["__list__"]]
        raise CheckpointError(f"malformed checkpoint node: {sorted(node)}")
    return node


def write_checkpoint(path, tree: Dict[str, Any],
                     extra_meta: Dict[str, Any] | None = None) -> None:
    """Atomically persist a state tree (plus optional JSON metadata) to ``path``."""
    arrays: Dict[str, np.ndarray] = {}
    meta = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "repro_version": __version__,
        "meta": dict(extra_meta or {}),
        "state": _encode(tree, arrays),
    }
    meta_blob = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with atomic_write(path) as handle:
        np.savez(handle, **arrays, **{_META_KEY: meta_blob})


def read_checkpoint(path) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Load a checkpoint, returning ``(state_tree, meta)``.

    ``meta`` carries ``format_version``, ``repro_version`` and whatever
    ``extra_meta`` the writer attached.  Raises
    :class:`CheckpointVersionError` when the file's format version differs
    from this library's :data:`CHECKPOINT_FORMAT_VERSION`.
    """
    with np.load(os.fspath(path), allow_pickle=False) as archive:
        if _META_KEY not in archive.files:
            raise CheckpointError(f"{path} is not a repro checkpoint (no manifest)")
        meta = json.loads(bytes(archive[_META_KEY]).decode("utf-8"))
        version = meta.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointVersionError(
                f"checkpoint {path} uses format version {version} (written by "
                f"repro {meta.get('repro_version', '?')}); this library reads "
                f"format version {CHECKPOINT_FORMAT_VERSION} (repro {__version__}). "
                f"Re-run without --resume to start fresh."
            )
        tree = _decode(meta["state"], archive)
    return tree, {"format_version": version,
                  "repro_version": meta.get("repro_version"),
                  **meta.get("meta", {})}
