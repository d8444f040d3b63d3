"""State-dict comparators for the test suites.

:func:`states_equal` pins the bitwise guarantees (cross-backend, resume,
oracle); :func:`states_allclose` compares a float32 run with its float64
twin and reports how far each entry drifted.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

StateDict = Dict[str, np.ndarray]


def states_equal(a: StateDict, b: StateDict) -> bool:
    """Exact (bitwise) equality of two state dicts.

    The cross-backend determinism guarantee of :mod:`repro.fl.execution` is
    *bit-identical* weights, so entries are compared by their raw bytes: equal
    NaNs compare equal, and ``+0.0`` / ``-0.0`` compare different — unlike
    value comparison, which would make the guarantee vacuous at those points.
    """
    if a.keys() != b.keys():
        return False
    for key in a:
        x, y = np.asarray(a[key]), np.asarray(b[key])
        if x.shape != y.shape or x.dtype != y.dtype or x.tobytes() != y.tobytes():
            return False
    return True


def _ulp_keys(arr: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Map float bits to monotonically increasing unsigned keys.

    The standard IEEE-754 total-order transform: flip all bits of negatives,
    set the top bit of non-negatives.  Adjacent representable floats land on
    adjacent keys, so a key difference *is* the ULP distance.
    """
    utype = np.uint32 if dtype == np.dtype(np.float32) else np.uint64
    bits = np.ascontiguousarray(arr, dtype=dtype).view(utype)
    top = utype(1) << utype(utype().itemsize * 8 - 1)
    return np.where(bits & top, ~bits, bits | top)


def _max_ulp(x: np.ndarray, y: np.ndarray) -> int:
    """Largest per-element ULP distance between two same-shape float arrays."""
    if x.size == 0:
        return 0
    dtype = np.promote_types(x.dtype, y.dtype)
    if dtype != np.dtype(np.float32):
        dtype = np.dtype(np.float64)
    kx, ky = _ulp_keys(x, dtype), _ulp_keys(y, dtype)
    return int((np.maximum(kx, ky) - np.minimum(kx, ky)).max())


def states_allclose(
    a: StateDict, b: StateDict, rtol: float = 1e-5, atol: float = 1e-8
) -> bool:
    """Tolerance-based state equality for cross-precision comparisons.

    The float32 engine cannot promise the bitwise identity
    :func:`states_equal` pins for the float64 golden path, so the float32
    equivalence suites compare against the float64 run with this helper
    instead.  Keys must match exactly (KeyError otherwise) and every entry's
    shape must match (ValueError); entries are then compared with
    ``np.allclose`` under ``rtol``/``atol``.  Returns ``True`` when all
    entries are within tolerance; raises ``AssertionError`` carrying a
    per-key report — max absolute error, max relative error and max ULP
    distance — for every entry that is not, so a failing equivalence test
    says *how far* the precisions drifted, not just that they did.
    """
    if a.keys() != b.keys():
        raise KeyError(f"state dicts have mismatched keys: {sorted(set(a) ^ set(b))[:5]}")
    failures = []
    for key in a:
        x, y = np.asarray(a[key]), np.asarray(b[key])
        if x.shape != y.shape:
            raise ValueError(
                f"shape mismatch for '{key}': {x.shape} vs {y.shape}"
            )
        if np.allclose(x, y, rtol=rtol, atol=atol):
            continue
        xf = x.astype(np.float64)
        yf = y.astype(np.float64)
        abs_err = np.abs(xf - yf)
        with np.errstate(divide="ignore", invalid="ignore"):
            rel_err = np.where(abs_err > 0.0, abs_err / np.abs(yf), 0.0)
        failures.append(
            f"'{key}': max abs err {abs_err.max():.3e}, "
            f"max rel err {np.nanmax(rel_err):.3e}, "
            f"max ulp {_max_ulp(x, y)}"
        )
    if failures:
        raise AssertionError(
            f"states differ beyond rtol={rtol:g} atol={atol:g}:\n  "
            + "\n  ".join(failures)
        )
    return True
