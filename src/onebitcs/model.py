"""Exact signal-domain definitions used as ground truth by every decoder test.

These are the non-sketch reference computations: the sign convention, the
tail/heavy-hitter decomposition, and coordinate restriction.  Decoders are
judged against these, never against their own sketches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def sign_scalar(theta: float) -> int:
    """Sign with the convention sign(0) = +1. Rejects non-finite input."""
    if not np.isfinite(theta):
        raise ValueError(f"sign of non-finite value {theta!r}")
    return 1 if theta >= 0 else -1


def sign_vector(values) -> np.ndarray:
    """Elementwise sign with sign(0) = +1, as int8."""
    v = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError("sign of non-finite vector")
    return np.where(v >= 0, 1, -1).astype(np.int8)


def as_signal(x) -> np.ndarray:
    """Validate a 1-D real signal with finite entries."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"signal must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("signal has non-finite entries")
    return arr


def as_indices(values, size: int, what: str) -> np.ndarray:
    """``values`` as an int64 array of their shape.  A dtype other than a
    signed or unsigned integer (bool included) or an entry outside
    [0, size) raises ``ValueError``; an empty list, which numpy types as
    float, passes."""
    idx = np.asarray(values)
    if idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, not {idx.dtype}")
    idx = idx.astype(np.int64, copy=False)
    if idx.size and (idx.min() < 0 or idx.max() >= size):
        raise ValueError(f"{what} out of range [0, {size})")
    return idx


def integer(value, what: str) -> int:
    """``value`` as an int when it is a Python or numpy integer (bool is
    neither); anything else raises ``ValueError`` naming ``what``."""
    if type(value) is int or isinstance(value, np.integer):
        return int(value)
    raise ValueError(f"{what} must be an integer, not {value!r}")


def positive_int(value, what: str) -> int:
    """``value`` as an int when it is a Python or numpy integer (bool is
    neither) of at least 1; anything else raises ``ValueError`` naming ``what``."""
    if (type(value) is int or isinstance(value, np.integer)) and value >= 1:
        return int(value)
    raise ValueError(f"{what} must be a positive integer, not {value!r}")


def bits_list(bits, count: int, what: str):
    """``bits`` if it is a list or tuple of ``count`` entries, else ``ValueError``."""
    if not (isinstance(bits, (list, tuple)) and len(bits) == count):
        got = len(bits) if isinstance(bits, (list, tuple)) else type(bits).__name__
        raise ValueError(f"{what} bits must be a list or tuple of {count}, not {got}")
    return bits


def signal_nonzeros(x, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Validate a signal of length n; its nonzero coordinates, ascending, and
    their values: the one scan of x each measure takes and hands down."""
    x = as_signal(x)
    if x.shape != (n,):
        raise ValueError(f"signal shape {x.shape} does not match n={n}")
    nz = np.flatnonzero(x)
    return nz, x[nz]


@dataclass(frozen=True)
class TailStats:
    """Energy outside the k largest entries, and the heavy-hitter set."""

    tail_sq: float
    heavy: np.ndarray  # sorted coordinate indices


def head_indices(x, k: int) -> np.ndarray:
    """Indices of the k largest-magnitude entries; ties go to lower index."""
    x = as_signal(x)
    if not 1 <= k <= x.size:
        raise ValueError(f"k={k} out of range for signal of length {x.size}")
    # stable sort on descending magnitude keeps lower indices first among ties
    order = np.argsort(-np.abs(x), kind="stable")
    return np.sort(order[:k])


def tail_stats(x, k: int) -> TailStats:
    """Tail energy after removing the top-k entries, plus the heavy set.

    A coordinate is heavy when its squared value is at least tail_sq / k.
    When the tail is identically zero that test would mark every coordinate,
    so the heavy set degenerates to the support of x.  The comparison is done
    on entries rescaled by the largest tail magnitude, which is equivalent in
    exact arithmetic and immune to underflow of squared tiny entries.
    """
    x = as_signal(x)
    head = head_indices(x, k)
    mask = np.ones(x.size, dtype=bool)
    mask[head] = False
    tail = x[mask]
    scale = float(np.max(np.abs(tail))) if tail.size else 0.0
    tail_sq = float(np.sum(tail**2))
    if scale == 0.0:
        heavy = np.nonzero(x)[0]
    else:
        with np.errstate(over="ignore"):
            scaled_sq = (x / scale) ** 2  # head entries may overflow to inf
            threshold = float(np.sum((tail / scale) ** 2)) / k
            heavy = np.nonzero(scaled_sq >= threshold)[0]
    return TailStats(tail_sq=tail_sq, heavy=heavy)


def restrict(x, indices) -> np.ndarray:
    """Zero out every coordinate not listed in ``indices``."""
    x = as_signal(x)
    idx = as_indices(sorted(indices), x.size, "restriction index")
    out = np.zeros_like(x)
    out[idx] = x[idx]
    return out


@dataclass(frozen=True)
class SparseEstimate:
    """A sparse estimate as (index, value) pairs with a sparsity budget."""

    indices: np.ndarray
    values: np.ndarray
    sparsity_bound: int

    def __post_init__(self):
        idx = np.asarray(self.indices)
        if idx.size and idx.dtype.kind not in "iu":
            raise ValueError(f"estimate indices must be integers, not {idx.dtype}")
        idx = idx.astype(np.int64, copy=False)
        val = np.asarray(self.values, dtype=np.float64)
        if idx.shape != val.shape or idx.ndim != 1:
            raise ValueError("indices and values must be matching 1-D arrays")
        if idx.size and idx.min() < 0:
            raise ValueError("estimate indices must be nonnegative")
        if idx.size != np.unique(idx).size:
            raise ValueError("estimate indices must be distinct")
        if idx.size > self.sparsity_bound:
            raise ValueError(
                f"{idx.size} entries exceed sparsity bound {self.sparsity_bound}"
            )
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    def to_dense(self, n: int) -> np.ndarray:
        if self.indices.size and self.indices.max() >= n:
            raise ValueError("estimate index out of range for requested length")
        out = np.zeros(n)
        out[self.indices] = self.values
        return out
