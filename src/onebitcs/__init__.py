"""Sublinear-time sparse recovery from one-bit sign measurements.

Building blocks, coarsest to finest:

- ``partition_sketch``: decide from sign bits whether a part of a fixed
  partition holds a heavy hitter, and list all heavy parts at once.
- ``btree``: hierarchical interval partitions decoded by descent.
- ``expander``: coded layered names for small sparsity, reassembled by
  linking consistent names across layers.
- ``heavy_hitters``: bucket hashing that reduces any sparsity to the small
  regime and unions the per-bucket recoveries.
- ``recovery``: dense gaussian sign measurements and the l1/l2-constrained
  correlation maximizer; the full support-then-values pipeline.
- ``harness`` / ``cli``: deterministic Monte Carlo experiments with CSV
  reporting.
"""

from . import btree, expander, harness, heavy_hitters, recovery, serialize, signals
from . import partition_sketch
from .model import (
    SparseEstimate,
    TailStats,
    restrict,
    sign_scalar,
    sign_vector,
    tail_stats,
)
from .prf import RandomSource

__all__ = [
    "RandomSource",
    "SparseEstimate",
    "TailStats",
    "btree",
    "expander",
    "harness",
    "heavy_hitters",
    "partition_sketch",
    "recovery",
    "restrict",
    "serialize",
    "sign_scalar",
    "sign_vector",
    "signals",
    "tail_stats",
]
