"""Sparsity reduction by bucket hashing, wrapping the layered sketch.

When the sparsity budget is at least a logarithm of the dimension, the
coordinates are hashed into roughly k / log2(n) buckets so that each bucket
only needs to catch its own log2(n)-sized share of heavy hitters; each
bucket gets an independent layered sketch over the full coordinate domain,
applied to the restriction of the signal to that bucket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expander
from . import partition_sketch as ps
from .model import integer, positive_int, signal_nonzeros
from .prf import derive_key, uniform_index

# buckets per unit of k / log2(n), rounded up: one below expander.max_sparsity(n)
BUCKET_FACTOR = 1.0


@dataclass(frozen=True)
class HeavyHitterSchema:
    n: int
    k: int
    seed: int
    buckets: int  # 1 when the sparsity is small enough to skip bucketing
    sub_sparsity: int
    sub_schemas: tuple[expander.ExpanderSchema, ...]
    constants: ps.SketchConstants

    @property
    def total_rows(self) -> int:
        return sum(s.total_rows for s in self.sub_schemas)

    @property
    def cap(self) -> int:
        return self.constants.cap_factor * self.k

    @cached_property
    def bucket_key(self) -> np.uint64:
        return derive_key(self.seed, 7)

    @property
    def bucket_of(self) -> np.ndarray | None:
        """Every coordinate's bucket, built on each read, or None below the
        layered sketch's limit; the measure hashes its nonzeros only."""
        if self.k < expander.max_sparsity(self.n):
            return None
        return uniform_index(self.bucket_key, np.arange(self.n), self.buckets)


def build_schema(
    n: int,
    k: int,
    seed: int,
    constants: ps.SketchConstants = ps.SketchConstants(),
) -> HeavyHitterSchema:
    """Bucketing layout plus one layered sketch per bucket.

    Coordinates hash into ceil(BUCKET_FACTOR * k / log2(n)) buckets, each
    with a layered sketch for sparsity min(k, ``expander.max_sparsity(n)``).
    Below that limit this is one bucket of sparsity k: no bucketing.
    """
    n, k, seed = positive_int(n, "n"), positive_int(k, "k"), integer(seed, "seed")
    if n < 2 or k > n:
        raise ValueError(f"invalid (n={n}, k={k})")
    buckets = max(1, math.ceil(BUCKET_FACTOR * k / math.log2(n)))
    sub_sparsity = min(k, expander.max_sparsity(n))
    subs = tuple(
        expander.build_schema(n, sub_sparsity, seed=int(derive_key(seed, 600 + j)),
                              constants=constants)
        for j in range(buckets)
    )
    return HeavyHitterSchema(
        n=n, k=k, seed=seed, buckets=buckets,
        sub_sparsity=sub_sparsity, sub_schemas=subs, constants=constants,
    )


def measure(schema: HeavyHitterSchema, x) -> list[tuple[expander.LayerBits, ...]]:
    return _measure(schema, *signal_nonzeros(x, schema.n))


def _measure(schema: HeavyHitterSchema, nz, vals) -> list[tuple[expander.LayerBits, ...]]:
    """``measure`` of the signal whose nonzeros ``vals`` sit at ``nz``: each
    bucket's sketch measures the nonzeros hashed to that bucket."""
    bucket = uniform_index(schema.bucket_key, nz, schema.buckets)
    return [
        expander._measure(sub_schema, nz[bucket == j], vals[bucket == j])
        for j, sub_schema in enumerate(schema.sub_schemas)
    ]


def decode(
    schema: HeavyHitterSchema,
    bucket_bits: list[tuple[expander.LayerBits, ...]],
) -> tuple[np.ndarray, np.ndarray, list[expander.RecoveryDiagnostics]]:
    """Union of per-bucket recoveries, each coordinate with its best score,
    capped at cap_factor * k by score (``ps.cap_by_score``)."""
    if len(bucket_bits) != schema.buckets:
        raise ValueError("bucket bit count does not match schema")
    coords, scores, diags = zip(*(
        expander.recover(sub_schema, bits)
        for sub_schema, bits in zip(schema.sub_schemas, bucket_bits)
    ))
    coords, scores = ps.cap_by_score(np.concatenate(coords), np.concatenate(scores), schema.cap)
    return coords, scores, list(diags)
