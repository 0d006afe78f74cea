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

import numpy as np

from . import expander
from . import partition_sketch as ps
from .model import signal_nonzeros
from .prf import derive_key, uniform_index


@dataclass(frozen=True)
class HeavyHitterSchema:
    n: int
    k: int
    seed: int
    buckets: int  # 1 when the sparsity is small enough to skip bucketing
    bucket_of: np.ndarray | None  # None when buckets == 1
    sub_sparsity: int
    sub_schemas: tuple[expander.ExpanderSchema, ...]
    constants: ps.SketchConstants
    log_factor: float  # skip threshold: bucket only when k >= log_factor*log2(n)
    bucket_factor: float  # bucket count scale

    @property
    def total_rows(self) -> int:
        return sum(s.total_rows for s in self.sub_schemas)

    @property
    def cap(self) -> int:
        return self.constants.cap_factor * self.k


def build_schema(
    n: int,
    k: int,
    seed: int,
    constants: ps.SketchConstants = ps.SketchConstants(),
    log_factor: float = 1.0,
    bucket_factor: float = 1.0,
    **expander_kwargs,
) -> HeavyHitterSchema:
    """Bucketing layout plus one layered sketch per bucket.

    Bucketing is skipped entirely (one bucket, sub-sparsity k) when
    k < log_factor * log2(n); otherwise coordinates hash into
    ceil(bucket_factor * k / log2(n)) buckets and each sub-sketch is built
    for a log2(n) sparsity budget.
    """
    if n < 2 or k < 1 or k > n:
        raise ValueError(f"invalid (n={n}, k={k})")
    log_n = math.log2(n)
    if k < log_factor * log_n:
        buckets = 1
        sub_sparsity = k
        bucket_of = None
    else:
        buckets = max(1, math.ceil(bucket_factor * k / log_n))
        sub_sparsity = max(1, math.ceil(log_n))
        bucket_of = uniform_index(derive_key(seed, 7), np.arange(n), buckets)
    subs = tuple(
        expander.build_schema(
            n,
            sub_sparsity,
            seed=int(derive_key(seed, 600 + j)),
            constants=constants,
            log_factor=log_factor,
            **expander_kwargs,
        )
        for j in range(buckets)
    )
    return HeavyHitterSchema(
        n=n, k=k, seed=seed, buckets=buckets, bucket_of=bucket_of,
        sub_sparsity=sub_sparsity, sub_schemas=subs, constants=constants,
        log_factor=log_factor, bucket_factor=bucket_factor,
    )


def measure(schema: HeavyHitterSchema, x) -> list[tuple[expander.LayerBits, ...]]:
    return _measure(schema, *signal_nonzeros(x, schema.n))


def _measure(schema: HeavyHitterSchema, nz, vals) -> list[tuple[expander.LayerBits, ...]]:
    """``measure`` of the signal whose nonzeros ``vals`` sit at ``nz``: each
    bucket's sketch measures the nonzeros hashed to that bucket."""
    bucket = np.zeros_like(nz) if schema.bucket_of is None else schema.bucket_of[nz]
    return [
        expander._measure(sub_schema, nz[bucket == j], vals[bucket == j])
        for j, sub_schema in enumerate(schema.sub_schemas)
    ]


def decode(
    schema: HeavyHitterSchema,
    bucket_bits: list[tuple[expander.LayerBits, ...]],
) -> tuple[np.ndarray, np.ndarray, list[expander.RecoveryDiagnostics]]:
    """Union of per-bucket recoveries, capped at cap_factor * k by score."""
    if len(bucket_bits) != schema.buckets:
        raise ValueError("bucket bit count does not match schema")
    coords_all = []
    scores_all = []
    diags = []
    for sub_schema, bits in zip(schema.sub_schemas, bucket_bits):
        coords, scores, diag = expander.recover(sub_schema, bits)
        coords_all.append(coords)
        scores_all.append(scores)
        diags.append(diag)
    coords = np.concatenate(coords_all) if coords_all else np.empty(0, dtype=np.int64)
    scores = np.concatenate(scores_all) if scores_all else np.empty(0)
    if coords.size:
        # coordinates live in disjoint buckets, but guard against duplicates
        order = np.lexsort((-scores, coords))
        coords, scores = coords[order], scores[order]
        first = np.concatenate([[True], np.diff(coords) != 0])
        coords, scores = coords[first], scores[first]
    if coords.size > schema.cap:
        order = np.lexsort((coords, -scores))[: schema.cap]
        keep = np.sort(order)
        coords, scores = coords[keep], scores[keep]
    return coords, scores, diags
