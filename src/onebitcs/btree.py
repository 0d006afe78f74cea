"""One-bit b-tree: coarse-to-fine interval partitions with point-query descent.

Level r partitions [n] into contiguous intervals of width ceil(n / (k b^r)).
The root level is decoded exhaustively with the count-sketch decoder; each
finer level is decoded by point-querying only the children of the parts that
survived the previous level, so decoding touches O(b k) parts per level
instead of the whole partition.

The levels nest, so they are measured in one pass that shares one gaussian
weight per (repetition, coordinate) across all of them, drawn with the root
level's key (``partition_sketch.measure_nested``); each level keeps its own
bucket hashes and signs.  Every level on its own has exactly the row
distribution of an independently drawn sketch, and the decoder's guarantee
is a union bound over the point queries of all levels, which needs no
independence between levels.  So the shared draw keeps the failure bound
while the gaussians cost one draw, not one per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import partition_sketch as ps
from .model import as_indices
from .prf import derive_key


@dataclass(frozen=True)
class BTreeLevel:
    starts: np.ndarray  # interval start positions, strictly increasing
    schema: ps.PointQuerySchema


@dataclass(frozen=True)
class BTreeSchema:
    n: int
    k: int
    b: int
    delta: float
    seed: int
    depth: int  # levels are 0..depth inclusive
    levels: tuple[BTreeLevel, ...]
    constants: ps.SketchConstants

    @property
    def total_rows(self) -> int:
        return sum(level.schema.rows for level in self.levels)

    @property
    def cap(self) -> int:
        return self.constants.cap_factor * self.k

    def children(self, level: int, parts) -> np.ndarray:
        """Parts of ``level``+1 contained in the given part(s) of ``level``,
        parent by parent: one searchsorted over the parents' interval bounds.
        A level outside [0, depth), which has no child level, or a part that
        is not the integer index of a ``level`` part raises ``ValueError``."""
        if not 0 <= level < self.depth:
            raise ValueError(f"level {level} has no child level: need 0 <= level < {self.depth}")
        starts = self.levels[level].starts
        parts = np.atleast_1d(as_indices(parts, starts.size, f"level-{level} part"))
        bounds = np.append(starts, self.n)
        first, last = np.searchsorted(self.levels[level + 1].starts, bounds[[parts, parts + 1]])
        counts = last - first
        return np.repeat(first - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


@dataclass(frozen=True)
class BTreeDecodeResult:
    indices: np.ndarray
    point_queries: int
    bit_reads: int
    per_level_survivors: tuple[int, ...]


def _level_starts(n: int, k: int, b: int, depth: int) -> list[np.ndarray]:
    """Interval starts for levels 0..depth, nested by construction.

    Each level-r part is split independently into children of width
    ceil(n / (k b^{r+1})), so a child never straddles two parents even when
    the widths do not divide evenly; with power-of-two friendly parameters
    this coincides with the uniform global grid.
    """
    width0 = -(-n // k)
    levels = [np.arange(0, n, width0, dtype=np.int64)]
    for r in range(1, depth + 1):
        width = max(1, -(-n // (k * b**r)))
        prev = levels[-1]
        # parent p has ceil(len_p / width) children at prev[p] + j * width;
        # child number c = first[p] + j sits at prev[p] - first[p] * width + c * width
        counts = -(-np.diff(prev, append=n) // width)
        first = np.cumsum(counts) - counts
        child = np.arange(int(counts.sum()), dtype=np.int64)
        child *= width
        child += np.repeat(prev - first * width, counts)
        levels.append(child)
    return levels


def build_schema(
    n: int,
    k: int,
    b: int,
    delta: float,
    seed: int,
    constants: ps.SketchConstants = ps.SketchConstants(),
) -> BTreeSchema:
    """Lay out every level's partition sketch.

    Depth is the smallest R with k * b^R >= n; every level reuses the same
    per-level failure target delta / (b k R) so a union bound over all point
    queries made during descent yields overall failure delta.
    """
    if not 2 <= b <= n:
        raise ValueError(f"branching factor must be in [2, n], got b={b}")
    if not 1 <= k <= n:
        raise ValueError(f"sparsity must be in [1, n], got k={k}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    # smallest depth with k * b**depth >= n; guard both ways against float log
    depth = max(0, math.ceil(math.log(n / k, b))) if k < n else 0
    while k * b**depth < n:
        depth += 1
    while depth > 0 and k * b ** (depth - 1) >= n:
        depth -= 1
    level_delta = delta / (b * k * max(depth, 1))
    starts = _level_starts(n, k, b, depth)
    levels = []
    for r, st in enumerate(starts):
        part = ps.PartitionFamily(n=n, size=st.size, starts=st)
        schema = ps.build_schema(
            part, k, level_delta, seed=int(derive_key(seed, 100 + r)), constants=constants
        )
        levels.append(BTreeLevel(starts=st, schema=schema))
    return BTreeSchema(
        n=n, k=k, b=b, delta=delta, seed=seed, depth=depth,
        levels=tuple(levels), constants=constants,
    )


def measure(schema: BTreeSchema, x) -> list[ps.SketchBits]:
    """Sign measurements for every level, root first, from one shared
    gaussian draw."""
    return ps.measure_nested([level.schema for level in schema.levels], x)


def build_and_measure(
    x, n: int, k: int, b: int, delta: float, seed: int,
    constants: ps.SketchConstants = ps.SketchConstants(),
) -> tuple[BTreeSchema, list[ps.SketchBits]]:
    schema = build_schema(n, k, b, delta, seed, constants)
    return schema, measure(schema, x)


def decode(schema: BTreeSchema, level_bits: list[ps.SketchBits]) -> BTreeDecodeResult:
    """Descend the tree and return the surviving leaf coordinates.

    Every level's bits are checked first.  Each level's count-sketch vote
    keeps at most cap_factor * k parts (ties broken toward lower part
    index), so the output size and the per-level candidate count are
    hard-capped regardless of the signal.  ``bit_reads`` counts all rows of
    every candidate, an upper bound: the vote stops reading a part once it
    cannot pass.
    """
    if len(level_bits) != len(schema.levels):
        raise ValueError(
            f"got bits for {len(level_bits)} levels, schema has {len(schema.levels)}"
        )
    pairs = [ps._check_bits(lv.schema, bits) for lv, bits in zip(schema.levels, level_bits)]
    root = schema.levels[0].schema
    survivors = ps._count_sketch_decode(root, pairs[0], None)[0]
    point_queries = schema.levels[0].starts.size
    bit_reads = point_queries * 3 * root.reps * 2
    per_level = [int(survivors.size)]
    for r in range(1, len(schema.levels)):
        if survivors.size == 0:
            per_level.append(0)
            continue
        # survivors are sorted and distinct, so their children are too
        candidates = schema.children(r - 1, survivors)
        level = schema.levels[r].schema
        survivors = ps._count_sketch_decode(level, pairs[r], candidates)[0]
        point_queries += candidates.size
        bit_reads += candidates.size * 3 * level.reps * 2
        per_level.append(int(survivors.size))
    leaf_starts = schema.levels[-1].starts
    indices = leaf_starts[survivors] if survivors.size else np.empty(0, dtype=np.int64)
    return BTreeDecodeResult(
        indices=np.sort(indices),
        point_queries=int(point_queries),
        bit_reads=int(bit_reads),
        per_level_survivors=tuple(per_level),
    )


def choose_branching(n: int, k: int, delta: float, gamma: float) -> int:
    """Branching factor (k log2(n/delta))^gamma, rounded half-up, floored at 2.

    Larger gamma trades more decode work for fewer measurement rows.
    """
    if gamma <= 0 or gamma > 1:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    if not (n >= 1 and 1 <= k and 0 < delta < 1):
        raise ValueError("invalid (n, k, delta)")
    value = (k * math.log2(n / delta)) ** gamma
    return max(2, int(math.floor(value + 0.5)))
