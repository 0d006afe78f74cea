"""One-bit b-tree: coarse-to-fine interval partitions with point-query descent.

Level r partitions [n] into intervals of one width w_r: part c is
[c w_r, (c+1) w_r), cut at n.  Each width is a multiple of the next finer
one (``_level_widths``), so a part's children are a range of parts, a leaf
part is its coordinate, and the schema holds no array: a build takes
O(depth).  The root level is decoded exhaustively with the count-sketch
decoder; each finer level is decoded by point-querying only the children of
the parts that survived the previous level, so decoding touches O(b k)
parts per level instead of the whole partition.

The levels nest, so they are measured in one pass that shares one gaussian
weight per (repetition, coordinate) across all of them, drawn with the root
level's key (``partition_sketch._measure``); each level keeps its own
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
from .model import as_indices, positive_int, signal_nonzeros
from .prf import derive_key


@dataclass(frozen=True)
class BTreeLevel:
    schema: ps.PointQuerySchema

    @property
    def starts(self) -> np.ndarray:  # built on each read, see PartitionFamily.starts
        return self.schema.partition.starts


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
        parent by parent: part p holds children [p r, (p+1) r), cut at the
        child level's size, where r is the ratio of the two levels' widths.
        A level outside [0, depth), which has no child level, or a part that
        is not the integer index of a ``level`` part raises ``ValueError``."""
        if not 0 <= level < self.depth:
            raise ValueError(f"level {level} has no child level: need 0 <= level < {self.depth}")
        parent, child = (lv.schema.partition for lv in self.levels[level : level + 2])
        parts = np.atleast_1d(as_indices(parts, parent.size, f"level-{level} part"))
        ratio = parent.width // child.width
        first = parts * ratio
        counts = np.minimum(child.size - first, ratio)  # first + ratio may pass int64
        return np.repeat(first - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


@dataclass(frozen=True)
class BTreeDecodeResult:
    indices: np.ndarray
    point_queries: int
    bit_reads: int
    per_level_survivors: tuple[int, ...]


def _level_widths(n: int, k: int, b: int, depth: int) -> list[int]:
    """Interval widths of levels 0..depth, built from the leaves up.

    The leaves have width 1, and level r's width is the least multiple of
    level r+1's that is at least ceil(n / (k b^r)): that ceiling itself
    where the ceilings divide each other, as for power-of-two n, k and b.
    The ceiling is at most b times level r+1's, so at most b times its
    width: a part holds at most b children.  The root, of width at least
    ceil(n / k), has at most k parts.
    """
    widths = [1]
    for r in reversed(range(depth)):
        least = -(-n // (k * b**r))
        widths.append(-(-least // widths[-1]) * widths[-1])
    return widths[::-1]


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
    n, k, b = positive_int(n, "n"), positive_int(k, "k"), positive_int(b, "b")
    if not 2 <= b <= n:
        raise ValueError(f"branching factor must be in [2, n], got b={b}")
    if not 1 <= k <= n:
        raise ValueError(f"sparsity must be in [1, n], got k={k}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    depth = 0  # the smallest with k * b**depth >= n
    while k * b**depth < n:
        depth += 1
    level_delta = delta / (b * k * max(depth, 1))
    levels = tuple(
        BTreeLevel(ps.build_schema(
            ps.PartitionFamily(n=n, size=-(-n // width), width=width), k, level_delta,
            seed=int(derive_key(seed, 100 + r)), constants=constants,
        ))
        for r, width in enumerate(_level_widths(n, k, b, depth))
    )
    return BTreeSchema(
        n=n, k=k, b=b, delta=delta, seed=seed, depth=depth, levels=levels, constants=constants,
    )


def measure(schema: BTreeSchema, x) -> list[ps.SketchBits]:
    """Sign measurements for every level, root first, from one shared
    gaussian draw; the levels nest by construction (``_level_widths``)."""
    nz, vals = signal_nonzeros(x, schema.n)
    levels = [level.schema for level in schema.levels]
    return ps._measure(levels, nz, vals, [s.partition.parts_of(nz) for s in levels])


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
    point_queries = bit_reads = 0
    per_level = []
    for r, level in enumerate(lv.schema for lv in schema.levels):
        # the root's candidates are all its parts, a finer level's the
        # survivors' children: sorted and distinct, as the survivors are
        candidates = schema.children(r - 1, survivors) if r else np.arange(level.partition.size)
        survivors = ps._count_sketch_decode(level, pairs[r], candidates)[0]
        point_queries += candidates.size
        bit_reads += candidates.size * 3 * level.reps * 2
        per_level.append(int(survivors.size))
    return BTreeDecodeResult(
        indices=survivors,  # a leaf part, of width 1, is its coordinate
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
