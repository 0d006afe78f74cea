"""Gaussian sign measurements and the convex program that inverts them.

The direction of a signal is estimated from y = sign(Gx + v) by maximizing
the correlation <y, G_S z> over the intersection of an l1 ball of radius
sqrt(k) (sparsity prior) and the l2 unit ball (scale normalization; one-bit
measurements carry no magnitude).  The maximizer has a closed form: scale
the correlation vector when the l1 constraint is slack, otherwise soft
threshold it at the exact level that lands on the l1 boundary, found by a
breakpoint scan rather than bisection.

The full pipeline stacks a heavy-hitter sketch (support identification)
above the gaussian block (value estimation on the support); the gaussian
block always measures all of x, so mass outside the identified support acts
as extra pre-quantization noise, exactly as the error analysis treats it.

Sign rows are settled without ``ndtri``: ``prf.block_cells`` puts each exact
normal g of a row within mid +- half, so g.x is within B = sum(half |x|) of
mid.x.  With m < 2**26 nonzeros and |g|, |mid| < 8.5, rounding moves each
float sum (the exact route's dot in any order, mid.x, B and ||x||_1) by under
(m + 1) 2**-53 8.5 ||x||_1.  So if t = mid.x + noise has |t| > (B + (m + 2)
2**-51 8.5 ||x||_1)(1 + 2**-50), the exact route's dot plus noise is nonzero
with t's sign (finite while |t| < 2**1022); other rows are recomputed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import heavy_hitters as hh
from . import partition_sketch as ps
from . import prf
from .model import SparseEstimate, as_indices, positive_int, signal_nonzeros
from .prf import derive_key, fold, standard_normal


@dataclass(frozen=True)
class GaussianSchema:
    """Implicit dense gaussian matrix with optional pre-quantization noise."""

    rows: int
    n: int
    seed: int
    noise_sigma: float = 0.0

    def __post_init__(self):
        for name in ("rows", "n"):
            object.__setattr__(self, name, positive_int(getattr(self, name), name))
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, not {self.noise_sigma!r}")

    @cached_property
    def matrix_key(self) -> np.uint64:
        return derive_key(self.seed, 11)

    def entries(self, rows, cols) -> np.ndarray:
        """Regenerate G[rows, cols] as an outer block (len(rows), len(cols))."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        return standard_normal(fold(self.matrix_key, rows)[:, None], cols[None, :])

    def noise(self, rows) -> np.ndarray:
        return self.noise_sigma * standard_normal(derive_key(self.seed, 12), np.asarray(rows))


def sign_measure(schema: GaussianSchema, x) -> np.ndarray:
    """y = sign(Gx + v) as int8, regenerating G in blocks of rows holding
    about ``prf.BLOCK_WORDS`` entries, run through ``prf.map_blocks``; a row
    dot that overflowed raises ``ValueError``.

    The row dots use ``np.einsum``, not BLAS: a BLAS call inside a block
    would wake BLAS's own threads, which then compete with the block threads.
    """
    return _sign_measure(schema, *signal_nonzeros(x, schema.n))


def _sign_measure(schema: GaussianSchema, nz, vals) -> np.ndarray:
    """``sign_measure`` of the signal whose nonzeros ``vals`` sit at ``nz``:
    rows the cell bound (see the module docstring) cannot settle are
    recomputed from ``prf.block_normals``, so the bits are the exact route's."""
    y = np.empty(schema.rows, dtype=np.int8)
    step = max(1, prf.BLOCK_WORDS // max(nz.size, 1))
    keys = fold(schema.matrix_key, np.arange(schema.rows))[:, None]
    cols = prf.col_words(nz)[None, :]
    size = np.abs(vals)

    def measure_block(lo):
        rows = np.arange(lo, min(lo + step, schema.rows))
        noise = schema.noise(rows) if schema.noise_sigma > 0 else np.zeros(rows.size)
        mid, half = prf.block_cells(keys[lo : lo + step], cols)
        dot = np.einsum("ij,j->i", mid, vals) + noise
        redo = _unsettled(dot, np.einsum("ij,j->i", half, size), size)
        if redo.size:
            exact = np.einsum("ij,j->i", prf.block_normals(keys[lo + redo], cols), vals) + noise[redo]
            ps._require_finite(exact)
            dot[redo] = exact
        y[lo : lo + rows.size] = np.where(dot >= 0, 1, -1)

    prf.map_blocks(measure_block, range(0, schema.rows, step))
    return y


def _unsettled(dot, radius, size) -> np.ndarray:
    """Rows ``dot`` leaves unsettled, for |x| ``size``; all if 8.5 ||x||_1 overflows."""
    radius += 8.5 * float(np.einsum("i->", size)) * ((size.size + 2) * 2.0**-51)
    t = np.abs(dot)
    return np.flatnonzero(~((radius * (1 + 2.0**-50) < t) & (t < 2.0**1022)))


def correlation(schema: GaussianSchema, y, support) -> np.ndarray:
    """c = G_S^T y over the support columns, regenerated in blocks of columns
    holding about ``prf.BLOCK_WORDS`` entries, run through ``prf.map_blocks``.
    A non-finite ``y`` or a column that is not an integer in [0, n) raises
    ``ValueError``."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (schema.rows,):
        raise ValueError("measurement length mismatch")
    if not np.isfinite(y).all():
        raise ValueError("measurements must be finite")
    support = as_indices(support, schema.n, "support column")
    keys = fold(schema.matrix_key, np.arange(schema.rows))[:, None]
    cols = prf.col_words(support)[None, :]
    step = max(1, prf.BLOCK_WORDS // schema.rows)
    c = np.empty(support.size)

    def correlate_block(lo):
        c[lo : lo + step] = prf.block_normals(keys, cols[:, lo : lo + step]).T @ y

    prf.map_blocks(correlate_block, range(0, support.size, step))
    return c


def solve_l1l2(c, l1_bound: float) -> np.ndarray:
    """Maximize <c, z> over {||z||_1 <= l1_bound, ||z||_2 <= 1}, exactly.

    When the l1 constraint is slack the maximizer is c normalized; otherwise
    it is a soft-thresholded c renormalized to the sphere, with the
    threshold solved on the breakpoint segment where the l1/l2 ratio crosses
    the bound.  Returns the zero vector for c = 0.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("correlation vector must be 1-D and nonempty")
    if not np.all(np.isfinite(c)):
        raise ValueError("correlation vector has non-finite entries")
    if l1_bound <= 0:
        raise ValueError("l1 bound must be positive")
    norm2 = float(np.linalg.norm(c))
    if norm2 == 0.0:
        return np.zeros_like(c)
    if float(np.abs(c).sum()) / norm2 <= l1_bound:
        return c / norm2
    a = np.sort(np.abs(c))[::-1]
    csum = np.cumsum(a)
    qsum = np.cumsum(a * a)
    s2 = l1_bound * l1_bound
    for p in range(1, a.size + 1):
        lam_lo = a[p] if p < a.size else 0.0
        sp, qp = csum[p - 1], qsum[p - 1]
        lin = sp - p * lam_lo
        quad = qp - 2 * lam_lo * sp + p * lam_lo * lam_lo
        if quad <= 0 or lin < 0:
            continue
        if lin * lin >= s2 * quad - 1e-15 * max(1.0, s2 * quad):
            # ratio crosses the bound on [lam_lo, a[p-1]) with p active terms
            if abs(p - s2) < 1e-12:
                lam = lam_lo
            else:
                spread = (p * qp - sp * sp) / (p - s2)
                lam = (sp - l1_bound * math.sqrt(max(spread, 0.0))) / p
                lam = min(max(lam, lam_lo), a[p - 1])
            z = np.sign(c) * np.maximum(np.abs(c) - lam, 0.0)
            nz = float(np.linalg.norm(z))
            if nz == 0.0:
                continue
            return z / nz
    return c / norm2  # unreachable for finite inputs; keeps the scan total


@dataclass(frozen=True)
class PipelineSchema:
    """Heavy-hitter block stacked over a gaussian sign block."""

    n: int
    k: int
    delta: float
    seed: int
    support_schema: hh.HeavyHitterSchema
    gauss_schema: GaussianSchema

    @property
    def support_rows(self) -> int:
        return self.support_schema.total_rows

    @property
    def gauss_rows(self) -> int:
        return self.gauss_schema.rows

    @property
    def total_rows(self) -> int:
        return self.support_rows + self.gauss_rows


@dataclass(frozen=True)
class PipelineBits:
    support_bits: list
    sign_bits: np.ndarray


@dataclass(frozen=True)
class PipelineDiagnostics:
    support: np.ndarray
    point_queries: int
    bit_reads: int


def default_gauss_rows(n: int, k: int, delta: float) -> int:
    """ceil(2 * k * log2(n/k) / delta^2), the value-estimation row budget."""
    return max(1, math.ceil(2.0 * k * math.log2(max(n / k, 2.0)) / delta**2))


def build_pipeline(
    n: int,
    k: int,
    delta: float,
    seed: int,
    gauss_rows: int | None = None,
    noise_sigma: float = 0.0,
    constants: ps.SketchConstants = ps.SketchConstants(),
) -> PipelineSchema:
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    support_schema = hh.build_schema(n, k, seed=int(derive_key(seed, 21)), constants=constants)
    if gauss_rows is None:
        gauss_rows = default_gauss_rows(n, k, delta)
    gauss_schema = GaussianSchema(
        rows=gauss_rows, n=n, seed=int(derive_key(seed, 22)), noise_sigma=noise_sigma
    )
    return PipelineSchema(
        n=n, k=k, delta=delta, seed=seed,
        support_schema=support_schema, gauss_schema=gauss_schema,
    )


def measure(schema: PipelineSchema, x) -> PipelineBits:
    nz, vals = signal_nonzeros(x, schema.n)
    return PipelineBits(
        support_bits=hh._measure(schema.support_schema, nz, vals),
        sign_bits=_sign_measure(schema.gauss_schema, nz, vals),
    )


def decode(
    schema: PipelineSchema, bits: PipelineBits
) -> tuple[SparseEstimate, PipelineDiagnostics]:
    """Support from the sketch block, values from the gaussian block."""
    y = bits.sign_bits
    if not (isinstance(y, np.ndarray) and y.dtype == np.int8
            and y.shape == (schema.gauss_rows,) and np.all(np.abs(y) == 1)):
        raise ValueError(f"sign bits must be {schema.gauss_rows} int8 values of +1 or -1")
    support, _, diags = hh.decode(schema.support_schema, bits.support_bits)
    diag = PipelineDiagnostics(
        support=support,
        point_queries=sum(d.point_queries for d in diags),
        bit_reads=sum(d.bit_reads for d in diags),
    )
    values = np.empty(0)
    if support.size:
        c = correlation(schema.gauss_schema, bits.sign_bits, support)
        values = solve_l1l2(c, math.sqrt(schema.k))
    estimate = SparseEstimate(
        indices=support, values=values,
        sparsity_bound=max(1, schema.support_schema.cap, support.size),
    )
    return estimate, diag
