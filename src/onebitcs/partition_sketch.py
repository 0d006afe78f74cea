"""One-bit partition point queries and the union-bound count-sketch decoder.

The scheme hashes the parts of a fixed partition of [n] into buckets, three
independent times per repetition.  Each bucket row measures the sign of a
random signed combination of per-part gaussian sums, and each row is paired
with its negation so that an exactly-zero measurement is detectable as a
(+1, +1) bit pair.  A part is reported heavy when, in a majority of
repetitions, all three of its bucket rows agree with its assigned signs or
all three anti-agree.

Row hashes take one PRF word per (repetition, part).  Sub-iteration s of a
repetition puts the part in the bucket given by a multiply-shift reduction of
bits [20s, 20s + 20) of that word, and gives it the sign of bit 60 + s.  The
reduction maps 2**20 equally likely values onto ``buckets`` buckets, so each
bucket's probability is within 2**-20 of 1/buckets: a relative bias of at
most buckets / 2**20, which is why a sketch may have at most 2**20 buckets.
Measure and decode find rows through ``_row_hashes``, and decoders read a
row's bit pair through ``_row_pairs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import prf
from .model import as_indices, positive_int, signal_nonzeros
from .prf import U64, derive_key, fold

# a bucket index is a multiply-shift reduction of a 20-bit slice of a row word
SLICE_BITS = 20
MAX_BUCKETS = 1 << SLICE_BITS
# repetitions the nonzero probe reads, from the first
PROBE_REPS = 8
# per sub-iteration s: its index, and the shift 3 - s that moves its sign,
# bit 60 + s of a word, to bit 63, or bit 12 + s of the word's top 16 to 15
_SUBS = np.arange(3, dtype=np.uint64)[:, None, None]
_SIGN_SHIFTS = (3 - _SUBS).astype(np.uint16)
# one int16 per (sign(z), sign(-z)) bit pair, read little-endian: its sign
# bit is sign(-z)'s, so it is set exactly when z > 0
_PAIR = np.dtype("<i2")
_ZERO_PAIR, _PLUS_PAIR, _MINUS_PAIR = np.array([1, 1, 1, -1, -1, 1], dtype=np.int8).view(_PAIR)


class AnalysisMarginWarning(RuntimeWarning):
    """Nothing raises this warning; the name stays importable for callers
    that still filter it (see ``SketchConstants`` for the margin it named)."""


@dataclass(frozen=True)
class PartitionFamily:
    """A partition of [n] into ``size`` parts, stored in one of two ways:

    - ``width``: for interval partitions, part c is [c·width, (c+1)·width)
      cut at n, so there are ceil(n / width) parts;
    - ``names`` with ``keys``: each coordinate's packed name, a (words, n)
      uint64 array whose columns compare word by word, and the (words, size)
      sorted distinct names.  A coordinate's part is its name's rank among
      the keys; ``from_names`` sorts the keys.
    """

    n: int
    size: int
    width: int | None = None
    names: np.ndarray | None = None
    keys: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 1 or self.size < 1:
            raise ValueError("partition needs n >= 1 and at least one part")
        if self.n >= 1 << 63:
            raise ValueError(f"n={self.n} does not fit the int64 coordinate indices (n < 2^63)")
        if (self.width is None) == (self.names is None):
            raise ValueError("exactly one of width/names must be given")
        if (self.names is None) != (self.keys is None):
            raise ValueError("names and keys must be given together")
        if self.width is not None:
            parts = -(-self.n // positive_int(self.width, "interval width"))
            if parts != self.size:
                raise ValueError(f"interval width {self.width} cuts n={self.n} into {parts} "
                                 f"parts, not {self.size}")
        else:
            names, keys = self.names, self.keys
            words = names.shape[0] if names.ndim == 2 else 0
            if (
                names.dtype != np.uint64 or keys.dtype != np.uint64
                or names.shape != (words, self.n) or keys.shape != (words, self.size)
            ):
                raise ValueError("names must be a (words, n) and keys a (words, size) uint64 array")

    @classmethod
    def contiguous(cls, n: int, parts: int) -> "PartitionFamily":
        """Equal-width intervals of width ceil(n/parts); last may be short.
        An n or parts that is not a positive integer raises ``ValueError``."""
        n, parts = (positive_int(v, f"{name} (a contiguous partition needs n, parts >= 1)")
                    for name, v in (("n", n), ("parts", parts)))
        width = -(-n // parts)
        return cls(n=n, size=-(-n // width), width=width)

    @classmethod
    def from_names(cls, names: np.ndarray) -> "PartitionFamily":
        """One part per distinct name of a (words, n) uint64 array."""
        keys = _sorted_distinct(names)
        return cls(n=names.shape[1], size=keys.shape[1], names=names, keys=keys)

    @property
    def starts(self) -> np.ndarray:
        """An interval partition's part starts, built on each read; the library reads none."""
        return np.arange(self.size, dtype=np.int64) * self.width

    def parts_of(self, coords) -> np.ndarray:
        """Part index of each coordinate (vectorized); a coordinate that is
        not an integer in [0, n) raises ``ValueError``."""
        coords = as_indices(coords, self.n, "coordinate")
        if self.names is not None:
            flat = coords.ravel()
            return _key_ranks(self.keys, self.names.take(flat, axis=1)).reshape(coords.shape)
        return coords // self.width


def _sorted_distinct(words: np.ndarray) -> np.ndarray:
    """The distinct columns of a (words, m) uint64 array, in word-by-word order.

    One word is sorted with ``np.sort``.  Wider columns are ordered by an
    argsort of their first word and, if some first word is tied, by a
    ``np.lexsort`` of all words: every sort runs on uint64 arrays, never on
    records, whose generic compares are slow.
    """
    if words.shape[0] == 1:
        ordered = np.sort(words[0])
        same = ordered[1:] == ordered[:-1]
        return (ordered[np.concatenate(([True], ~same))] if same.any() else ordered)[None, :]
    order = np.argsort(words[0])
    first = words[0].take(order)
    same = first[1:] == first[:-1]
    if same.any():
        order = np.lexsort(words[::-1])
        ordered = words.take(order, axis=1)
        same = (ordered[:, 1:] == ordered[:, :-1]).all(axis=0)
    return words.take(order[np.concatenate(([True], ~same))], axis=1)


def _key_ranks(keys: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Rank of each needle column among the sorted distinct key columns;
    every needle must equal a key.

    The needles' first words are sorted for one ``searchsorted`` over the
    keys' first word, and the ranks scattered back.  A needle whose first
    word several keys share is then placed by all words: such needles and
    all keys are lexsorted together, each key before the needles equal to
    it, and the needle takes the rank of the last key at or before it.
    """
    first = keys[0]
    order = np.argsort(needles[0])
    ranks = np.empty(order.size, dtype=np.intp)
    ranks[order] = np.searchsorted(first, needles[0].take(order))
    if keys.shape[0] == 1:
        return ranks
    # searchsorted found the first key of the needle's first-word run; the
    # run is tied when the next key shares that word
    after = np.minimum(ranks + 1, first.size - 1)
    pending = np.flatnonzero((ranks + 1 < first.size) & (first[after] == needles[0]))
    if pending.size == 0:
        return ranks
    both = np.concatenate([keys, needles.take(pending, axis=1)], axis=1)
    is_needle = np.arange(both.shape[1]) >= first.size
    merged = np.lexsort([is_needle, *both[::-1]])
    last_key = np.cumsum(~is_needle[merged]) - 1
    hit = is_needle[merged]
    ranks[pending[merged[hit] - first.size]] = last_key[hit]
    return ranks


@dataclass(frozen=True)
class SketchConstants:
    """Tunable constants of the sketch, each a positive integer.

    bucket_factor  buckets per unit of sparsity
    rep_factor     repetitions per bit of failure probability
    cap_factor     output size cap, in units of sparsity

    The worst-case separation analysis needs bucket_factor >= 20 (z_.975 /
    z_.525)^2 ~ 19,539 at every k, where z_p is the standard normal p-quantile.
    The default 32 is far below that; detection and rejection (acceptance
    criteria 01 and 02) hold empirically at it.
    """

    bucket_factor: int = 32
    rep_factor: int = 8
    cap_factor: int = 16

    def __post_init__(self):
        for name, value in vars(self).items():
            object.__setattr__(self, name, positive_int(value, f"sketch constant {name}"))


@dataclass(frozen=True)
class PointQuerySchema:
    """Implicit description of the measurement rows for one partition sketch."""

    partition: PartitionFamily
    k: int
    delta: float
    seed: int
    constants: SketchConstants
    reps: int
    buckets: int

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def vote_threshold(self) -> int:
        return min(self.reps, (self.reps + 1) // 2 + 1)

    @property
    def cap(self) -> int:
        return self.constants.cap_factor * self.k

    @property
    def rows(self) -> int:
        # 2 polarities x 3 sub-iterations x buckets x repetitions
        return 2 * 3 * self.buckets * self.reps

    @property
    def total_rows(self) -> int:  # the name every scheme's schema answers to
        return self.rows

    @cached_property
    def bucket_key(self) -> np.uint64:
        return derive_key(self.seed, 1)

    @cached_property
    def gauss_key(self) -> np.uint64:
        return derive_key(self.seed, 3)


@dataclass(frozen=True)
class SketchBits:
    """Observed sign bits, shape (reps, 3, buckets, 2); last axis is polarity.

    bits[..., 0] is sign(z) and bits[..., 1] is sign(-z) for the underlying
    linear measurement z; a (+1, +1) pair marks z == 0 exactly.  Flattened
    row order is repetition-major, then sub-iteration, then bucket, then
    polarity.
    """

    bits: np.ndarray

    def __post_init__(self):
        b = self.bits
        if b.ndim != 4 or b.shape[1] != 3 or b.shape[3] != 2 or b.dtype != np.int8:
            raise ValueError(f"bad bit tensor shape {b.shape} / dtype {b.dtype}")


def build_schema(
    partition: PartitionFamily,
    k: int,
    delta: float,
    seed: int,
    constants: SketchConstants = SketchConstants(),
) -> PointQuerySchema:
    """Lay out a point-query sketch for the given partition and sparsity."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"failure target delta must be in (0,1), got {delta}")
    k = positive_int(k, "sparsity k")
    reps = max(1, math.ceil(constants.rep_factor * math.log2(1.0 / delta)))
    buckets = constants.bucket_factor * k
    if buckets > MAX_BUCKETS:
        raise ValueError(
            f"{buckets} buckets exceed the {MAX_BUCKETS} a {SLICE_BITS}-bit hash slice addresses"
        )
    return PointQuerySchema(
        partition=partition,
        k=k,
        delta=delta,
        seed=seed,
        constants=constants,
        reps=reps,
        buckets=buckets,
    )


def _row_hashes(schema: PointQuerySchema, reps, parts) -> tuple[np.ndarray, np.ndarray]:
    """PRF words (shape (len(reps), len(parts))) and rows (int64, shape
    (3, len(reps), len(parts))) of ``parts`` in consecutive repetitions
    ``reps``: sub-iteration s of repetition reps[i] is row
    (3 i + s) * buckets + bucket, counted from repetition reps[0]'s first.
    Both live in this thread's scratch (see ``prf``) until its next call.
    """
    keys = fold(schema.bucket_key, reps)[:, None]
    words = prf.block_words(keys, prf.col_words(parts)[None, :])
    rows = prf.scratch("rows", (3, *words.shape), np.uint64)
    np.right_shift(words, _SUBS * U64(SLICE_BITS), out=rows)
    rows &= U64(MAX_BUCKETS - 1)
    rows *= U64(schema.buckets)
    # a row's offset, added above the slice bits, comes out of the shift whole
    first = np.arange(0, 3 * words.shape[0], 3, dtype=np.uint64)[:, None] + _SUBS
    rows += (first << U64(SLICE_BITS)) * U64(schema.buckets)
    rows >>= U64(SLICE_BITS)
    return words, rows.view(np.int64)


def _row_pairs(schema: PointQuerySchema, pairs: np.ndarray, reps, parts):
    """``_row_hashes``' words, and the rows' pairs gathered from the sketch's
    flat ``pairs``, in this thread's scratch until its next call."""
    words, rows = _row_hashes(schema, reps, parts)
    got = prf.scratch("pairs", rows.shape, _PAIR)
    np.take(pairs[3 * schema.buckets * reps[0] :], rows, out=got, mode="clip")
    return words, got


def _good_reps(schema: PointQuerySchema, pairs: np.ndarray, reps, parts) -> np.ndarray:
    """Whether each repetition is good for each part, in this thread's
    scratch: good when no row is zero (z == 0 exactly) and the rows' sign
    bits all equal the part's or all differ."""
    words, got = _row_pairs(schema, pairs, reps, parts)
    shape = words.shape
    zero = np.equal(got, _ZERO_PAIR, out=prf.scratch("zero", got.shape, bool))
    # the XOR sets a row's sign bit where y disagrees with the part's sign
    top = np.right_shift(words, U64(48), out=prf.scratch("top", shape, np.uint16), casting="unsafe")
    sign = np.left_shift(top, _SIGN_SHIFTS, out=prf.scratch("sign", got.shape, np.uint16))
    got ^= sign.view(_PAIR)
    differ = np.bitwise_xor(got[1:], got[0], out=prf.scratch("differ", (2, *shape), _PAIR))
    differ[0] |= differ[1]
    good = np.greater_equal(differ[0], 0, out=prf.scratch("good", shape, bool))
    some_zero = zero.any(axis=0, out=prf.scratch("some_zero", shape, bool))
    return np.greater(good, some_zero, out=good)  # good and no zero row


def _require_finite(sums: np.ndarray) -> None:
    """Raise ``ValueError`` when weighted sums of a finite signal overflowed."""
    if not np.isfinite(sums).all():
        raise ValueError("weighted sums overflow float64; scale the signal down")


def _check_bits(schema: PointQuerySchema, sketch: SketchBits) -> np.ndarray:
    """The sketch's bits as flat ``_PAIR``s.  Decoders read bits by the
    schema's layout; any other shape is malformed, and so is a bit other than
    +-1 or a (-1, -1) pair.  Reductions only, no temporaries: with every bit
    +-1, a pair read as uint16 is 0xFFFF exactly when it is (-1, -1)."""
    bits = sketch.bits
    expected = (schema.reps, 3, schema.buckets, 2)
    if bits.shape != expected:
        raise ValueError(f"bit tensor shape {bits.shape} does not match the schema's {expected}")
    if bits.min() < -1 or bits.max() > 1 or np.count_nonzero(bits) != bits.size:
        raise ValueError("bit tensor holds a value other than +1 or -1")
    pairs = np.ascontiguousarray(bits).view(_PAIR).reshape(-1)
    if pairs.view(np.uint16).max() == 0xFFFF:
        raise ValueError("bit tensor holds a (-1, -1) pair, which no measurement produces")
    return pairs


def measure(schema: PointQuerySchema, x) -> SketchBits:
    """Take all sign measurements of ``x`` under the schema: the one-level
    case of ``_measure``."""
    nz, vals = signal_nonzeros(x, schema.n)
    return _measure((schema,), nz, vals, [schema.partition.parts_of(nz)])[0]


def _measure(schemas, nz, vals, labels) -> list[SketchBits]:
    """Sign measurements, under each schema, of the signal whose nonzeros
    ``vals`` sit at ascending ``nz``, in parts ``labels[level]``.

    The caller guarantees that the schemas share n and ``reps`` and that
    their partitions nest coarse to fine: every part of a finer partition
    lies in one part of the next coarser one.  All levels share one gaussian
    weight per (repetition, coordinate), drawn with the first schema's
    ``gauss_key``; bucket hashes and signs stay each level's own.  Within a
    level the repetitions are independent, so every level's rows are
    distributed exactly as if it were measured alone, and a union bound over
    levels needs no independence between them.  One pass over the nonzeros
    per repetition forms the finest level's part sums (with one nonzero per
    finest part, their weighted normals in part order); each coarser level
    sums the occupied children of its parts.  The underlying real
    measurements exist only transiently.  sign(0) = +1, so rows start as
    (+1, +1) pairs and only rows with z != 0 are written; a z that
    overflowed raises ``ValueError``.  Repetitions are processed in blocks of
    about ``prf.BLOCK_WORDS`` gaussian entries (at least one repetition
    each), run through ``prf.map_blocks``; the bits depend on neither the
    block size nor the thread count.  A block with fewer (repetition,
    sub-iteration, part) entries than rows sums z over the rows it touches
    only, a denser one over every row; each row adds its entries in the same
    order either way.
    """
    reps = schemas[0].reps
    bits = [np.ones((reps, 3, s.buckets, 2), dtype=np.int8) for s in schemas]
    if nz.size == 0:
        return [SketchBits(bits=b) for b in bits]
    pairs = [b.view(_PAIR).reshape(-1) for b in bits]
    # each level's occupied parts, ascending, and each nonzero's index among them
    occupied, inverse = zip(*(np.unique(lab, return_inverse=True) for lab in labels))
    block = min(reps, max(1, prf.BLOCK_WORDS // nz.size))
    block_reps = np.arange(block)[:, None]
    # where a full block's sums add up, as flat (repetition, part) offsets,
    # finest level first: each nonzero's part (None: one per part, in part
    # order), then each occupied part's parent; a shorter block uses a prefix
    if occupied[-1].size == nz.size:
        order = np.argsort(inverse[-1])
        nz, vals, sum_into = nz[order], vals[order], [None]
    else:
        sum_into = [(block_reps * occupied[-1].size + inverse[-1]).ravel()]
    for level in reversed(range(len(schemas) - 1)):
        parent = np.empty(occupied[level + 1].size, dtype=np.intp)
        parent[inverse[level + 1]] = inverse[level]
        sum_into.append((block_reps * occupied[level].size + parent).ravel())
    gauss_cols = prf.col_words(nz)[None, :]

    def measure_block(r0):
        rr = np.arange(r0, min(r0 + block, reps))
        nb = rr.size
        normals = prf.block_normals(fold(schemas[0].gauss_key, rr)[:, None], gauss_cols)
        # out of the "words" scratch, which _row_hashes overwrites
        sums = np.multiply(normals, vals, out=prf.scratch("sums", normals.shape, np.float64))
        for level, into in zip(reversed(range(len(schemas))), sum_into):
            schema, parts = schemas[level], occupied[level]
            if into is not None:
                sums = np.bincount(into[: sums.size], weights=sums.ravel(), minlength=nb * parts.size)
            words, rows = _row_hashes(schema, rr, parts)
            # each weight is its part's sum, sign bit flipped where the part's is 0
            weights = prf.scratch("weights", rows.shape, np.uint64)
            np.left_shift(np.invert(words, out=words), _SIGN_SHIFTS, out=weights)
            weights &= U64(1 << 63)
            weights ^= sums.view(np.uint64).reshape(nb, parts.size)
            touched, count = rows.ravel(), nb * 3 * schema.buckets
            if touched.size < count:
                touched, row_of = np.unique(touched, return_inverse=True)
            else:
                touched, row_of = np.arange(count), touched
            weights = weights.view(np.float64).ravel()
            z = np.bincount(row_of, weights=weights, minlength=touched.size)
            hit = np.flatnonzero(z)
            z = z[hit]
            _require_finite(z)
            pairs[level][r0 * 3 * schema.buckets + touched[hit]] = np.where(
                z > 0, _PLUS_PAIR, _MINUS_PAIR
            )

    prf.map_blocks(measure_block, range(0, reps, block))
    return [SketchBits(bits=b) for b in bits]


def point_query(schema: PointQuerySchema, sketch: SketchBits, part: int) -> int:
    """1 if the part is judged to contain a heavy hitter, else 0: the vote
    over the one part."""
    return int(count_sketch_decode(schema, sketch, [part]).size)


def nonzero_candidates(schema: PointQuerySchema, sketch: SketchBits) -> np.ndarray:
    """Parts whose three bucket rows are nonzero in each of the first
    ``PROBE_REPS`` repetitions.

    A part holding any signal mass makes all three of its bucket rows nonzero
    in every repetition, so it always survives this probe.  A part that sits
    in an exactly-zero bucket row in some probed repetition cannot reach the
    vote threshold except by vanishing-probability chance.  The probe is
    progressive: a first sweep probes repetition 0 over every part, and a
    second probes the remaining repetitions over the parts that passed it.
    On sparse signals the first sweep prunes nearly every unoccupied part,
    so the probe costs about one PRF word per part plus work proportional to
    the survivors; on dense ones every part passes and the work is that of
    probing all repetitions at once.  Each sweep runs through
    ``prf.map_blocks`` in blocks of about ``prf.BLOCK_WORDS`` PRF words.
    """
    return _nonzero_candidates(schema, _check_bits(schema, sketch))


def _nonzero_candidates(schema: PointQuerySchema, pairs: np.ndarray) -> np.ndarray:
    reps = min(PROBE_REPS, schema.reps)

    def sweep(parts, first, last):
        """The ``parts`` whose rows are nonzero in repetitions [first, last)."""
        rr = np.arange(first, last)
        step = max(1, prf.BLOCK_WORDS // rr.size)

        def probe_block(lo):
            block = parts[lo : lo + step]
            _, got = _row_pairs(schema, pairs, rr, block)
            zero = np.equal(got, _ZERO_PAIR, out=prf.scratch("zero", got.shape, bool))
            return block[~zero.any(axis=(0, 1))]

        keep = prf.map_blocks(probe_block, range(0, parts.size, step))
        return np.concatenate(keep) if keep else parts[:0]

    keep = sweep(np.arange(schema.partition.size), 0, 1)
    if reps > 1:
        keep = sweep(keep, 1, reps)
    return keep


def count_sketch_decode(
    schema: PointQuerySchema,
    sketch: SketchBits,
    candidates=None,
) -> np.ndarray:
    """The queried parts (sorted) that pass the point query, capped at
    cap_factor * k by good count, ties toward the lower part index.

    With ``candidates=None`` every part of the partition is queried, which
    costs time linear in the partition size; callers that can enumerate a
    small candidate set should pass it.

    The vote reads repetitions in rounds and stops reading a part once its
    good count plus the repetitions left is below ``vote_threshold``, so the
    result is exact.  No part can fail in the first reps - vote_threshold
    repetitions, and each round but the last reads ``prf.BLOCK_WORDS`` words
    per CPU or more, as each ``map_blocks`` call starts a pool.
    """
    return _count_sketch_decode(schema, _check_bits(schema, sketch), candidates)[0]


def _count_sketch_decode(
    schema: PointQuerySchema, pairs: np.ndarray, candidates
) -> tuple[np.ndarray, np.ndarray]:
    """``count_sketch_decode`` of checked ``pairs``: the passing parts, sorted,
    and their good counts, which are complete, as a part still read in the
    last round was read in every repetition."""
    size = schema.partition.size
    parts = np.arange(size) if candidates is None else candidates
    parts = np.atleast_1d(as_indices(parts, size, "queried part index"))
    reps, need = schema.reps, schema.vote_threshold
    good = np.zeros(parts.size, dtype=np.int64)
    first, least = 0, reps - need + 1

    def vote_block(lo):  # a block of the current round's rr, parts and step
        good[lo : lo + step] += _good_reps(schema, pairs, rr, parts[lo : lo + step]).sum(axis=0)

    while parts.size and first < reps:
        per_cpu = -(-prf.available_cpus() * prf.BLOCK_WORDS // parts.size)
        rr = np.arange(first, min(reps, first + max(least, per_cpu)))
        step = max(1, prf.BLOCK_WORDS // rr.size)
        prf.map_blocks(vote_block, range(0, parts.size, step))
        first, least = rr[-1] + 1, 1
        alive = good + (reps - first) >= need
        parts, good = parts[alive], good[alive]
    return cap_by_score(parts, good, schema.cap)


def cap_by_score(ids: np.ndarray, scores: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct id once, with its highest score; of those, the ``cap``
    highest-scored (ties toward the lower id) and their scores, sorted by id."""
    order = np.lexsort((-scores, ids))  # by id, its best score first
    ids, scores = ids[order], scores[order]
    first = np.ones(ids.size, dtype=bool)
    first[1:] = ids[1:] != ids[:-1]
    ids, scores = ids[first], scores[first]
    if ids.size > cap:
        keep = np.sort(np.lexsort((ids, -scores))[:cap])
        ids, scores = ids[keep], scores[keep]
    return ids, scores
