"""Systematic Reed-Solomon coding over GF(2^t) for short chunked identifiers.

Coordinate identifiers are split into t-bit symbols, extended with parity
symbols, and carried one symbol per sketch layer.  A word c of ``length``
symbols is a codeword exactly when its parity syndromes vanish:
H c = 0, with H[j-1][pos] = alpha^(j * (length - 1 - pos)) for j = 1..parity.
Any ``parity`` columns of H are independent (a scaled Vandermonde matrix),
so codewords differ in at least parity + 1 symbols.  One linear solve over
GF(2^t), ``_solve``, serves both directions:

- Encoding solves H c = 0 for the parity symbols of each unit message, once
  per code; a message's parity is the GF-linear combination of those rows.
- Decoding zeroes the f erased symbols and computes the syndromes s = H r
  once.  For e = 0, 1, ..., floor((parity - f) / 2) and each set of e
  non-erased positions, it solves H[:, U] d = s for the corrections d on U,
  the erasures plus those positions, and takes the first consistent
  solution.  Two codewords that agree with the word outside f + 2e <= parity
  positions are equal, so every e errors and f erasures with 2e + f <= parity
  are corrected, and nothing beyond that budget is returned.

A decode costs at most sum_{e <= floor((p - f) / 2)} C(length - f, e) solves
of at most p unknowns: length + 1 at parity 2, and at most 67 for the codes
``expander`` builds (length <= 11, parity <= 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from operator import xor

import numpy as np

from .model import as_indices, integer, positive_int

# primitive polynomials for GF(2^t), t = 2..16
_PRIMITIVE = {
    2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x89, 8: 0x11D,
    9: 0x211, 10: 0x409, 11: 0x805, 12: 0x1053, 13: 0x201B, 14: 0x4443,
    15: 0x8003, 16: 0x1100B,
}


class GaloisField:
    """GF(2^t) arithmetic via log/antilog tables: numpy arrays ``exp`` and
    ``log`` for vectorised products, and the same tables as lists for the
    scalar arithmetic of ``_solve``."""

    def __init__(self, t: int):
        if t not in _PRIMITIVE:
            raise ValueError(f"symbol width t={t} unsupported (need 2..16)")
        self.t = t
        self.order = 1 << t
        cycle = self.order - 1
        exp, log = [0] * cycle, [0] * self.order
        x = 1
        for i in range(cycle):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & self.order:
                x ^= _PRIMITIVE[t]
        # log(0) is a sentinel past every sum of two true logs, and exp is
        # 0 from there on, so a product with a zero factor looks up 0
        log[0] = 2 * cycle
        self.exp_list = exp * 2 + [0] * (2 * cycle + 1)
        self.log_list = log
        self.exp = np.array(self.exp_list, dtype=np.int64)
        self.log = np.array(log, dtype=np.int64)

    def mul(self, a, b):
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a):
        a = int(a)
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(2^t)")
        return int(self.exp[(self.order - 1) - self.log[a]])


@lru_cache(maxsize=None)
def _field(t: int) -> GaloisField:
    return GaloisField(t)


def _solve(gf: GaloisField, rows, width: int) -> list[int] | None:
    """The solution of the augmented system ``rows`` = [A | b], A of
    ``width`` independent columns, by Gauss-Jordan elimination over GF(2^t);
    None when the system is inconsistent."""
    exp, log, cycle = gf.exp_list, gf.log_list, gf.order - 1
    rows = list(rows)
    for col in range(width):
        pivot = next(r for r in range(col, len(rows)) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = cycle - log[rows[col][col]]
        lead = rows[col] = [exp[log[a] + scale] for a in rows[col]]
        for r, row in enumerate(rows):
            if r != col and row[col]:
                factor = log[row[col]]
                rows[r] = [a ^ exp[log[b] + factor] for a, b in zip(row, lead)]
    if any(row[width] for row in rows[width:]):
        return None
    return [row[width] for row in rows[:width]]


@lru_cache(maxsize=None)
def _check_matrix(t: int, length: int, parity: int) -> tuple[tuple[int, ...], ...]:
    """H, one row per syndrome: H[j-1][pos] = alpha^(j * (length - 1 - pos))."""
    exp, cycle = _field(t).exp_list, (1 << t) - 1
    return tuple(
        tuple(exp[j * (length - 1 - pos) % cycle] for pos in range(length))
        for j in range(1, parity + 1)
    )


@dataclass(frozen=True)
class ChunkCode:
    """Systematic RS code carrying ``message_bits`` across ``length`` chunks.

    Chunk j of the codeword for identifier i is one t-bit symbol; up to
    chunk_errors() wrong chunks (or twice as many known-missing chunks) are
    corrected.  ``message_bits`` and ``length`` must be positive integers,
    ``parity`` a non-negative integer and ``t`` an integer in 2..16; anything
    else raises ``ValueError`` naming the field.
    """

    message_bits: int
    length: int  # total symbols
    t: int  # bits per symbol
    parity: int

    def __post_init__(self):
        for name, check in (("message_bits", positive_int), ("length", positive_int),
                            ("t", integer), ("parity", integer)):
            object.__setattr__(self, name, check(getattr(self, name), name))
        if self.t not in _PRIMITIVE:
            raise ValueError(f"symbol width t={self.t} unsupported (need 2..16)")
        if self.parity < 0 or self.parity >= self.length:
            raise ValueError("parity symbol count out of range")
        if self.data_symbols * self.t < self.message_bits:
            raise ValueError(
                f"{self.data_symbols} data symbols of {self.t} bits cannot hold "
                f"{self.message_bits} message bits"
            )
        if self.length > (1 << self.t) - 1:
            raise ValueError("codeword longer than field order allows")

    @property
    def data_symbols(self) -> int:
        return self.length - self.parity

    @property
    def gf(self) -> GaloisField:
        return _field(self.t)

    def chunk_errors(self) -> int:
        return self.parity // 2

    @classmethod
    def for_error_fraction(cls, message_bits: int, length: int, e0: float) -> "ChunkCode":
        """Code of given length correcting floor(e0 * length) chunk errors."""
        message_bits, length = integer(message_bits, "message_bits"), integer(length, "length")
        if not 0 < e0 < 0.5:
            raise ValueError(f"correctable fraction must be in (0, 1/2), got {e0}")
        parity = 2 * int(e0 * length)
        data = length - parity
        if data < 1:
            raise ValueError("no data symbols left after parity allocation")
        t = max(2, -(-message_bits // data))
        while length > (1 << t) - 1:
            t += 1
        return cls(message_bits=message_bits, length=length, t=t, parity=parity)

    def encode(self, value: int) -> np.ndarray:
        """Codeword symbols for one identifier, most significant chunk first."""
        return self.encode_many(np.array([value]))[0]

    def encode_many(self, values) -> np.ndarray:
        """Vectorized systematic encoding; returns (len(values), length) symbols."""
        values = np.asarray(values, dtype=np.int64)
        if values.size and (values.min() < 0 or values.max() >= (1 << self.message_bits)):
            raise ValueError("identifier out of message range")
        gf = self.gf
        mask = (1 << self.t) - 1
        data = np.empty((values.size, self.data_symbols), dtype=np.int64)
        for m in range(self.data_symbols):
            shift = self.t * (self.data_symbols - 1 - m)
            data[:, m] = (values >> shift) & mask
        if self.parity == 0:
            return data
        # systematic parity is GF-linear in the data symbols: combine the
        # parity rows of the unit messages, computed once per code
        basis = _parity_basis(self.t, self.data_symbols, self.parity)
        parity = np.zeros((values.size, self.parity), dtype=np.int64)
        for m in range(self.data_symbols):
            parity ^= gf.mul(data[:, m : m + 1], basis[m][None, :])
        return np.concatenate([data, parity], axis=1)

    def codeword_table(self, n: int) -> np.ndarray:
        """Read-only, C-contiguous (length, n) uint64 codewords of 0..n-1,
        computed once per (code, n) and shared by every caller."""
        return _codeword_table(self, n)

    def decode(self, symbols, erasures=()) -> int | None:
        """Recover the identifier, or None when beyond the correction budget.

        ``symbols`` holds one value per chunk position (erased positions may
        hold anything); ``erasures`` lists positions known to be unreliable.
        Symbols or erasure positions that are not integers raise ``ValueError``.
        """
        symbols = np.asarray(symbols)
        if symbols.dtype.kind not in "iu":
            raise ValueError(f"chunk symbols must be integers, not {symbols.dtype}")
        symbols = symbols.astype(np.int64)
        if symbols.shape != (self.length,):
            raise ValueError(f"expected {self.length} chunk symbols")
        if np.any(symbols < 0) or np.any(symbols >= (1 << self.t)):
            raise ValueError("chunk symbol out of field range")
        erased = np.unique(as_indices(erasures, self.length, "erasure position")).tolist()
        word = symbols.tolist()
        for p in erased:
            word[p] = 0
        gf, checks = self.gf, _check_matrix(self.t, self.length, self.parity)
        exp, log = gf.exp_list, gf.log_list
        syndromes = [reduce(xor, [exp[log[h] + log[r]] for h, r in zip(row, word)], 0)
                     for row in checks]
        kept = [p for p in range(self.length) if p not in erased]
        for e in range((self.parity - len(erased)) // 2 + 1):
            for errors in combinations(kept, e):
                unknown = erased + list(errors)
                rows = [[row[u] for u in unknown] + [s] for row, s in zip(checks, syndromes)]
                fix = _solve(gf, rows, len(unknown))
                if fix is not None:
                    for u, d in zip(unknown, fix):
                        word[u] ^= d
                    value = sum(c << self.t * (self.data_symbols - 1 - m)
                                for m, c in enumerate(word[: self.data_symbols]))
                    return value if value < (1 << self.message_bits) else None
        return None


@lru_cache(maxsize=4)
def _codeword_table(code: ChunkCode, n: int) -> np.ndarray:
    table = np.ascontiguousarray(code.encode_many(np.arange(n)).T, dtype=np.uint64)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _parity_basis(t: int, data_symbols: int, parity: int) -> np.ndarray:
    """Row m: the parity symbols that make the unit message with a 1 in data
    symbol m a codeword, H[:, data:] p = H[:, m] (minus is plus in GF(2^t))."""
    checks = _check_matrix(t, data_symbols + parity, parity)
    return np.array(
        [_solve(_field(t), [row[data_symbols:] + (row[m],) for row in checks], parity)
         for m in range(data_symbols)],
        dtype=np.int64,
    )
