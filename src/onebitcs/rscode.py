"""Systematic Reed-Solomon coding over GF(2^t) for small chunked identifiers.

Coordinate identifiers are split into t-bit symbols, extended with parity
symbols, and carried one symbol per sketch layer.  Decoding tolerates a
constant fraction of wrong or missing symbols: with p parity symbols, any
combination of e errors and f erasures with 2e + f <= p is corrected.

Polynomial conventions: codeword polynomials are handled high-order-first
(symbol 0 is the highest-degree coefficient); locator and evaluator
polynomials are low-order-first (index = degree).  Syndrome roots start at
alpha^1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# primitive polynomials for GF(2^t), t = 2..16
_PRIMITIVE = {
    2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x89, 8: 0x11D,
    9: 0x211, 10: 0x409, 11: 0x805, 12: 0x1053, 13: 0x201B, 14: 0x4443,
    15: 0x8003, 16: 0x1100B,
}


class GaloisField:
    """GF(2^t) arithmetic via log/antilog tables."""

    def __init__(self, t: int):
        if t not in _PRIMITIVE:
            raise ValueError(f"symbol width t={t} unsupported (need 2..16)")
        self.t = t
        self.order = 1 << t
        poly = _PRIMITIVE[t]
        exp = np.zeros(2 * (self.order - 1), dtype=np.int64)
        log = np.zeros(self.order, dtype=np.int64)
        x = 1
        for i in range(self.order - 1):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & self.order:
                x ^= poly
        exp[self.order - 1 :] = exp[: self.order - 1]
        # log(0) is a sentinel past every sum of two true logs, and exp is
        # 0 from there on, so a product with a zero factor looks up 0
        log[0] = 2 * (self.order - 1)
        self.exp = np.concatenate([exp, np.zeros(2 * (self.order - 1) + 1, dtype=np.int64)])
        self.log = log

    def mul(self, a, b):
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a):
        a = int(a)
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(2^t)")
        return int(self.exp[(self.order - 1) - self.log[a]])

    def pow_alpha(self, e: int) -> int:
        """alpha**e for any integer exponent (alpha = 2, the generator)."""
        return int(self.exp[int(e) % (self.order - 1)])


@lru_cache(maxsize=None)
def _field(t: int) -> GaloisField:
    return GaloisField(t)


@lru_cache(maxsize=None)
def _generator_poly(t: int, parity: int) -> tuple[int, ...]:
    """prod_{j=1..parity} (x + alpha^j), high-order-first, monic."""
    gf = _field(t)
    g = [1]
    for j in range(1, parity + 1):
        root = gf.pow_alpha(j)
        out = g + [0]
        for i, c in enumerate(g):
            out[i + 1] ^= int(gf.mul(c, root))
        g = out
    return tuple(g)


def _poly_eval_high(gf: GaloisField, coeffs, x: int) -> int:
    """Evaluate a high-order-first polynomial at x (Horner)."""
    acc = 0
    for c in coeffs:
        acc = int(gf.mul(acc, x)) ^ int(c)
    return acc


def _poly_eval_low(gf: GaloisField, coeffs, x: int) -> int:
    """Evaluate a low-order-first polynomial at x."""
    acc = 0
    xi = 1
    for c in coeffs:
        acc ^= int(gf.mul(c, xi))
        xi = int(gf.mul(xi, x))
    return acc


def _poly_mul_low(gf: GaloisField, a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] ^= int(gf.mul(ca, cb))
    return out


def _poly_mod_high(gf: GaloisField, dividend, divisor) -> list[int]:
    """Remainder of high-order-first polynomial division (monic divisor)."""
    out = list(dividend)
    for i in range(len(dividend) - len(divisor) + 1):
        coef = out[i]
        if coef != 0:
            for j in range(1, len(divisor)):
                out[i + j] ^= int(gf.mul(divisor[j], coef))
    return out[-(len(divisor) - 1) :]


def _berlekamp_massey(gf: GaloisField, synd: list[int]) -> tuple[list[int], int]:
    """Minimal LFSR (error locator, low-order-first) for a syndrome sequence."""
    C = [1]
    B = [1]
    L, m, b = 0, 1, 1
    for i in range(len(synd)):
        d = synd[i]
        for j in range(1, len(C)):
            if j <= i:
                d ^= int(gf.mul(C[j], synd[i - j]))
        if d == 0:
            m += 1
            continue
        coef = int(gf.mul(d, gf.inv(b)))
        new_c = C + [0] * max(0, m + len(B) - len(C))
        for j, cb in enumerate(B):
            new_c[m + j] ^= int(gf.mul(coef, cb))
        if 2 * L <= i:
            B, L, b, m = C, i + 1 - L, d, 1
        else:
            m += 1
        C = new_c
    return C[: L + 1], L


@dataclass(frozen=True)
class ChunkCode:
    """Systematic RS code carrying ``message_bits`` across ``length`` chunks.

    Chunk j of the codeword for identifier i is one t-bit symbol; up to
    chunk_errors() wrong chunks (or twice as many known-missing chunks) are
    corrected.
    """

    message_bits: int
    length: int  # total symbols
    t: int  # bits per symbol
    parity: int

    def __post_init__(self):
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
        """Read-only (n, length) uint16 codewords of identifiers 0..n-1,
        computed once per (code, n) and shared by every caller."""
        return _codeword_table(self, n)

    def decode(self, symbols, erasures=()) -> int | None:
        """Recover the identifier, or None when beyond the correction budget.

        ``symbols`` holds one value per chunk position (erased positions may
        hold anything); ``erasures`` lists positions known to be unreliable.
        Symbols that are not integers raise ``ValueError``.
        """
        symbols = np.asarray(symbols)
        if symbols.dtype.kind not in "iu":
            raise ValueError(f"chunk symbols must be integers, not {symbols.dtype}")
        symbols = symbols.astype(np.int64)
        if symbols.shape != (self.length,):
            raise ValueError(f"expected {self.length} chunk symbols")
        if np.any(symbols < 0) or np.any(symbols >= (1 << self.t)):
            raise ValueError("chunk symbol out of field range")
        erasures = sorted(set(int(e) for e in erasures))
        if erasures and (erasures[0] < 0 or erasures[-1] >= self.length):
            raise ValueError("erasure position out of range")
        if len(erasures) > self.parity:
            return None
        symbols[erasures] = 0
        corrected = self._correct(symbols, erasures)
        if corrected is None:
            return None
        value = 0
        for m in range(self.data_symbols):
            value = (value << self.t) | int(corrected[m])
        if value >= (1 << self.message_bits):
            return None
        return value

    def _locator_of_position(self, p: int) -> int:
        # position p holds the coefficient of degree length-1-p
        return self.gf.pow_alpha(self.length - 1 - p)

    def _syndromes(self, symbols) -> list[int]:
        gf = self.gf
        return [
            _poly_eval_high(gf, symbols, gf.pow_alpha(j))
            for j in range(1, self.parity + 1)
        ]

    def _correct(self, symbols, erasures) -> np.ndarray | None:
        if self.parity == 0:
            return symbols if not erasures else None
        gf = self.gf
        synd = self._syndromes(symbols)
        if not any(synd) and not erasures:
            return symbols
        era_loc = [1]
        for p in erasures:
            era_loc = _poly_mul_low(gf, era_loc, [1, self._locator_of_position(p)])
        # Forney syndromes: cancel the erasure contribution, then locate the
        # remaining errors among the trailing parity - f modified syndromes
        n_era = len(erasures)
        forney = _poly_mul_low(gf, synd, era_loc)[: self.parity]
        err_loc, n_err = _berlekamp_massey(gf, forney[n_era:])
        if 2 * n_err + n_era > self.parity:
            return None
        loc = _poly_mul_low(gf, err_loc, era_loc)
        degree = len(loc) - 1
        positions = [
            p
            for p in range(self.length)
            if _poly_eval_low(gf, loc, gf.inv(self._locator_of_position(p))) == 0
        ]
        if len(positions) != degree:
            return None
        # error magnitudes by Forney's formula with evaluator S*loc mod x^parity
        omega = _poly_mul_low(gf, synd, loc)[: self.parity]
        deriv = [loc[d] if d % 2 == 1 else 0 for d in range(1, len(loc))]
        out = symbols.copy()
        for p in positions:
            x_inv = gf.inv(self._locator_of_position(p))
            denom = _poly_eval_low(gf, deriv, x_inv)
            if denom == 0:
                return None
            magnitude = int(gf.mul(_poly_eval_low(gf, omega, x_inv), gf.inv(denom)))
            out[p] ^= magnitude
        if any(self._syndromes(out)):
            return None
        return out


@lru_cache(maxsize=4)
def _codeword_table(code: ChunkCode, n: int) -> np.ndarray:
    table = code.encode_many(np.arange(n)).astype(np.uint16)  # t <= 16
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _parity_basis(t: int, data_symbols: int, parity: int) -> tuple:
    """Parity rows of the unit data vectors for the systematic encoder."""
    gf = _field(t)
    gen = list(_generator_poly(t, parity))
    rows = []
    for m in range(data_symbols):
        msg = [0] * data_symbols
        msg[m] = 1
        rem = _poly_mod_high(gf, msg + [0] * parity, gen)
        rows.append(np.array(rem, dtype=np.int64))
    return tuple(rows)
