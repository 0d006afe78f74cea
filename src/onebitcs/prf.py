"""Deterministic seeded randomness.

Every random object in this package (hash functions, sign assignments,
gaussian entries) is a pure function of a 64-bit key and an integer index,
built on the splitmix64 finalizer.  This lets the decoding side regenerate
the exact random values used at measurement time from the master seed alone,
without storing them, and makes every experiment bit-reproducible across
processes.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

U64 = np.uint64

_MUL1 = U64(0xBF58476D1CE4E5B9)
_MUL2 = U64(0x94D049BB133111EB)
_GAMMA = U64(0x9E3779B97F4A7C15)
_PHI = U64(0x165667B19E3779F9)


# Kernels that sweep a large batch of PRF words (partition-sketch measure,
# gaussian sign blocks) take it in blocks of about this many 64-bit words, so
# the temporaries of each block stay in cache instead of streaming through RAM.
BLOCK_WORDS = 1 << 16


def available_cpus() -> int:
    """CPUs this process may run on (its affinity set where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def map_blocks(fn, starts) -> list:
    """``[fn(s) for s in starts]``, run on up to one thread per available CPU.

    For block loops whose blocks are independent: each ``fn(s)`` may write
    only its own slice of a shared output, so results do not depend on the
    thread count.  The PRF kernels spend their time in numpy and scipy
    ufuncs, which release the interpreter lock, so blocks overlap.  The
    calling thread takes blocks too, beside one helper thread per further
    CPU: each thread keeps block temporaries in its own malloc arena, so
    fewer threads hold less memory.  One block, or one CPU, runs inline
    without a pool.  An exception raised by any block reaches the caller.
    """
    starts = list(starts)
    workers = min(len(starts), available_cpus())
    if workers <= 1:
        return [fn(s) for s in starts]
    results = [None] * len(starts)
    todo = iter(range(len(starts)))
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            results[i] = fn(starts[i])

    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        drain()
        for helper in helpers:
            helper.result()
    return results


def mix64(z) -> np.ndarray:
    """splitmix64 finalizer; wraps mod 2**64 by construction.

    Leaves ``z`` unmodified: the first shift makes a fresh array, and every
    xor and multiply after it writes into that array in place.
    """
    z = np.asarray(z, dtype=np.uint64)
    with np.errstate(over="ignore"):
        out = z >> U64(30)
        out ^= z
        out *= _MUL1
        out ^= out >> U64(27)
        out *= _MUL2
        out ^= out >> U64(31)
    return out


def fold(key, word) -> np.ndarray:
    """Absorb an integer (or integer array) into a key, yielding new key(s).

    Broadcasts over both arguments, so a column of keys folded with a row of
    indices yields the full key matrix in one call.
    """
    with np.errstate(over="ignore"):
        z = np.asarray(word, dtype=np.uint64) * _GAMMA
        z += _PHI
        return mix64(np.asarray(key, dtype=np.uint64) ^ z)


def derive_key(seed: int, *words: int) -> np.uint64:
    """A 64-bit stream key for (seed, words); equal inputs give equal keys."""
    key = mix64(np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF))
    for w in words:
        key = fold(key, int(w) & 0xFFFFFFFFFFFFFFFF)
    return np.uint64(key)


def uniform01(key, idx) -> np.ndarray:
    """Uniform floats in (0, 1), one per index; never exactly 0 or 1."""
    u = np.asarray(fold(key, idx))
    u >>= U64(11)
    # the top 53 bits convert exactly; the float result reuses the word buffer
    f = u.view(np.float64)
    np.multiply(u, 2.0**-53, out=f)
    f += 2.0**-54
    return f[()]


def standard_normal(key, idx) -> np.ndarray:
    """Standard normal deviates via the inverse normal CDF."""
    u = np.asarray(uniform01(key, idx))
    return ndtri(u, out=u)[()]


def rademacher(key, idx) -> np.ndarray:
    """Signs in {-1, +1} as int8, one per index."""
    return (((fold(key, idx) >> U64(63)).astype(np.int8)) << 1) - np.int8(1)


def uniform_index(key, idx, size: int) -> np.ndarray:
    """Indices in [0, size). Modulo bias is < size/2**64, negligible here."""
    if size < 1:
        raise ValueError(f"range size must be positive, got {size}")
    return (fold(key, idx) % U64(size)).astype(np.int64)


@dataclass(frozen=True)
class RandomSource:
    """A labelled deterministic random stream.

    Identical (seed, label) pairs produce identical streams; distinct labels
    behave independently.  ``derive`` extends the label, which is how
    sub-streams for trials, schemas, and repetitions are carved out.
    """

    seed: int
    label: tuple[int, ...] = ()

    @property
    def key(self) -> np.uint64:
        return derive_key(self.seed, *self.label)

    def derive(self, *words: int) -> "RandomSource":
        return RandomSource(self.seed, self.label + tuple(int(w) for w in words))

    def gaussian(self, idx) -> np.ndarray:
        return standard_normal(self.key, idx)

    def signs(self, idx) -> np.ndarray:
        return rademacher(self.key, idx)

    def indices(self, idx, size: int) -> np.ndarray:
        return uniform_index(self.key, idx, size)

    def uniform(self, idx) -> np.ndarray:
        return uniform01(self.key, idx)

    def choice_without_replacement(self, n: int, count: int) -> np.ndarray:
        """``count`` distinct indices from [0, n), deterministic in the key."""
        if count > n:
            raise ValueError(f"cannot draw {count} distinct values from range {n}")
        # rank the first n outputs of the stream; ties are impossible in
        # practice (64-bit values) and harmless if they occur
        u = fold(self.key, np.arange(n))
        return np.sort(np.argsort(u, kind="stable")[:count])
