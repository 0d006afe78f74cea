"""Deterministic seeded randomness.

Every random object in this package (hash functions, sign assignments,
gaussian entries) is a pure function of a 64-bit key and an integer index,
built on the splitmix64 finalizer.  This lets the decoding side regenerate
the exact random values used at measurement time from the master seed alone,
without storing them, and makes every experiment bit-reproducible across
processes.

Measure kernels draw blocks through ``block_words`` and ``block_normals``
into ``scratch`` arrays that each thread reuses from block to block.  A
block result is valid until the thread's next call for that buffer, and no
public function returns one.  The scratch is a ``threading.local``.

``map_blocks`` runs blocks on helper threads that persist for the life of
the process, so their scratch stays warm from call to call.  This module
state is kept on purpose: a pool made per call started a thread and
rebuilt that helper's scratch on each of the 33 calls a pipeline-tail
decode makes (a two-block call of a trivial function took 84-126 us that
way, against 11-15 us on a live pool, on a 2-vCPU host).  The helpers
start on the first call that needs one, never at import; a forked child,
which has none of its parent's threads, starts its own.

``block_cells`` bounds normals without ``ndtri``: a word's top ``CELL_BITS``
bits name the cell [i, i + 1) / 4096 holding its uniform, so its normal lies
between the monotone ``ndtri`` at the cell's edges, widened by 2**-44 for its
error (under 1e-15); the two unbounded end cells, 1 word in 2,048, are exact.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .model import integer, positive_int

U64 = np.uint64

# splitmix64's finalizer multipliers, and the index word idx * GAMMA + PHI
# that ``fold`` absorbs, as Python integers; numpy code takes them as U64
_MASK = (1 << 64) - 1
_MUL1, _MUL2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_GAMMA, _PHI = 0x9E3779B97F4A7C15, 0x165667B19E3779F9
_BELOW_ONE = np.nextafter(1.0, 0.0)


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
    fewer threads hold less memory.  One block, one CPU, or a call made
    inside a block runs inline.

    The helpers belong to this process (see the module docstring) and are
    shared by every call.  A helper task that has not started when the
    caller runs out of blocks is cancelled, so another call's long blocks
    cannot hold this one up.  An exception raised by any block reaches the
    caller, and no block of this call is still running when it returns or
    raises.
    """
    starts = list(starts)
    cpus = available_cpus()
    workers = min(len(starts), cpus)
    if workers <= 1 or getattr(_helper, "busy", False):
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

    helpers = _submit(drain, workers - 1, cpus - 1)
    try:
        drain()
    finally:
        running = [helper for helper in helpers if not helper.cancel()]
        wait(running)
    for helper in running:
        helper.result()
    return results


_helper = threading.local()  # ``busy`` on the helper threads
_pool = (0, None, 0)  # (process id, executor, thread cap) of this process's helpers
_pool_lock = threading.Lock()


def _submit(task, count: int, size: int) -> list:
    """Futures of ``count`` runs of ``task`` on this process's helpers, first
    replacing the pool by one of ``size`` threads if it has fewer or belongs
    to the parent of a fork.  A replaced pool runs what it was given, then
    its threads exit."""
    global _pool
    with _pool_lock:
        pid, pool, cap = _pool
        if pid != os.getpid() or cap < count:
            if pid == os.getpid():
                pool.shutdown(wait=False)
            pool = ThreadPoolExecutor(
                size, "onebitcs-block", initializer=setattr, initargs=(_helper, "busy", True)
            )
            _pool = (os.getpid(), pool, size)
        return [pool.submit(task) for _ in range(count)]


_scratch = threading.local()


def scratch(name: str, shape, dtype) -> np.ndarray:
    """This thread's buffer ``name`` as an uninitialised ``shape`` array,
    valid until the thread's next call for ``name``; it grows as needed."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    buf = getattr(_scratch, name, None)
    if buf is None or buf.size < nbytes:
        buf = np.empty(nbytes, dtype=np.uint8)
        setattr(_scratch, name, buf)
    return buf[:nbytes].view(dtype).reshape(shape)


def mix64(z) -> np.ndarray:
    """splitmix64 finalizer of a copy of ``z``; wraps mod 2**64 by construction."""
    out = np.array(z, dtype=np.uint64)
    return _mix64_inplace(out, np.empty_like(out))[()]


def _mix64_inplace(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``mix64`` of an array over its own buffer, with ``tmp`` of its shape."""
    for shift, mul in ((30, _MUL1), (27, _MUL2)):
        np.right_shift(z, U64(shift), out=tmp)
        z ^= tmp
        z *= U64(mul)
    np.right_shift(z, U64(31), out=tmp)
    z ^= tmp
    return z


def col_words(idx) -> np.ndarray:
    """``idx * GAMMA + PHI``: the index half of ``fold``, computed once."""
    # one array, written in place: array ufuncs wrap uint64 without a warning
    idx = np.asarray(idx)
    z = np.multiply(idx, U64(_GAMMA), out=np.empty(idx.shape, np.uint64), dtype=np.uint64,
                    casting="unsafe")
    return np.add(z, U64(_PHI), out=z)


def fold(key, word) -> np.ndarray:
    """Absorb an integer (or integer array) into a key, yielding new key(s).

    Broadcasts over both arguments, so a column of keys folded with a row of
    indices yields the full key matrix in one call.
    """
    return mix64(np.asarray(key, dtype=np.uint64) ^ col_words(word))


def block_words(keys, cols) -> np.ndarray:
    """``fold(keys, idx)`` for ``cols = col_words(idx)``, in the "words" scratch."""
    shape = np.broadcast_shapes(np.shape(keys), np.shape(cols))
    out = scratch("words", shape, np.uint64)
    np.bitwise_xor(keys, cols, out=out)
    return _mix64_inplace(out, scratch("mix", shape, np.uint64))


def _to_uniform(words: np.ndarray) -> np.ndarray:
    """Uniform floats in (0, 1) from PRF words, in place over their buffer."""
    words >>= U64(11)
    # the top 53 bits convert exactly (faster from int64 than uint64)
    f = words.view(np.float64)
    np.multiply(words.view(np.int64), 2.0**-53, out=f)
    f += 2.0**-54
    # 2**53 - 1 top bits round up to 1.0, where ndtri is infinite
    return np.minimum(f, _BELOW_ONE, out=f)


def block_normals(keys, cols) -> np.ndarray:
    """``standard_normal(keys, idx)``, in the "words" scratch of ``block_words``."""
    u = _to_uniform(block_words(keys, cols))
    return ndtri(u, out=u)


CELL_BITS = 12
_EDGES = ndtri(np.arange((1 << CELL_BITS) + 1) / (1 << CELL_BITS))
_CELL_MID, _CELL_HALF = (_EDGES[1:] + _EDGES[:-1]) / 2, (_EDGES[1:] - _EDGES[:-1]) / 2 + 2.0**-44
_CELL_MID[[0, -1]], _CELL_HALF[[0, -1]] = np.nan, 0.0  # end cells: exact per word


def block_cells(keys, cols) -> tuple[np.ndarray, np.ndarray]:
    """New arrays of midpoints and half-widths bounding ``block_normals(keys, cols)``."""
    words = block_words(keys, cols)
    cell = np.right_shift(words, U64(64 - CELL_BITS), out=scratch("cells", words.shape, np.uint64))
    mid, half = _CELL_MID[cell.view(np.int64)], _CELL_HALF[cell.view(np.int64)]
    ends = np.flatnonzero(np.isnan(mid))
    mid.ravel()[ends] = ndtri(_to_uniform(words.ravel()[ends]))
    return mid, half


def _mix_int(z: int) -> int:
    """``mix64`` of one word in [0, 2**64), in Python integers."""
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK
    return z ^ (z >> 31)


def derive_key(seed: int, *words: int) -> np.uint64:
    """A 64-bit stream key for (seed, words); equal inputs give equal keys.

    ``mix64`` of the seed, then ``fold`` of each word in turn, all mod
    2**64 in Python integers: on one word, numpy's per-call overhead costs
    about ten times the arithmetic.
    """
    key = _mix_int(int(seed) & _MASK)
    for w in words:
        key = _mix_int(key ^ (((int(w) & _MASK) * _GAMMA + _PHI) & _MASK))
    return U64(key)


def uniform01(key, idx) -> np.ndarray:
    """Uniform floats in (0, 1), one per index; never exactly 0 or 1."""
    return _to_uniform(np.asarray(fold(key, idx)))[()]


def standard_normal(key, idx) -> np.ndarray:
    """Standard normal deviates via the inverse normal CDF."""
    u = np.asarray(uniform01(key, idx))
    return ndtri(u, out=u)[()]


def rademacher(key, idx) -> np.ndarray:
    """Signs in {-1, +1} as int8, one per index."""
    return (((fold(key, idx) >> U64(63)).astype(np.int8)) << 1) - np.int8(1)


def uniform_index(key, idx, size: int) -> np.ndarray:
    """Indices in [0, size) as int64, broadcasting like ``fold``, for a size
    in [1, 2**63].  Modulo bias is < size/2**64, negligible here."""
    size = positive_int(size, "range size")
    if size > 1 << 63:
        raise ValueError(f"range size {size} exceeds 2^63, past which int64 indices turn negative")
    cols = col_words(idx)
    shape = np.broadcast_shapes(np.shape(key), cols.shape)
    words = np.bitwise_xor(np.asarray(key, dtype=np.uint64), cols, out=np.empty(shape, np.uint64))
    # per block of BLOCK_WORDS: splitmix, then ``% size``: the low bits for
    # a power of two, else a floor division, a multiply and a subtract,
    # which numpy runs faster than its uint64 modulo by a scalar
    flat = words.reshape(-1)
    tmp = np.empty(min(flat.size, BLOCK_WORDS), np.uint64)
    for start in range(0, flat.size, BLOCK_WORDS):
        z = flat[start:start + BLOCK_WORDS]
        t = tmp[:z.size]
        _mix64_inplace(z, t)
        if size & (size - 1):
            np.floor_divide(z, U64(size), out=t)
            t *= U64(size)
            z -= t
        else:
            z &= U64(size - 1)
    return words.view(np.int64)[()]


@dataclass(frozen=True)
class RandomSource:
    """A labelled deterministic random stream.

    Identical (seed, label) pairs produce identical streams; distinct labels
    behave independently.  ``derive`` extends the label, which is how
    sub-streams for trials, schemas, and repetitions are carved out.
    """

    seed: int
    label: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "seed", integer(self.seed, "random seed"))
        object.__setattr__(self, "label", tuple(integer(w, "label word") for w in self.label))

    @property
    def key(self) -> np.uint64:
        return derive_key(self.seed, *self.label)

    def derive(self, *words: int) -> "RandomSource":
        return RandomSource(self.seed, self.label + words)

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
