"""Measure kernels reuse per-thread scratch buffers without leaking them.

Each thread keeps its block buffers in ``prf``'s ``threading.local`` from one
block call to the next.  These tests measure different signals one after the
other and from two threads at once, compare every result with bits
recomputed by the oracles, and check with ``np.shares_memory`` that no
returned array is a view of any thread's scratch.
"""

import functools
import sys
import threading

import numpy as np
import pytest

from oracles import brute_force_bits, label_partition

from onebitcs import btree, prf, recovery
from onebitcs import partition_sketch as ps
from onebitcs.prf import RandomSource

N = 300


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count ``map_blocks`` sees; switch threads every microsecond."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield lambda count: monkeypatch.setattr(prf, "available_cpus", lambda: count)
    finally:
        sys.setswitchinterval(interval)


def signals():
    """A: dense; B: eight nonzeros, so its blocks have other shapes."""
    src = RandomSource(71)
    a = src.gaussian(np.arange(N))
    b = np.zeros(N)
    b[src.indices(np.arange(8), N)] = 1.0 + src.uniform(np.arange(8))
    return {"A": a, "B": b}


def schemas():
    sketch = ps.build_schema(label_partition(np.arange(N) % 40), 2, 0.3, seed=72)
    tree = btree.build_schema(N, 2, 4, 0.3, seed=73)
    gauss = recovery.GaussianSchema(rows=150, n=N, seed=74)
    return sketch, tree, gauss


def results(x):
    """Every array the measure kernels return for ``x``: sketch bits, b-tree
    bits per level, sign bits and their correlation over a support."""
    sketch, tree, gauss = schemas()
    y = recovery.sign_measure(gauss, x)
    return (
        [ps.measure(sketch, x).bits]
        + [b.bits for b in btree.measure(tree, x)]
        + [y, recovery.correlation(gauss, y, np.arange(0, N, 4))]
    )


@functools.lru_cache(maxsize=None)
def oracle(name):
    """``results`` of signal ``name`` recomputed from the definitions:
    brute-force sketch bits, and the sign bits and correlation from one dense
    block of entries."""
    x = signals()[name]
    sketch, tree, gauss = schemas()
    root = tree.levels[0].gauss_key
    entries = gauss.entries(np.arange(gauss.rows), np.arange(N))
    y = np.where(entries @ x >= 0, 1, -1).astype(np.int8)
    return (
        [brute_force_bits(sketch, x)]
        + [brute_force_bits(level, x, gauss_key=root) for level in tree.levels]
        + [y, entries[:, ::4].T @ y.astype(np.float64)]
    )


def assert_matches(got, want):
    assert len(got) == len(want)
    for a, b in zip(got[:-1], want[:-1]):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.allclose(got[-1], want[-1], rtol=1e-12, atol=1e-9)


@pytest.fixture
def buffers(monkeypatch):
    """Every scratch buffer that any thread, helper threads included, takes
    a view of while the test runs."""
    seen, take = {}, prf.scratch

    def recording(name, shape, dtype):
        view = root = take(name, shape, dtype)
        while isinstance(root.base, np.ndarray):
            root = root.base
        seen[id(root)] = root
        return view

    monkeypatch.setattr(prf, "scratch", recording)
    return seen


def assert_no_scratch_views(arrays, buffers):
    assert buffers  # the kernels did take their blocks from scratch
    for a in arrays:
        assert not any(np.shares_memory(a, buf) for buf in list(buffers.values()))


@pytest.mark.parametrize("count", [1, 4])
@pytest.mark.parametrize("block_words", [7, prf.BLOCK_WORDS])
def test_one_thread_measures_a_b_a(cpus, buffers, monkeypatch, count, block_words):
    monkeypatch.setattr(prf, "BLOCK_WORDS", block_words)
    cpus(count)
    xs = signals()
    want = {name: oracle(name) for name in xs}
    kept = []
    for name in ("A", "B", "A"):
        got = results(xs[name])
        assert_no_scratch_views(got, buffers)
        assert_matches(got, want[name])
        kept.append(got)
    # later calls reused the buffers without touching earlier results
    assert_matches(kept[0], want["A"])
    assert_matches(kept[1], want["B"])


@pytest.mark.parametrize("count", [1, 4])
def test_two_threads_measure_at_once(cpus, buffers, monkeypatch, count):
    monkeypatch.setattr(prf, "BLOCK_WORDS", 7)
    cpus(count)
    xs = signals()
    want = {name: oracle(name) for name in xs}
    start = threading.Barrier(2)
    got, errors = {}, []

    def run(name):
        try:
            start.wait()
            for _ in range(3):
                out = results(xs[name])
                assert_no_scratch_views(out, buffers)
                got.setdefault(name, []).append(out)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(name,)) for name in xs]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
        assert not t.is_alive()
    assert not errors, errors
    for name, outs in got.items():
        assert len(outs) == 3
        for out in outs:
            assert_matches(out, want[name])
