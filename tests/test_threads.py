"""Block loops give identical results on any number of threads.

Every loop over ``prf.BLOCK_WORDS`` blocks runs through ``prf.map_blocks``.
These tests force the thread pool on whatever machine they run on by
patching the CPU count, cut the blocks small so each call has many of them,
and shorten the interpreter's switch interval so threads interleave often.
"""

import functools
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    SIGN_CASES,
    exact_sign_measure,
    exhaustive_stats,
    exhaustive_vote,
    heavy_hitters_measure_per_bucket,
    label_partition,
    measure_signal,
    probe_all_reps,
    sign_case,
    sparse_probe_case,
    two_bucket_pipeline,
    vote_case,
)

from onebitcs import partition_sketch as ps
from onebitcs import btree, prf, recovery
from onebitcs.prf import RandomSource


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count ``map_blocks`` sees; switch threads every microsecond."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield lambda count: monkeypatch.setattr(prf, "available_cpus", lambda: count)
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture
def fresh_pool(monkeypatch):
    """Start this test's ``map_blocks`` calls without helper threads; the
    pool made here is dropped after the test, and its threads exit."""
    monkeypatch.setattr(prf, "_pool", (0, None, 0))


def run_bounded(fn, seconds=60):
    """``fn()`` on its own thread, failing if it has not returned within
    ``seconds``; its result, or its exception raised here."""
    out = {}

    def run():
        try:
            out["value"] = fn()
        except BaseException as exc:  # re-raised by the calling thread
            out["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


def sketch_case():
    """A partition sketch over 300 coordinates in 40 parts, with a signal
    that is nonzero on about half of them."""
    part = label_partition(np.arange(300) % 40)
    schema = ps.build_schema(part, 2, 0.05, seed=41)
    src = RandomSource(42)
    x = src.gaussian(np.arange(300)) * (src.uniform(np.arange(300)) < 0.5)
    return schema, x


def sketch_outputs(schema, x):
    bits = ps.measure(schema, x)
    parts, good = ps._count_sketch_decode(schema, ps._check_bits(schema, bits), None)
    sparse = np.zeros_like(x)
    sparse[[7, 150]] = x[[7, 150]] + 1.0
    probe = ps.nonzero_candidates(schema, ps.measure(schema, sparse))
    return bits.bits, parts, good, probe


@functools.lru_cache(maxsize=None)
def pipeline_oracle(case):
    """Every sketch's bits, then the sign bits, of a two-bucket pipeline
    measuring ``case`` by the dense route, serially at the default block
    size."""
    schema = two_bucket_pipeline()
    x = measure_signal(case, schema)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prf, "available_cpus", lambda: 1)
        support = heavy_hitters_measure_per_bucket(schema.support_schema, x)
        sign = recovery.sign_measure(schema.gauss_schema, x)
    return [b.bits.tobytes() for bucket in support for layer in bucket
            for b in (layer.heavy, layer.check)] + [sign.tobytes()]


def gauss_outputs():
    schema = recovery.GaussianSchema(rows=500, n=200, seed=43, noise_sigma=0.3)
    x = RandomSource(44).gaussian(np.arange(200))
    y = recovery.sign_measure(schema, x)
    return y, recovery.correlation(schema, y, np.arange(0, 200, 3))


class TestMapBlocks:
    def test_results_in_order_on_many_threads(self, cpus):
        cpus(4)
        names = set()

        def block(s):
            names.add(threading.current_thread().name)
            time.sleep(0.005)
            return s * s

        assert prf.map_blocks(block, range(16)) == [s * s for s in range(16)]
        # the caller takes blocks beside at most three helpers
        assert threading.current_thread().name in names
        assert 2 <= len(names) <= 4

    @pytest.mark.parametrize("count,blocks", [(1, 16), (4, 1), (4, 0)])
    def test_inline_without_a_pool(self, cpus, count, blocks):
        cpus(count)
        names = set()

        def block(s):
            names.add(threading.current_thread().name)
            return s

        assert prf.map_blocks(block, range(blocks)) == list(range(blocks))
        assert names <= {threading.current_thread().name}

    def test_block_error_reaches_caller(self, cpus):
        cpus(4)

        def block(s):
            if s == 5:
                raise ArithmeticError("block 5")
            return s

        with pytest.raises(ArithmeticError, match="block 5"):
            prf.map_blocks(block, range(12))

    def test_block_error_in_a_helper_reaches_caller(self, cpus):
        cpus(2)
        caller = threading.current_thread()

        def block(s):
            if threading.current_thread() is not caller:
                raise ArithmeticError("helper")
            time.sleep(0.005)
            return s

        with pytest.raises(ArithmeticError, match="helper"):
            prf.map_blocks(block, range(12))

    def test_calls_reuse_helpers_and_their_scratch(self, cpus, fresh_pool):
        cpus(2)
        caller = threading.current_thread()

        def block(s):
            time.sleep(0.005)
            prf.scratch("reuse", (8,), np.uint8)
            return threading.current_thread(), prf._scratch.reuse

        first, second = (
            {t: buf for t, buf in prf.map_blocks(block, range(8)) if t is not caller}
            for _ in range(2)
        )
        assert len(first) == 1  # one helper beside the caller
        assert first.keys() == second.keys()
        assert all(second[t] is buf for t, buf in first.items())

    # Python 3.12+ warns that a fork in a process with threads may deadlock
    # the child: this test forks one on purpose
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_child_starts_its_own_helpers(self, cpus):
        cpus(2)
        prf.map_blocks(time.sleep, [0.005] * 4)  # this process has its helpers

        def child():
            def block(s):
                time.sleep(0.01)
                return threading.current_thread().ident, s

            got = prf.map_blocks(block, range(8))
            # exit 0 only if the blocks came back in order and helpers ran some
            os._exit(0 if [s for _, s in got] == list(range(8))
                     and len({t for t, _ in got}) == 2 else 1)

        process = multiprocessing.get_context("fork").Process(target=child)
        process.start()
        process.join(timeout=60)
        if process.is_alive():
            process.kill()
            process.join()
            pytest.fail("the forked child did not finish its call within 60 s")
        assert process.exitcode == 0

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_nested_call_completes_inline_on_a_helper(self, cpus, count):
        cpus(count)

        def inner(i):
            time.sleep(0.002)
            return threading.current_thread()

        def outer(s):
            if s == 0:
                time.sleep(0.05)  # so that helpers take the other blocks
            return threading.current_thread(), prf.map_blocks(inner, range(8))

        def call():
            return threading.current_thread(), prf.map_blocks(outer, range(3))

        caller, got = run_bounded(call)
        assert len(got) == 3 and all(len(threads) == 8 for _, threads in got)
        # a call made on a helper ran on that helper alone
        for thread, threads in got:
            if thread is not caller:
                assert set(threads) == {thread}

    def test_pool_grows_with_the_cpu_count(self, cpus, fresh_pool):
        cpus(2)
        prf.map_blocks(time.sleep, [0.005] * 4)
        cpus(4)
        # four blocks meet at a barrier: they must run on four threads at once
        meet = threading.Barrier(4, timeout=20)

        def block(s):
            meet.wait()
            return threading.current_thread()

        assert len(set(prf.map_blocks(block, range(4)))) == 4

    def test_no_block_runs_after_an_error_reaches_the_caller(self, cpus):
        cpus(4)
        caller = threading.current_thread()
        lock = threading.Lock()
        running = []

        def block(s):
            with lock:
                running.append(s)
            try:
                time.sleep(0.005 if threading.current_thread() is caller else 0.03)
                if threading.current_thread() is caller:
                    raise ArithmeticError("caller")
            finally:
                with lock:
                    running.remove(s)

        with pytest.raises(ArithmeticError, match="caller"):
            prf.map_blocks(block, range(12))
        assert running == []

    def test_a_process_that_used_helpers_exits_promptly(self):
        code = (
            "import time\n"
            "from onebitcs import prf\n"
            "prf.available_cpus = lambda: 4\n"
            "assert prf.map_blocks(time.sleep, [0.01] * 8) == [None] * 8\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=20,
        )
        assert done.returncode == 0, done.stderr


class TestIdenticalOnAnyThreadCount:
    @pytest.mark.parametrize("block_words", [1, 37, 300])
    def test_partition_sketch(self, cpus, monkeypatch, block_words):
        schema, x = sketch_case()
        monkeypatch.setattr(prf, "BLOCK_WORDS", block_words)
        cpus(1)
        serial = sketch_outputs(schema, x)
        cpus(4)
        threaded = sketch_outputs(schema, x)
        for a, b in zip(serial, threaded):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("block_words", [1, 7, 200])
    def test_btree_levels(self, cpus, monkeypatch, block_words):
        # 5 nested levels, one shared gaussian draw; about 150 nonzeros, so
        # one repetition per block below 150 words and one or two at 200
        schema = btree.build_schema(300, 2, 4, 0.2, seed=47)
        src = RandomSource(48)
        x = src.gaussian(np.arange(300)) * (src.uniform(np.arange(300)) < 0.5)
        cpus(1)
        serial = [b.bits for b in btree.measure(schema, x)]
        monkeypatch.setattr(prf, "BLOCK_WORDS", block_words)
        for count in (1, 4):
            cpus(count)
            for a, b in zip(serial, btree.measure(schema, x)):
                assert np.array_equal(a, b.bits)

    @pytest.mark.parametrize("block_words", [1, 450, 2000])
    def test_gaussian_block(self, cpus, monkeypatch, block_words):
        monkeypatch.setattr(prf, "BLOCK_WORDS", block_words)
        cpus(1)
        serial = gauss_outputs()
        cpus(4)
        threaded = gauss_outputs()
        for a, b in zip(serial, threaded):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("block_words", [1, 29])
    @pytest.mark.parametrize("count", [1, 4])
    @pytest.mark.parametrize("case", ["one-bucket", "dense-tail"])
    def test_pipeline_measure_matches_per_sketch_oracle(
        self, cpus, monkeypatch, block_words, count, case
    ):
        # the sparse-block kernel (one-bucket) and the dense-block one
        # (dense-tail), in blocks of one or a few repetitions, against the
        # dense route at the default block size on one CPU
        want = pipeline_oracle(case)
        monkeypatch.setattr(prf, "BLOCK_WORDS", block_words)
        cpus(count)
        bits = recovery.measure(two_bucket_pipeline(), measure_signal(case, two_bucket_pipeline()))
        assert bits.sign_bits.tobytes() == want[-1]
        got = [b.bits.tobytes() for bucket in bits.support_bits for layer in bucket
               for b in (layer.heavy, layer.check)]
        assert got == want[:-1]

    @pytest.mark.parametrize("count", [1, 4])
    @pytest.mark.parametrize("case", SIGN_CASES)
    def test_sign_filter_matches_exact_route(self, cpus, monkeypatch, count, case):
        # one row per block, so blocks that settle every row and blocks that
        # recompute theirs run side by side
        schema, x = sign_case(case)
        monkeypatch.setattr(prf, "BLOCK_WORDS", 1)
        cpus(1)
        want = exact_sign_measure(schema, x)
        cpus(count)
        assert recovery.sign_measure(schema, x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("count", [1, 4])
    def test_probe_matches_oracle(self, cpus, monkeypatch, count):
        schema, bits = sparse_probe_case()
        monkeypatch.setattr(prf, "BLOCK_WORDS", 16)  # several blocks per sweep
        cpus(count)
        assert np.array_equal(
            ps.nonzero_candidates(schema, bits), probe_all_reps(schema, bits, 8)
        )

    @pytest.mark.parametrize("count", [1, 4])
    @pytest.mark.parametrize("case", ["dense-tail", "cap-ties"])
    def test_vote_matches_oracle(self, cpus, monkeypatch, count, case):
        # one PRF word per block: every round of the vote after the first
        # reads one repetition, in as many blocks as parts left
        schema, bits = vote_case(case)
        everything = np.arange(schema.partition.size)
        monkeypatch.setattr(prf, "BLOCK_WORDS", 1)
        cpus(count)
        parts, good = ps._count_sketch_decode(schema, ps._check_bits(schema, bits), None)
        assert np.array_equal(parts, exhaustive_vote(schema, bits, everything))
        assert np.array_equal(good, exhaustive_stats(schema, bits, parts)[0])

    def test_measure_repeats_under_contention(self, cpus, monkeypatch):
        # 35 one-repetition blocks of 2,048 buckets, 10,000 nonzeros each:
        # blocks big enough for the ufuncs to run concurrently, so a block
        # writing outside its own slice shows within a few repeats
        part = label_partition(np.arange(20000) % 4000)
        schema = ps.build_schema(part, 64, 0.05, seed=45)
        src = RandomSource(46)
        x = src.gaussian(np.arange(20000)) * (src.uniform(np.arange(20000)) < 0.5)
        monkeypatch.setattr(prf, "BLOCK_WORDS", 1)
        cpus(1)
        serial = ps.measure(schema, x).bits
        cpus(4)
        for _ in range(8):
            assert np.array_equal(ps.measure(schema, x).bits, serial)

    def test_error_in_one_measure_block_reaches_caller(self, cpus, monkeypatch):
        schema, x = sketch_case()
        monkeypatch.setattr(prf, "BLOCK_WORDS", 1)
        cpus(4)
        row_hashes = ps._row_hashes

        def failing(schema, reps, parts):
            if 3 in reps:
                raise FloatingPointError("repetition 3")
            return row_hashes(schema, reps, parts)

        monkeypatch.setattr(ps, "_row_hashes", failing)
        with pytest.raises(FloatingPointError, match="repetition 3"):
            ps.measure(schema, x)
