import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_bits, children_loop

from onebitcs import btree
from onebitcs import partition_sketch as ps
from onebitcs.prf import RandomSource


class TestBuild:
    def test_depth_example(self):
        schema = btree.build_schema(16, 1, 2, 0.1, seed=1)
        assert schema.depth == 4
        assert len(schema.levels) == 5

    def test_root_has_about_k_parts(self):
        schema = btree.build_schema(1 << 16, 8, 16, 0.05, seed=1)
        assert schema.levels[0].starts.size == 8

    def test_leaves_are_singletons(self):
        schema = btree.build_schema(100, 3, 3, 0.1, seed=1)
        assert schema.levels[-1].starts.size == 100

    def test_rejects_n_beyond_int64_indices(self):
        with pytest.raises(ValueError, match=f"n={1 << 64}"):
            btree.build_schema(1 << 64, 2, 16, 0.05, seed=1)

    def test_level_widths_nest_and_bound_every_part(self):
        sizes = [*range(1, 300), 500, 1000, 12345, 65537, (1 << 20) + 1]
        for n, k, b in itertools.product(sizes, range(1, 10), range(2, 10)):
            if k > n:
                continue
            depth = next(d for d in range(n + 1) if k * b**d >= n)
            widths = btree._level_widths(n, k, b, depth)
            assert len(widths) == depth + 1 and widths[-1] == 1
            assert -(-n // widths[0]) <= k  # root parts
            for r, (coarse, fine) in enumerate(zip(widths, widths[1:])):
                assert coarse % fine == 0
                assert coarse // fine <= b  # children of a part
                assert coarse >= -(-n // (k * b**r))

    def test_power_of_two_widths_are_the_plain_ceilings(self):
        powers = [1 << e for e in range(1, 25)]
        for n, k, b in itertools.product(powers, [1, *powers[:5]], powers[:5]):
            if k <= n and b <= n:
                depth = btree.build_schema(n, k, b, 0.1, seed=1).depth
                assert btree._level_widths(n, k, b, depth) == [
                    -(-n // (k * b**r)) for r in range(depth + 1)
                ]

    @pytest.mark.parametrize("n", [1 << 12, 1 << 24])
    def test_schema_holds_no_array(self, n):
        def arrays(value):
            if isinstance(value, np.ndarray):
                return [value]
            if isinstance(value, (tuple, list)):
                return [a for item in value for a in arrays(item)]
            if isinstance(value, dict):
                return arrays(list(value.values()))
            return arrays(vars(value)) if hasattr(value, "__dict__") else []

        schema = btree.build_schema(n, 16, 16, 0.05, seed=1)
        for level in schema.levels:  # cache the keys, so the walk sees them too
            level.schema.bucket_key, level.schema.gauss_key
        assert arrays(schema) == []

    def test_rejects_bad_branching(self):
        with pytest.raises(ValueError):
            btree.build_schema(16, 1, 1, 0.1, seed=1)

    def test_total_rows_matches_level_sum(self):
        schema = btree.build_schema(1 << 12, 8, 2, 0.1, seed=2)
        level_delta = 0.1 / (2 * 8 * schema.depth)
        reps = math.ceil(8 * math.log2(1 / level_delta))
        per_level = 2 * 3 * 32 * 8 * reps
        assert schema.total_rows == per_level * len(schema.levels)

    def test_rows_shrink_with_log_branching(self):
        # measurement count tracks 1/log b across a branching sweep
        rows = {
            b: btree.build_schema(4096, 4, b, 0.1, seed=3).total_rows
            for b in (2, 4, 16)
        }
        assert rows[2] > rows[4] > rows[16]
        predicted = math.log2(16) / math.log2(2)  # 4x fewer levels
        observed = rows[2] / rows[16]
        assert predicted / 2 <= observed <= predicted * 2

    @settings(max_examples=20, deadline=None)
    @given(st.integers(10, 400), st.integers(1, 6), st.integers(2, 7))
    def test_tree_consistency(self, n, k, b):
        k = min(k, n)
        schema = btree.build_schema(n, k, b, 0.2, seed=4)
        for r in range(len(schema.levels) - 1):
            child_starts = schema.levels[r + 1].starts
            seen = []
            for part in range(schema.levels[r].starts.size):
                kids = schema.children(r, part)
                assert kids.size <= b
                seen.append(kids)
            seen = np.concatenate(seen)
            # every child is enumerated exactly once, by exactly one parent
            assert np.array_equal(seen, np.arange(child_starts.size))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(10, 400), st.integers(1, 6), st.integers(2, 7), st.randoms())
    def test_children_of_many_parts_match_part_by_part_loop(self, n, k, b, rnd):
        k = min(k, n)
        schema = btree.build_schema(n, k, b, 0.2, seed=4)
        for r in range(len(schema.levels) - 1):
            size = schema.levels[r].starts.size
            parts = sorted(rnd.sample(range(size), rnd.randint(0, size)))
            got = schema.children(r, np.array(parts, dtype=np.int64))
            assert got.dtype == np.int64
            assert np.array_equal(got, children_loop(schema, r, parts))

    def test_children_of_the_last_part_at_the_largest_n(self):
        # at n = 2^63 - 1 a last part's first child plus the width ratio
        # passes int64, yet its children stop at the child level's last part
        schema = btree.build_schema((1 << 63) - 1, 2, 16, 0.05, seed=5)
        for r in range(schema.depth):
            parent, child = (lv.schema.partition for lv in schema.levels[r : r + 2])
            ratio = parent.width // child.width
            first = (parent.size - 1) * ratio
            kids = schema.children(r, [parent.size - 1])
            assert kids.tolist() == list(range(first, min(first + ratio, child.size)))

    @pytest.mark.parametrize("bad", [[99], [-1], [0.5], np.array([True])])
    def test_children_reject_parts_that_are_not_parts(self, bad):
        schema = btree.build_schema(256, 2, 4, 0.1, seed=5)
        assert schema.levels[0].starts.size == 2
        with pytest.raises(ValueError, match="level-0 part"):
            schema.children(0, bad)

    def test_children_reject_a_level_without_children(self):
        # the leaf level has no children, and -1 is not the leaf's parent
        schema = btree.build_schema(256, 2, 4, 0.1, seed=5)
        for level in (schema.depth, -1):
            with pytest.raises(ValueError, match=f"level {level} has no child level"):
                schema.children(level, [0])

    def test_measured_bits_shapes_match_schema(self):
        schema = btree.build_schema(256, 2, 4, 0.1, seed=5)
        bits = btree.measure(schema, np.zeros(256))
        assert len(bits) == len(schema.levels)
        for level, b in zip(schema.levels, bits):
            assert b.bits.shape == (level.schema.reps, 3, level.schema.buckets, 2)


class TestMeasure:
    def test_every_level_matches_brute_force_with_the_root_key(self):
        n = 64
        schema = btree.build_schema(n, 2, 4, 0.1, seed=11)
        src = RandomSource(12)
        x = src.gaussian(np.arange(n)) * (src.uniform(np.arange(n)) < 0.3)
        bits = btree.measure(schema, x)
        root_key = schema.levels[0].schema.gauss_key
        for level, got in zip(schema.levels, bits):
            want = brute_force_bits(level.schema, x, gauss_key=root_key)
            assert np.array_equal(got.bits, want)


class TestDecode:
    def test_zero_signal(self):
        schema, bits = btree.build_and_measure(np.zeros(64), 64, 2, 2, 0.1, seed=6)
        result = btree.decode(schema, bits)
        assert result.indices.size == 0

    def test_single_spike_small(self):
        # e_7 in dimension 16: recover with empirical rate >= 95%
        hits = 0
        trials = 60
        for t in range(trials):
            x = np.zeros(16)
            x[7] = 1.0
            schema, bits = btree.build_and_measure(x, 16, 1, 2, 0.05, seed=700 + t)
            result = btree.decode(schema, bits)
            hits += bool(7 in result.indices)
        assert hits / trials >= 0.95

    def test_exact_sparse_descent(self):
        n, k, b, trials = 1 << 12, 4, 8, 40
        hits = 0
        for t in range(trials):
            src = RandomSource(800 + t)
            sup = src.derive(1).choice_without_replacement(n, k)
            x = np.zeros(n)
            x[sup] = src.derive(2).signs(np.arange(k)) / math.sqrt(k)
            schema, bits = btree.build_and_measure(x, n, k, b, 0.05, seed=900 + t)
            result = btree.decode(schema, bits)
            assert result.indices.size <= schema.cap
            hits += bool(np.isin(sup, result.indices).all())
        assert hits / trials >= 1 - 2 * 0.05 - 3 * math.sqrt(0.1 * 0.9 / trials)

    def test_descent_under_widths_that_are_not_the_plain_ceilings(self):
        # at n = 1000, k = 3, b = 7 the widths are 343, 49, 7, 1, not
        # ceil(n / (k b^r)) = 334, 48, 7, 1
        n, k, b, trials = 1000, 3, 7, 30
        hits = 0
        for t in range(trials):
            src = RandomSource(1100 + t)
            sup = src.derive(1).choice_without_replacement(n, k)
            x = np.zeros(n)
            x[sup] = src.derive(2).signs(np.arange(k)) / math.sqrt(k)
            schema, bits = btree.build_and_measure(x, n, k, b, 0.05, seed=1200 + t)
            assert [lv.schema.partition.width for lv in schema.levels] == [343, 49, 7, 1]
            hits += bool(np.isin(sup, btree.decode(schema, bits).indices).all())
        assert hits / trials >= 1 - 2 * 0.05 - 3 * math.sqrt(0.1 * 0.9 / trials)

    def test_query_budget(self):
        n, k, b = 1 << 12, 4, 8
        x = np.zeros(n)
        x[5] = 1.0
        schema, bits = btree.build_and_measure(x, n, k, b, 0.05, seed=7)
        result = btree.decode(schema, bits)
        t0 = schema.levels[0].starts.size
        assert result.point_queries <= t0 + b * schema.cap * schema.depth

    def test_locality_bit_reads_below_total(self):
        # descent touches a vanishing fraction of the stored bits
        n, k, b = 1 << 14, 2, 16
        x = np.zeros(n)
        x[12345] = 1.0
        schema, bits = btree.build_and_measure(x, n, k, b, 0.1, seed=8)
        result = btree.decode(schema, bits)
        total_bits = schema.total_rows
        assert result.bit_reads < total_bits

    def test_malformed_bits_below_an_empty_level_raise(self):
        # the zero signal empties the root level, so no level below it is
        # voted on, yet every level's bits are checked
        n = 1 << 12
        schema, bits = btree.build_and_measure(np.zeros(n), n, 4, 16, 0.1, seed=10)
        assert btree.decode(schema, bits).per_level_survivors[0] == 0
        bits[1] = ps.SketchBits(bits=np.ones((1, 3, 2, 2), dtype=np.int8))
        with pytest.raises(ValueError, match="bit tensor"):
            btree.decode(schema, bits)

    def test_level_mismatch_rejected(self):
        schema, bits = btree.build_and_measure(np.zeros(64), 64, 2, 2, 0.1, seed=9)
        with pytest.raises(ValueError):
            btree.decode(schema, bits[:-1])

    def test_decode_ops_sublinear_in_n(self):
        # fixed k, b: queries grow ~log n while n grows 4x per step
        ratios = []
        for exp in (10, 12, 14, 16):
            n = 1 << exp
            x = np.zeros(n)
            x[n // 3] = 1.0
            schema, bits = btree.build_and_measure(x, n, 2, 4, 0.1, seed=10 + exp)
            result = btree.decode(schema, bits)
            ratios.append((result.point_queries + result.bit_reads) / n)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))


class TestChooseBranching:
    def test_reference_point(self):
        # (8 * log2(2^16 / (1/16)))^1 = 8 * 20 = 160
        assert btree.choose_branching(1 << 16, 8, 1 / 16, 1.0) == 160

    def test_small_gamma_clamps_to_two(self):
        assert btree.choose_branching(1 << 16, 8, 1 / 16, 0.01) == 2

    def test_deterministic(self):
        a = btree.choose_branching(4096, 4, 0.05, 0.5)
        assert a == btree.choose_branching(4096, 4, 0.05, 0.5)

    def test_rejects_bad_gamma(self):
        for gamma in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError):
                btree.choose_branching(4096, 4, 0.05, gamma)

    @given(
        st.integers(4, 2**20),
        st.integers(1, 64),
        st.floats(1e-4, 0.5),
        st.floats(0.05, 1.0),
    )
    def test_matches_formula(self, n, k, delta, gamma):
        want = max(2, math.floor((k * math.log2(n / delta)) ** gamma + 0.5))
        assert btree.choose_branching(n, k, delta, gamma) == want


@pytest.mark.parametrize("call, match", [
    (lambda: btree.build_schema(256, 2, 4, 0.0, seed=1), "delta must be in"),
    (lambda: btree.build_schema(256, 2, 4, 1.0, seed=1), "delta must be in"),
    (lambda: btree.choose_branching(0, 2, 0.1, 0.5), "n must be a positive integer"),
    (lambda: btree.choose_branching(256, 0, 0.1, 0.5), "k must be a positive integer"),
    (lambda: btree.choose_branching(256, 2, 1.0, 0.5), "delta must be in"),
    (lambda: btree.choose_branching(1024, 2.5, 0.1, 0.5), "k must be a positive integer"),
    (lambda: btree.choose_branching(1024, True, 0.1, 0.5), "k must be a positive integer"),
    (lambda: btree.choose_branching(1024.0, 2, 0.1, 0.5), "n must be a positive integer"),
    (lambda: btree.choose_branching(1024, 2, 0.1, math.nan), "gamma must be in"),
    (lambda: btree.build_schema(256, 2.5, 4, 0.1, seed=1), "k must be a positive integer"),
    (lambda: btree.build_schema(256.0, 2, 4, 0.1, seed=1), "n must be a positive integer"),
    (lambda: btree.build_schema(256, 2, 4.0, 0.1, seed=1), "b must be a positive integer"),
    (lambda: btree.build_schema(256, True, 4, 0.1, seed=1), "k must be a positive integer"),
])
def test_rejects_invalid_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call()
