import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebitcs.model import (
    SparseEstimate,
    restrict,
    sign_scalar,
    sign_vector,
    tail_stats,
)

signals = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
).map(np.array)


def brute_tail_sq(x, k):
    # independent route: sort magnitudes, drop the k largest, sum squares
    mags = sorted((abs(v), i) for i, v in enumerate(x))
    return sum(m * m for m, _ in mags[: max(0, len(x) - k)])


class TestSign:
    def test_zero_is_positive(self):
        assert sign_scalar(0.0) == 1

    def test_negative(self):
        assert sign_scalar(-0.5) == -1

    def test_positive(self):
        assert sign_scalar(3.2) == 1

    def test_rejects_nan_and_inf(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                sign_scalar(bad)

    def test_vector_matches_scalar(self):
        v = np.array([0.0, -0.0, 1.5, -2.5])
        assert sign_vector(v).tolist() == [sign_scalar(t) for t in v]


class TestTailStats:
    def test_basis_vector(self):
        stats = tail_stats(np.array([1.0, 0, 0, 0]), 1)
        assert stats.tail_sq == 0.0
        assert stats.heavy.tolist() == [0]

    def test_flat_vector_has_no_heavy(self):
        x = np.full(4, 0.5)
        stats = tail_stats(x, 1)
        assert math.isclose(stats.tail_sq, 0.75)
        assert stats.heavy.size == 0  # 1/4 < 3/4

    def test_one_dominant(self):
        x = np.array([2.0, 1.0, 1.0, 1.0]) / math.sqrt(7)
        stats = tail_stats(x, 1)
        assert math.isclose(stats.tail_sq, 3 / 7)
        assert stats.heavy.tolist() == [0]  # 4/7 >= 3/7

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            tail_stats(np.ones(4), 0)
        with pytest.raises(ValueError):
            tail_stats(np.ones(4), 5)

    def test_tie_break_lower_index(self):
        # equal magnitudes: the head slot goes to the lower index
        x = np.array([1.0, -1.0, 0.5])
        stats = tail_stats(x, 1)
        assert math.isclose(stats.tail_sq, 1.0 + 0.25)

    @given(signals, st.integers(1, 40))
    def test_matches_brute_force(self, x, k):
        k = min(k, x.size)
        stats = tail_stats(x, k)
        assert math.isclose(
            stats.tail_sq, brute_tail_sq(x, k), rel_tol=1e-9, abs_tol=1e-9
        )

    @given(signals, st.integers(1, 40))
    def test_heavy_set_at_most_2k(self, x, k):
        k = min(k, x.size)
        assert tail_stats(x, k).heavy.size <= 2 * k

    def test_zero_tail_heavy_is_support(self):
        x = np.array([0.0, 3.0, 0.0, -2.0, 0.0])
        stats = tail_stats(x, 3)
        assert stats.tail_sq == 0.0
        assert stats.heavy.tolist() == [1, 3]


class TestRestrict:
    def test_single(self):
        assert restrict(np.array([1.0, 2, 3]), [1]).tolist() == [0, 2, 0]

    def test_empty(self):
        assert restrict(np.array([1.0, 2, 3]), []).tolist() == [0, 0, 0]

    def test_identity(self):
        assert restrict(np.array([1.0, 2, 3]), [0, 1, 2]).tolist() == [1, 2, 3]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            restrict(np.array([1.0, 2]), [2])

    @pytest.mark.parametrize("bad", [[0.5], np.array([1.0]), np.array([True])])
    def test_non_integer_index(self, bad):
        with pytest.raises(ValueError, match="integers"):
            restrict(np.array([1.0, 2]), bad)

    @given(signals, st.sets(st.integers(0, 39)))
    def test_idempotent_and_pythagorean(self, x, subset):
        subset = {i for i in subset if i < x.size}
        r = restrict(x, subset)
        assert np.array_equal(restrict(r, subset), r)
        complement = set(range(x.size)) - subset
        assert math.isclose(
            np.sum(x**2),
            np.sum(r**2) + np.sum(restrict(x, complement) ** 2),
            rel_tol=1e-12,
            abs_tol=1e-9,
        )


class TestSparseEstimate:
    def test_round_trip_dense(self):
        est = SparseEstimate(np.array([1, 3]), np.array([0.5, -0.25]), 4)
        assert est.to_dense(5).tolist() == [0, 0.5, 0, -0.25, 0]

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SparseEstimate(np.array([1, 1]), np.array([0.5, 0.25]), 4)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SparseEstimate(np.array([-1, 2]), np.array([0.5, 0.25]), 4)

    def test_rejects_non_integer_index(self):
        with pytest.raises(ValueError, match="integers"):
            SparseEstimate(indices=[1.5], values=[1.0], sparsity_bound=1)

    def test_rejects_overfull(self):
        with pytest.raises(ValueError):
            SparseEstimate(np.array([0, 1, 2]), np.zeros(3), 2)
