import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebitcs import signals
from onebitcs.model import tail_stats
from onebitcs.prf import RandomSource


@given(
    st.sampled_from(signals.MODELS),
    st.integers(4, 256),
    st.integers(1, 8),
    st.integers(0, 10**6),
)
@settings(max_examples=60)
def test_unit_norm_and_determinism(model, n, k, seed):
    k = min(k, n // 2 if model == signals.SPARSE_PLUS_TAIL else n)
    k = max(k, 1)
    src = RandomSource(seed)
    x = signals.gen_signal(model, n, k, src)
    assert x.shape == (n,)
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
    assert np.array_equal(x, signals.gen_signal(model, n, k, src))


def test_exact_sparse_is_signed_basis_at_k1():
    x = signals.gen_signal(signals.EXACT_SPARSE, 64, 1, RandomSource(5))
    assert np.count_nonzero(x) == 1
    assert abs(abs(x[np.nonzero(x)][0]) - 1.0) <= 1e-12


def test_exact_sparse_support_size_and_magnitudes():
    x = signals.gen_signal(signals.EXACT_SPARSE, 256, 8, RandomSource(6))
    nz = np.nonzero(x)[0]
    assert nz.size == 8
    assert np.allclose(np.abs(x[nz]), 1 / math.sqrt(8))


def test_sparse_plus_tail_energy_split():
    x = signals.gen_signal(signals.SPARSE_PLUS_TAIL, 1 << 12, 4, RandomSource(7), 0.3)
    stats = tail_stats(x, 4)
    assert abs(stats.tail_sq - 0.09) <= 1e-9


def test_sparse_plus_tail_rejects_big_tail():
    with pytest.raises(ValueError):
        signals.gen_signal(signals.SPARSE_PLUS_TAIL, 64, 2, RandomSource(8), 1.0)


def test_adversarial_ties_structure():
    k = 4
    x = signals.gen_signal(signals.ADVERSARIAL_TIES, 128, k, RandomSource(9))
    nz = np.nonzero(x)[0]
    assert nz.size == 2 * k
    assert np.allclose(np.abs(x[nz]), np.abs(x[nz][0]))
    # both this boundary case and the heavy-set cap are exercised
    assert tail_stats(x, k).heavy.size == 2 * k


def test_dirichlet_flat_is_dense():
    x = signals.gen_signal(signals.DIRICHLET_FLAT, 256, 2, RandomSource(10))
    assert np.count_nonzero(x) == 256


def test_unknown_model_rejected():
    with pytest.raises(ValueError):
        signals.gen_signal("bogus", 16, 1, RandomSource(1))


@pytest.mark.parametrize("call, match", [
    (lambda: signals.gen_signal(signals.EXACT_SPARSE, 8, 0, RandomSource(1)), "need 1 <= k <= n"),
    (lambda: signals.gen_signal(signals.EXACT_SPARSE, 8, 9, RandomSource(1)), "need 1 <= k <= n"),
    (lambda: signals.gen_signal(signals.SPARSE_PLUS_TAIL, 8, 8, RandomSource(1)),
     "no coordinates left for the tail"),
])
def test_rejects_invalid_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call()
