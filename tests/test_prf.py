import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import derive_key_numpy, unmix64

from onebitcs import prf
from onebitcs.prf import (
    RandomSource,
    derive_key,
    fold,
    mix64,
    rademacher,
    standard_normal,
    uniform01,
    uniform_index,
)


@given(st.integers(0, 2**64 - 1), st.lists(st.integers(0, 2**32), max_size=4))
def test_derive_key_deterministic(seed, words):
    assert derive_key(seed, *words) == derive_key(seed, *words)


@pytest.mark.parametrize("seed", [-1, 0, 2**64 - 1, 2**64, 2**70,
                                  np.int64(-3), np.uint64(2**64 - 1)])
@pytest.mark.parametrize("words", [
    (), (0,), (-1, 2**64 + 5), (np.int64(-2), np.uint64(2**63), 2**70),
], ids=["none", "one", "two", "three"])
def test_derive_key_matches_the_numpy_route(seed, words):
    # seeds and words are taken mod 2**64, negatives and numpy integers too
    key = derive_key(seed, *words)
    assert type(key) is np.uint64 and key == derive_key_numpy(seed, *words)


@given(st.integers(-2**70, 2**70), st.lists(st.integers(-2**70, 2**70), max_size=3))
def test_derive_key_matches_the_numpy_route_anywhere(seed, words):
    assert derive_key(seed, *words) == derive_key_numpy(seed, *words)


def test_distinct_labels_give_distinct_streams():
    ks = {int(derive_key(9, w)) for w in range(1000)}
    assert len(ks) == 1000


def test_same_stream_twice_identical():
    src = RandomSource(123, (4, 5))
    idx = np.arange(100)
    assert np.array_equal(src.gaussian(idx), src.gaussian(idx))
    assert np.array_equal(src.signs(idx), src.signs(idx))


@pytest.mark.parametrize("seed, words", [(2.7, ()), (True, ()), (2, (1.5,)), (2, (False,))])
def test_random_source_rejects_seeds_and_words_that_are_not_integers(seed, words):
    # int() would truncate 2.7 to 2 and True to 1: another stream, silently
    with pytest.raises(ValueError, match="must be an integer"):
        RandomSource(seed).derive(*words)


def test_random_source_keys_numpy_integers_like_python_ints():
    src = RandomSource(np.int64(2)).derive(np.uint32(3), 4)
    assert src == RandomSource(2).derive(3, 4) and type(src.seed) is int
    assert src.key == RandomSource(2, (3, 4)).key


def test_gaussian_moments():
    # one million draws: mean within 0.01 of 0, variance within 0.01 of 1
    g = standard_normal(derive_key(7, 1), np.arange(10**6))
    assert abs(g.mean()) < 0.01
    assert abs(g.var() - 1.0) < 0.01


def test_uniform_range_and_sign_balance():
    u = uniform01(derive_key(3), np.arange(10**5))
    assert u.min() > 0.0 and u.max() < 1.0
    s = rademacher(derive_key(4), np.arange(10**5))
    assert set(np.unique(s)) == {-1, 1}
    assert abs(s.mean()) < 0.02


def unmix64(z: int) -> int:
    """The word ``mix64`` maps to ``z``: each xor-shift and multiply of the
    splitmix64 finalizer undone in reverse order, in Python integers."""
    mask = 2**64 - 1

    def unshift(y, s):
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x

    z = unshift(z, 31)
    z = z * pow(0x94D049BB133111EB, -1, 2**64) & mask
    z = unshift(z, 27)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 2**64) & mask
    return unshift(z, 30)


@pytest.mark.parametrize("word", [0, 1 << 11, 2**64 - 2**11, 2**64 - 1])
def test_extreme_words_stay_inside_the_unit_interval(word):
    # the top 53 bits all ones would round to 1.0, whose normal is infinite
    u = prf._to_uniform(np.array([word], dtype=np.uint64))
    want = (word >> 11) * 2.0**-53 + 2.0**-54  # every other word keeps its value
    assert u[0] == (want if want < 1.0 else np.nextafter(1.0, 0.0))
    # the key whose fold with index 0 gives ``word``
    key = np.uint64(unmix64(word) ^ int(prf.col_words(0)))
    assert int(fold(key, 0)) == word
    assert 0.0 < uniform01(key, 0) < 1.0
    assert np.isfinite(standard_normal(key, np.arange(1)))
    assert np.isfinite(prf.block_normals(np.array([[key]]), prf.col_words(np.zeros((1, 1), int))))


@given(st.integers(1, 1000))
def test_uniform_index_in_range(size):
    vals = uniform_index(derive_key(11), np.arange(500), size)
    assert vals.min() >= 0 and vals.max() < size


@pytest.mark.parametrize("size", [1, 2, 97, 4096, 4913, 2**32 + 7, 2**62 + 1, 2**63])
def test_uniform_index_is_fold_mod_size(size):
    # 3 x 50,000 words: two full blocks of prf.BLOCK_WORDS and a partial one
    keys = np.array([derive_key(11, j) for j in range(3)])[:, None]
    idx = np.arange(50_000)
    want = (fold(keys, idx) % np.uint64(size)).astype(np.int64)
    got = uniform_index(keys, idx, size)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert np.array_equal(uniform_index(keys[1, 0], idx, size), want[1])
    assert uniform_index(keys[2, 0], 49_999, size) == want[2, 49_999]
    assert uniform_index(keys, np.arange(0), size).shape == (3, 0)


def test_uniform_index_rejects_empty_range():
    with pytest.raises(ValueError):
        uniform_index(derive_key(11), np.arange(5), 0)


def test_fold_broadcasts():
    keys = fold(derive_key(1), np.arange(3))[:, None]
    out = fold(keys, np.arange(5)[None, :])
    assert out.shape == (3, 5)
    for i in range(3):
        row = fold(fold(derive_key(1), i), np.arange(5))
        assert np.array_equal(out[i], row)


@pytest.mark.parametrize(
    "rows,cols",
    [(0, 5), (3, 0), (1, 1), (4, 6), (1, 9), (5, 1)],
    ids=["no-rows", "no-cols", "1x1", "4x6", "one-row", "one-col"],
)
def test_block_primitives_match_fold_and_standard_normal(rows, cols):
    # a column of row keys against a row of indices, broadcast to a block
    keys = fold(derive_key(5), np.arange(rows))[:, None]
    idx = np.arange(100, 100 + cols)[None, :]
    words = prf.block_words(keys, prf.col_words(idx))
    assert words.shape == (rows, cols)
    assert np.array_equal(words, fold(keys, idx))
    normals = prf.block_normals(keys, prf.col_words(idx))
    want = standard_normal(keys, idx)
    assert normals.shape == want.shape == (rows, cols)
    assert normals.tobytes() == want.tobytes()


def test_block_primitives_reuse_one_buffer_per_thread():
    keys = fold(derive_key(6), np.arange(3))[:, None]
    cols = prf.col_words(np.arange(4))[None, :]
    words = prf.block_words(keys, cols)
    normals = prf.block_normals(keys, cols)
    assert np.shares_memory(words, normals)
    # a smaller block reuses the buffer; a larger one grows it
    assert np.shares_memory(prf.block_words(keys[:1], cols), words)
    big = prf.block_words(fold(derive_key(6), np.arange(50))[:, None], cols)
    assert np.array_equal(big[:3], fold(keys, np.arange(4)[None, :]))


def _splitmix64_finalizer(z: int) -> int:
    """The splitmix64 output function in Python integers."""
    mask = (1 << 64) - 1
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_mix64_known_answers():
    # 0x9E37...7C15 is splitmix64's first state from seed 0; its published
    # first output is 0xE220A8397B1DCDAF
    words = [0, 1, 0x9E3779B97F4A7C15, 2**63, 2**64 - 1]
    words += [int(w) for w in fold(derive_key(3), np.arange(200))]
    z = np.array(words, dtype=np.uint64)
    before = z.copy()
    out = mix64(z)
    assert out.tolist() == [_splitmix64_finalizer(w) for w in words]
    assert int(out[2]) == 0xE220A8397B1DCDAF
    assert np.array_equal(z, before)  # the input is left unmodified
    assert int(mix64(np.uint64(words[2]))) == 0xE220A8397B1DCDAF
    grid = z.reshape(5, 41)
    assert np.array_equal(mix64(grid), out.reshape(5, 41))


def test_stability_across_processes():
    # equal seeds must reproduce the exact stream in a fresh interpreter
    code = (
        "import numpy as np\n"
        "from onebitcs.prf import derive_key, standard_normal, uniform_index\n"
        "g = standard_normal(derive_key(2024, 3), np.arange(8))\n"
        "h = uniform_index(derive_key(2024, 4), np.arange(8), 97)\n"
        "print(repr(g.tolist())); print(repr(h.tolist()))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    g_here = standard_normal(derive_key(2024, 3), np.arange(8))
    h_here = uniform_index(derive_key(2024, 4), np.arange(8), 97)
    assert eval(out[0]) == g_here.tolist()
    assert eval(out[1]) == h_here.tolist()


@settings(max_examples=25)
@given(st.integers(0, 2**32), st.integers(2, 64))
def test_choice_without_replacement_distinct(seed, count):
    picks = RandomSource(seed).choice_without_replacement(256, count)
    assert picks.size == count
    assert np.unique(picks).size == count
    assert picks.min() >= 0 and picks.max() < 256


def test_every_cell_holds_its_words_normals():
    # the first and last word of each of the 4,096 cells, and 64 random words
    # per cell: block_cells over keys 0 and columns unmix64(words) reads the
    # words themselves, and every exact normal lies within mid +- half
    cells = np.arange(1 << prf.CELL_BITS, dtype=np.uint64)
    low = prf.U64(64 - prf.CELL_BITS)
    span = (prf.U64(1) << low) - prf.U64(1)
    rand = fold(derive_key(3, 1), np.arange(cells.size * 64)).reshape(cells.size, 64) & span
    words = np.concatenate([(cells << low)[:, None], ((cells << low) | span)[:, None],
                            (cells << low)[:, None] | rand], axis=1)
    cols = unmix64(words)
    key = np.uint64(0)
    assert np.array_equal(prf.block_words(key, cols), words)
    exact = prf.block_normals(key, cols).copy()
    mid, half = prf.block_cells(key, cols)
    assert np.all(np.abs(exact - mid) <= half)
    # the end cells are exact; every other cell is narrower than 0.1
    assert np.array_equal(mid[[0, -1]], exact[[0, -1]])
    assert np.all(half[[0, -1]] == 0)
    assert np.all(half[1:-1] > 0) and half.max() < 0.1


@pytest.mark.parametrize("call, match", [
    (lambda: RandomSource(1).choice_without_replacement(4, 5), "cannot draw 5"),
    (lambda: uniform_index(derive_key(11), np.arange(5), 2.0), "range size must be a positive"),
    (lambda: uniform_index(derive_key(11), np.arange(5), (1 << 63) + 1), "exceeds 2\\^63"),
    (lambda: uniform_index(derive_key(11), np.arange(5), 1 << 64), "exceeds 2\\^63"),
    (lambda: RandomSource(1).indices(np.arange(5), (1 << 64) - 1), "exceeds 2\\^63"),
])
def test_rejects_invalid_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_uniform_index_takes_sizes_up_to_2_63():
    # the largest size whose indices an int64 holds: each word's low 63 bits
    want = (fold(derive_key(11), np.arange(1000)) & np.uint64((1 << 63) - 1)).astype(np.int64)
    assert np.array_equal(uniform_index(derive_key(11), np.arange(1000), 1 << 63), want)
