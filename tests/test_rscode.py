import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebitcs.rscode import _PRIMITIVE, ChunkCode, GaloisField
from oracles import gf_mul


class TestGaloisField:
    def test_mul_identity_and_zero(self):
        gf = GaloisField(8)
        a = np.arange(256)
        assert np.array_equal(gf.mul(a, 1), a)
        assert np.array_equal(gf.mul(a, 0), np.zeros(256, dtype=np.int64))

    def test_inverse(self):
        gf = GaloisField(6)
        for a in range(1, 64):
            assert int(gf.mul(a, gf.inv(a))) == 1

    def test_mul_matches_polynomial_multiplication(self):
        # slow reference: carry-less multiply then reduce by the primitive poly
        gf = GaloisField(4)

        def slow_mul(a, b):
            acc = 0
            while b:
                if b & 1:
                    acc ^= a
                a <<= 1
                if a & 16:
                    a ^= 0x13
                b >>= 1
            return acc

        for a in range(16):
            for b in range(16):
                assert int(gf.mul(a, b)) == slow_mul(a, b)

    @pytest.mark.parametrize("t", range(2, 9))
    def test_mul_matches_shift_and_xor_on_all_pairs(self, t):
        gf = GaloisField(t)
        a, b = np.divmod(np.arange(1 << 2 * t), 1 << t)
        want = [gf_mul(int(x), int(y), t, _PRIMITIVE[t]) for x, y in zip(a, b)]
        assert gf.mul(a, b).tolist() == want
        assert [int(gf.mul(int(x), int(y))) for x, y in zip(a[:300], b[:300])] == want[:300]

    def test_rejects_unsupported_width(self):
        with pytest.raises(ValueError):
            GaloisField(1)


class TestChunkCode:
    def test_layout_from_error_fraction(self):
        code = ChunkCode.for_error_fraction(message_bits=16, length=4, e0=0.25)
        assert code.parity == 2 and code.data_symbols == 2 and code.t == 8
        assert code.chunk_errors() == 1

    def test_exhaustive_round_trip_4096(self):
        code = ChunkCode.for_error_fraction(message_bits=12, length=4, e0=0.25)
        words = code.encode_many(np.arange(1 << 12))
        for i in range(1 << 12):
            assert code.decode(words[i]) == i

    def test_codeword_table_is_shared_and_read_only(self):
        code = ChunkCode.for_error_fraction(message_bits=12, length=4, e0=0.25)
        table = code.codeword_table(3000)
        assert table.dtype == np.uint64 and not table.flags.writeable
        # one contiguous row per chunk position
        assert table.shape == (4, 3000) and table.flags.c_contiguous
        assert np.array_equal(table, code.encode_many(np.arange(3000)).T)
        assert code.codeword_table(3000) is table
        # an equal code shares the table; another n gets its own
        twin = ChunkCode.for_error_fraction(message_bits=12, length=4, e0=0.25)
        assert twin.codeword_table(3000) is table
        assert code.codeword_table(2000).shape == (4, 2000)
        with pytest.raises(ValueError):
            table[0, 0] = 1

    def test_encode_many_matches_encode(self):
        code = ChunkCode.for_error_fraction(message_bits=16, length=4, e0=0.25)
        vals = np.array([0, 1, 77, 65535])
        many = code.encode_many(vals)
        for row, v in zip(many, vals):
            assert np.array_equal(row, code.encode(int(v)))

    def test_budget_corruptions_always_recovered(self):
        code = ChunkCode.for_error_fraction(message_bits=16, length=4, e0=0.25)
        rng = np.random.default_rng(0)
        budget = int(0.25 * code.length)
        for _ in range(1000):
            v = int(rng.integers(0, 1 << 16))
            cw = code.encode(v)
            spots = rng.choice(code.length, size=budget, replace=False)
            bad = cw.copy()
            for p in spots:
                bad[p] ^= int(rng.integers(1, 1 << code.t))
            assert code.decode(bad) == v

    def test_erasure_budget(self):
        code = ChunkCode.for_error_fraction(message_bits=16, length=4, e0=0.25)
        rng = np.random.default_rng(1)
        for _ in range(300):
            v = int(rng.integers(0, 1 << 16))
            cw = code.encode(v)
            spots = rng.choice(code.length, size=code.parity, replace=False)
            bad = cw.copy()
            bad[spots] = rng.integers(0, 1 << code.t, size=code.parity)
            assert code.decode(bad, erasures=spots) == v

    def test_mixed_error_and_erasures(self):
        code = ChunkCode.for_error_fraction(message_bits=24, length=8, e0=0.25)
        assert code.parity == 4
        rng = np.random.default_rng(2)
        for _ in range(300):
            v = int(rng.integers(0, 1 << 24))
            cw = code.encode(v)
            spots = rng.choice(code.length, size=3, replace=False)
            bad = cw.copy()
            bad[spots[0]] ^= int(rng.integers(1, 1 << code.t))
            bad[spots[1:]] = rng.integers(0, 1 << code.t, size=2)
            assert code.decode(bad, erasures=spots[1:]) == v

    def test_all_erased_fails(self):
        code = ChunkCode.for_error_fraction(message_bits=16, length=4, e0=0.25)
        assert code.decode(np.zeros(4, dtype=np.int64), erasures=range(4)) is None

    def test_malformed_input_rejected(self):
        code = ChunkCode.for_error_fraction(message_bits=16, length=4, e0=0.25)
        with pytest.raises(ValueError):
            code.decode(np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError):
            code.decode(np.full(4, 1 << code.t))
        with pytest.raises(ValueError):
            code.decode(np.zeros(4, dtype=np.int64), erasures=[9])
        with pytest.raises(ValueError):
            code.encode(1 << 16)

    def test_non_integer_symbols_rejected(self):
        code = ChunkCode.for_error_fraction(message_bits=16, length=4, e0=0.25)
        with pytest.raises(ValueError, match="integers"):
            code.decode(code.encode(17) + 0.4)  # truncated, it would decode 17

    @pytest.mark.parametrize("erasures", [[0.7], [True], np.array([1.0])])
    def test_non_integer_erasures_rejected(self, erasures):
        # truncated, [0.7] would erase position 0 and [True] position 1
        code = ChunkCode.for_error_fraction(message_bits=16, length=4, e0=0.25)
        with pytest.raises(ValueError, match="erasure position must be integers"):
            code.decode(code.encode(17), erasures)
        assert code.decode(code.encode(17), []) == 17

    def test_matches_nearest_codeword_oracle(self):
        # independent route: exhaustive nearest-codeword decoding
        code = ChunkCode(message_bits=8, length=5, t=4, parity=2)
        table = code.encode_many(np.arange(256))
        rng = np.random.default_rng(3)

        def oracle(symbols):
            dist = (table != np.asarray(symbols)[None, :]).sum(axis=1)
            best = int(np.argmin(dist))
            if dist[best] <= code.chunk_errors() and (dist == dist[best]).sum() == 1:
                return best
            return None

        for _ in range(2000):
            v = int(rng.integers(256))
            bad = code.encode(v)
            for p in rng.choice(5, size=int(rng.integers(0, 3)), replace=False):
                bad[p] ^= int(rng.integers(1, 16))
            got = code.decode(bad)
            want = oracle(bad)
            if want is not None:
                assert got == want
            else:
                # beyond budget: either detected or a (rare) wrong codeword,
                # but never a silent non-codeword
                if got is not None:
                    assert np.array_equal(code.encode(got), code.encode(got))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, (1 << 20) - 1), st.integers(0, 4))
    def test_random_code_random_damage(self, value, n_bad):
        code = ChunkCode.for_error_fraction(message_bits=20, length=10, e0=0.2)
        cw = code.encode(value)
        rng = np.random.default_rng(value + n_bad)
        spots = rng.choice(code.length, size=n_bad, replace=False)
        bad = cw.copy()
        for p in spots[: n_bad // 2]:
            bad[p] ^= int(rng.integers(1, 1 << code.t))
        erased = spots[n_bad // 2 :]
        bad[erased] = 0
        if 2 * (n_bad // 2) + len(erased) <= code.parity:
            assert code.decode(bad, erasures=erased) == value


@pytest.mark.parametrize("call, error, match", [
    (lambda: GaloisField(4).inv(0), ZeroDivisionError, "inverse of 0"),
    (lambda: ChunkCode(message_bits=8, length=4, t=4, parity=4), ValueError,
     "parity symbol count out of range"),
    (lambda: ChunkCode(message_bits=20, length=4, t=2, parity=0), ValueError, "cannot hold"),
    (lambda: ChunkCode(message_bits=4, length=8, t=2, parity=0), ValueError,
     "longer than field order"),
    (lambda: ChunkCode.for_error_fraction(8, 4, 0.5), ValueError, "correctable fraction"),
    (lambda: ChunkCode.for_error_fraction(8, 0, 0.25), ValueError, "no data symbols left"),
])
def test_rejects_invalid_arguments(call, error, match):
    with pytest.raises(error, match=match):
        call()
