import hashlib
import math

import numpy as np
import pytest

from oracles import (
    SIGN_CASES,
    ascent_oracle,
    dual_bound,
    exact_sign_measure,
    random_instances,
    sign_case,
    sparse_unit,
)

from onebitcs import expander, prf, recovery
from onebitcs import partition_sketch as ps
from onebitcs.prf import RandomSource


def sha256(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


# sha256 of the sign bits and of one block of G, recorded with the earlier
# out-of-place, unblocked PRF kernels: a kernel change that moves any bit of
# either fails here
PINNED = {
    101: ("0146c1c53cf2e97353cc0b5f2b3c978a5aa286a5288301c2bc99985f30b95655",
          "2bf57337c49e2b20be51c0c2342c07e9907a3fd5f6372598fa1b0088e3777f08"),
    202: ("52da62f029e414fed0968044c9aed711683fd40b0fb42fed34c4ec0d865fdf1f",
          "46ffc432c77c19d49e5641bd221eb5a0b0212e9ed53d0a9d513ff91857278be9"),
}


def pinned_case(seed):
    """(schema, x): 300 rows over n = 4096, dense (seed 101) or half-sparse
    with pre-quantization noise (seed 202)."""
    noise, density = {101: (0.0, 1.0), 202: (0.5, 0.5)}[seed]
    schema = recovery.GaussianSchema(rows=300, n=4096, seed=seed, noise_sigma=noise)
    src = RandomSource(seed)
    x = src.gaussian(np.arange(4096)) * (src.uniform(np.arange(4096)) < density)
    return schema, x


class TestSolve:
    def test_pinned_case_against_grid(self):
        # c = (3, 1), radius 1: brute grid over the feasible square
        grid = np.linspace(-1, 1, 401)
        zz = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
        feasible = zz[
            (np.abs(zz).sum(axis=1) <= 1.0) & (np.linalg.norm(zz, axis=1) <= 1.0)
        ]
        objective = feasible @ np.array([3.0, 1.0])
        best = feasible[np.argmax(objective)]
        z = recovery.solve_l1l2(np.array([3.0, 1.0]), 1.0)
        assert np.allclose(z, [1.0, 0.0], atol=1e-12)
        assert np.linalg.norm(best - z) <= 0.01  # grid resolution

    def test_inactive_l1_constraint(self):
        c = np.array([1.0, -2.0, 0.5])
        z = recovery.solve_l1l2(c, math.sqrt(3))  # sqrt(dim) makes l1 slack
        assert np.allclose(z, c / np.linalg.norm(c), atol=1e-12)

    def test_zero_vector(self):
        assert np.array_equal(recovery.solve_l1l2(np.zeros(4), 2.0), np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            recovery.solve_l1l2(np.array([1.0, bad, 0.5]), 1.0)

    def test_rejects_empty_support(self):
        with pytest.raises(ValueError):
            recovery.solve_l1l2(np.empty(0), 1.0)

    def test_feasibility_always(self):
        C, dims, radius = random_instances(300, 6, seed=1)
        for c, d, r in zip(C, dims, radius):
            z = recovery.solve_l1l2(c[:d], r)
            assert np.abs(z).sum() <= r + 1e-9
            assert np.linalg.norm(z) <= 1 + 1e-9

    def test_matches_ascent_oracle(self):
        C, dims, radius = random_instances(200, 5, seed=2)
        oracle = ascent_oracle(C, radius)
        for c, d, r, want in zip(C, dims, radius, oracle):
            got = float(c[:d] @ recovery.solve_l1l2(c[:d], r))
            assert abs(got - want) <= 1e-6

    def test_matches_dual_certificate(self):
        C, dims, radius = random_instances(400, 5, seed=3)
        bound = dual_bound(C, radius)
        for c, d, r, want in zip(C, dims, radius, bound):
            got = float(c[:d] @ recovery.solve_l1l2(c[:d], r))
            assert abs(got - want) <= 1e-8

    def test_dominates_random_feasible_points(self):
        rng = np.random.default_rng(4)
        c = rng.standard_normal(8)
        radius = math.sqrt(3)
        z = recovery.solve_l1l2(c, radius)
        best = float(c @ z)
        samples = rng.standard_normal((100_000, 8))
        samples /= np.maximum(np.linalg.norm(samples, axis=1, keepdims=True), 1e-12)
        samples *= rng.random((100_000, 1))
        over = np.abs(samples).sum(axis=1) > radius
        samples[over] *= (radius / np.abs(samples[over]).sum(axis=1))[:, None]
        assert best >= (samples @ c).max() - 1e-9


class TestGaussianMeasurements:
    @pytest.mark.parametrize("field, value", [("rows", 2.5), ("rows", True), ("n", 16.0),
                                              ("n", 0), ("rows", -1)])
    def test_rejects_a_dimension_that_is_not_a_positive_integer(self, field, value):
        with pytest.raises(ValueError, match=field):
            recovery.GaussianSchema(**{"rows": 64, "n": 16, "seed": 5, field: value})

    def test_zero_signal_all_plus(self):
        schema = recovery.GaussianSchema(rows=64, n=16, seed=5)
        assert np.all(recovery.sign_measure(schema, np.zeros(16)) == 1)

    def test_basis_vector_sign_symmetry(self):
        schema = recovery.GaussianSchema(rows=10**5, n=8, seed=6)
        x = np.zeros(8)
        x[0] = 1.0
        y = recovery.sign_measure(schema, x)
        assert abs(float(np.mean(y))) < 0.01

    def test_deterministic(self):
        schema = recovery.GaussianSchema(rows=512, n=32, seed=7)
        x = RandomSource(8).gaussian(np.arange(32))
        assert np.array_equal(
            recovery.sign_measure(schema, x), recovery.sign_measure(schema, x)
        )

    def test_entries_regenerate_consistently(self):
        schema = recovery.GaussianSchema(rows=32, n=64, seed=9)
        block = schema.entries(np.arange(32), np.arange(64))
        # row-block and column-subset paths agree with the full block
        assert np.allclose(block[5:9, [3, 7]], schema.entries(np.arange(5, 9), [3, 7]))

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_pinned_digests(self, monkeypatch, seed):
        schema, x = pinned_case(seed)
        bits_digest, entries_digest = PINNED[seed]
        assert sha256(recovery.sign_measure(schema, x)) == bits_digest
        assert sha256(schema.entries(np.arange(40), np.arange(0, 5000, 7))) == entries_digest
        monkeypatch.setattr(prf, "BLOCK_WORDS", 1)  # one row per block
        assert sha256(recovery.sign_measure(schema, x)) == bits_digest

    @pytest.mark.parametrize("block_words", [1, 1000, 1 << 16])
    def test_correlation_matches_dense_block(self, monkeypatch, block_words):
        schema, x = pinned_case(202)
        y = recovery.sign_measure(schema, x)
        support = np.nonzero(x)[0][:60]
        G = schema.entries(np.arange(schema.rows), support)
        dense = G.T @ y
        monkeypatch.setattr(prf, "BLOCK_WORDS", block_words)
        c = recovery.correlation(schema, y, support)
        # blocking may reorder the sums; any order is within
        # (rows - 1) * eps * sum|terms| of the exact sum
        bound = 2 * (schema.rows - 1) * np.finfo(float).eps * np.abs(G).sum(axis=0)
        assert np.all(np.abs(c - dense) <= bound)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        schema = recovery.GaussianSchema(rows=64, n=16, seed=5)
        x = np.ones(16)
        x[3] = bad
        with pytest.raises(ValueError):
            recovery.sign_measure(schema, x)

    @pytest.mark.parametrize("column", [16 + 5, -1])
    def test_correlation_rejects_columns_outside_n(self, column):
        schema = recovery.GaussianSchema(rows=64, n=16, seed=5)
        y = recovery.sign_measure(schema, np.ones(16))
        with pytest.raises(ValueError, match="out of range"):
            recovery.correlation(schema, y, [0, column])

    @pytest.mark.parametrize("bad", [[3.7], [0, 2.0], np.array([True])])
    def test_correlation_rejects_non_integer_columns(self, bad):
        schema = recovery.GaussianSchema(rows=64, n=16, seed=5)
        y = recovery.sign_measure(schema, np.ones(16))
        with pytest.raises(ValueError, match="integers"):
            recovery.correlation(schema, y, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_correlation_rejects_non_finite_measurements(self, bad):
        schema = recovery.GaussianSchema(rows=64, n=16, seed=5)
        y = recovery.sign_measure(schema, np.ones(16)).astype(np.float64)
        y[7] = bad
        with pytest.raises(ValueError, match="finite"):
            recovery.correlation(schema, y, [0, 1])

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -1.0])
    def test_rejects_a_noise_sigma_that_is_not_finite_and_nonnegative(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma"):
            recovery.GaussianSchema(rows=64, n=16, seed=5, noise_sigma=sigma)

    def test_noise_changes_bits(self):
        x = RandomSource(10).gaussian(np.arange(32)) * 0.01
        quiet = recovery.GaussianSchema(rows=2048, n=32, seed=11, noise_sigma=0.0)
        loud = recovery.GaussianSchema(rows=2048, n=32, seed=11, noise_sigma=5.0)
        assert not np.array_equal(
            recovery.sign_measure(quiet, x), recovery.sign_measure(loud, x)
        )


class TestPipeline:
    def test_spike_recovery(self):
        n, k = 1 << 10, 1
        wins = 0
        trials = 20
        for t in range(trials):
            schema = recovery.build_pipeline(n, k, 0.25, seed=100 + t, gauss_rows=2000)
            x = np.zeros(n)
            x[17] = 1.0
            bits = recovery.measure(schema, x)
            estimate, diag = recovery.decode(schema, bits)
            err = float(np.sum((x - estimate.to_dense(n)) ** 2))
            wins += err <= 0.25
        assert wins / trials >= 0.9

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_probe_leaves_sparse_decode_unchanged(self, monkeypatch, seed):
        # k = 24 >= log2(n) = 11: the support sketch hashes into 3 buckets
        n, k = 1 << 11, 24
        schema = recovery.build_pipeline(n, k, 0.25, seed=seed)
        assert schema.support_schema.buckets >= 2
        x, _ = sparse_unit(n, k, 60 + seed)
        bits = recovery.measure(schema, x)
        probed, _ = recovery.decode(schema, bits)
        # the vote over every part in place of the probe's survivors
        monkeypatch.setattr(ps, "_nonzero_candidates", lambda s, pairs: np.arange(s.partition.size))
        exhaustive, _ = recovery.decode(schema, bits)
        assert probed.indices.size > 0
        assert np.array_equal(probed.indices, exhaustive.indices)
        assert probed.values.tobytes() == exhaustive.values.tobytes()

    def test_zero_signal_flagged(self):
        n, k = 256, 2
        schema = recovery.build_pipeline(n, k, 0.5, seed=12, gauss_rows=64)
        estimate, diag = recovery.decode(schema, recovery.measure(schema, np.zeros(n)))
        assert diag.support.size == 0
        assert estimate.indices.size == 0

    @pytest.mark.parametrize(
        "signal,corrupt",
        [
            ("spike", lambda y: y * 3),
            ("spike", lambda y: np.full(y.shape, 0.5)),
            ("spike", lambda y: y.astype(np.int16)),
            ("zero", lambda y: y[:-1]),  # the support comes back empty
        ],
        ids=["tripled", "float-halves", "int16", "short-zero-signal"],
    )
    def test_decode_rejects_malformed_sign_bits(self, signal, corrupt):
        n, k = 256, 2
        schema = recovery.build_pipeline(n, k, 0.5, seed=12, gauss_rows=64)
        x = np.zeros(n)
        if signal == "spike":
            x[17] = 1.0
        bits = recovery.measure(schema, x)
        bad = recovery.PipelineBits(bits.support_bits, corrupt(bits.sign_bits))
        with pytest.raises(ValueError, match="sign bits"):
            recovery.decode(schema, bad)

    def test_decode_rejects_malformed_check_bits_of_a_zero_signal(self):
        # no name is heavy, so no check sketch is voted on, yet each is checked
        n, k = 256, 2
        schema = recovery.build_pipeline(n, k, 0.5, seed=12, gauss_rows=64)
        bits = recovery.measure(schema, np.zeros(n))
        layers = list(bits.support_bits[0])
        check = ps.SketchBits(bits=np.full_like(layers[0].check.bits, 7))
        layers[0] = expander.LayerBits(heavy=layers[0].heavy, check=check)
        support = [tuple(layers), *bits.support_bits[1:]]
        bad = recovery.PipelineBits(support, bits.sign_bits)
        with pytest.raises(ValueError, match="bit tensor"):
            recovery.decode(schema, bad)

    def test_error_decomposition_identity(self):
        n, k = 1 << 10, 2
        schema = recovery.build_pipeline(n, k, 0.3, seed=13, gauss_rows=500)
        src = RandomSource(14)
        x = src.gaussian(np.arange(n))
        x /= np.linalg.norm(x)
        estimate, diag = recovery.decode(schema, recovery.measure(schema, x))
        xh = estimate.to_dense(n)
        S = diag.support
        mask = np.zeros(n, dtype=bool)
        mask[S] = True
        total = float(np.sum((x - xh) ** 2))
        on_support = float(np.sum((x[mask] - xh[mask]) ** 2))
        off_support = float(np.sum(x[~mask] ** 2))
        assert abs(total - (on_support + off_support)) <= 1e-12

    def test_row_budget_reported(self):
        schema = recovery.build_pipeline(1 << 10, 2, 0.25, seed=15)
        assert schema.total_rows == schema.support_rows + schema.gauss_rows
        assert schema.gauss_rows == recovery.default_gauss_rows(1 << 10, 2, 0.25)

    def test_more_rows_help(self):
        # median error strictly improves when the gaussian block grows 10x
        n, k = 1 << 10, 4
        src = RandomSource(16)
        sup = src.derive(1).choice_without_replacement(n, k)
        x = np.zeros(n)
        x[sup] = src.derive(2).signs(np.arange(k)) / math.sqrt(k)
        errs = {}
        for rows in (200, 2000):
            trial_errs = []
            for t in range(30):
                schema = recovery.GaussianSchema(rows=rows, n=n, seed=500 + t)
                y = recovery.sign_measure(schema, x)
                c = recovery.correlation(schema, y, sup)
                z = recovery.solve_l1l2(c, math.sqrt(k))
                xh = np.zeros(n)
                xh[sup] = z
                trial_errs.append(float(np.sum((x - xh) ** 2)))
            errs[rows] = float(np.median(trial_errs))
        assert errs[2000] < errs[200]


def recomputed_rows(monkeypatch):
    """A list that collects the rows of every ``prf.block_normals`` call."""
    rows = []
    block_normals = prf.block_normals

    def counted(keys, cols):
        rows.append(np.shape(keys)[0])
        return block_normals(keys, cols)

    monkeypatch.setattr(prf, "block_normals", counted)
    return rows


class TestSignFilter:
    @pytest.mark.parametrize("block_words", [1, 7, prf.BLOCK_WORDS])
    @pytest.mark.parametrize("case", SIGN_CASES)
    def test_bits_equal_exact_route(self, monkeypatch, case, block_words):
        schema, x = sign_case(case)
        monkeypatch.setattr(prf, "BLOCK_WORDS", block_words)
        want = exact_sign_measure(schema, x)
        rows = recomputed_rows(monkeypatch)
        assert recovery.sign_measure(schema, x).tobytes() == want.tobytes()
        if case.startswith("tail-"):
            assert sum(rows) < schema.rows // 4  # the bound settles most rows
        if case == "below-fallback":
            assert sum(rows) < schema.rows
        if case == "above-fallback":
            assert sum(rows) == schema.rows

    def test_widened_cells_recompute_every_row(self, monkeypatch):
        # half-widths of 10 exceed any |normal|, so no row can settle
        schema, x = sign_case("tail-1")
        want = exact_sign_measure(schema, x)
        monkeypatch.setattr(prf, "_CELL_HALF", prf._CELL_HALF + 10.0)
        rows = recomputed_rows(monkeypatch)
        assert recovery.sign_measure(schema, x).tobytes() == want.tobytes()
        assert sum(rows) == schema.rows

    def test_rounding_slack_covers_summation_order(self):
        # products of six exact normals (+-1) with x: summed left to right
        # they give -2 (each +1 is lost against 2**53), summed small terms
        # first +2, the exact sum; zero half-widths cannot settle the row
        products = [2.0**53, 1.0, 1.0, 1.0, 1.0, -(2.0**53 + 2)]
        left_to_right = 0.0
        for p in products:
            left_to_right += p
        small_first = products[0] + sum(products[1:5]) + products[5]
        assert (left_to_right, small_first, math.fsum(products)) == (-2.0, 2.0, 2.0)
        size = np.abs(products)
        assert recovery._unsettled(np.array([left_to_right]), np.zeros(1), size).tolist() == [0]
        # the slack is only as wide as rounding needs: a dot of 2**10 settles
        assert recovery._unsettled(np.array([2.0**10]), np.zeros(1), size).size == 0


@pytest.mark.parametrize("call, match", [
    (lambda: recovery.correlation(recovery.GaussianSchema(rows=8, n=16, seed=1), np.ones(7), [0]),
     "measurement length mismatch"),
    (lambda: recovery.solve_l1l2(np.ones(3), 0.0), "l1 bound must be positive"),
    (lambda: recovery.build_pipeline(1024, 2, 1.0, seed=1), "delta must be in"),
    (lambda: recovery.build_pipeline(1024, 2.5, 0.25, seed=1), "k must be a positive integer"),
])
def test_rejects_invalid_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_numpy_integer_dimensions_are_stored_as_ints():
    schema = recovery.GaussianSchema(rows=np.int64(8), n=np.uint32(16), seed=1)
    assert schema == recovery.GaussianSchema(rows=8, n=16, seed=1)
    assert type(schema.rows) is int and type(schema.n) is int
