import math

import numpy as np
import pytest

from oracles import bucket_split, sparse_unit

from onebitcs import heavy_hitters as hh
from onebitcs.model import tail_stats
from onebitcs.prf import RandomSource, derive_key, uniform_index


class TestLayout:
    def test_small_sparsity_skips_bucketing(self):
        schema = hh.build_schema(1 << 12, 4, seed=1)
        assert schema.buckets == 1
        assert schema.bucket_of is None
        assert schema.sub_sparsity == 4

    def test_boundary_sparsity_triggers_bucketing(self):
        # k equal to log2(n) is not strictly below it: bucketed path, one bucket
        schema = hh.build_schema(1 << 16, 16, seed=1)
        assert schema.buckets == 1
        assert schema.bucket_of is not None
        assert schema.sub_sparsity == 16

    def test_large_sparsity_multiple_buckets(self):
        schema = hh.build_schema(1 << 12, 60, seed=2)
        assert schema.buckets == math.ceil(60 / 12)
        assert schema.sub_sparsity == 12

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            hh.build_schema(1 << 10, 0, seed=1)
        with pytest.raises(ValueError):
            hh.build_schema(1, 1, seed=1)


class TestBucketSplit:
    def test_single_bucket_identity(self):
        schema = hh.build_schema(256, 2, seed=3)
        x, _ = sparse_unit(256, 2, 4)
        subs = bucket_split(schema, x)
        assert len(subs) == 1
        assert np.array_equal(subs[0], x)

    def test_energy_partition_identity(self):
        schema = hh.build_schema(1 << 12, 60, seed=5)
        x = RandomSource(6).gaussian(np.arange(1 << 12))
        subs = bucket_split(schema, x)
        assert len(subs) == schema.buckets
        assert math.isclose(
            sum(float(np.sum(s**2)) for s in subs), float(np.sum(x**2)), rel_tol=1e-12
        )
        assert np.array_equal(sum(subs), x)

    def test_coverage_exactly_once(self):
        schema = hh.build_schema(1 << 10, 50, seed=7)
        counts = np.zeros(1 << 10)
        for s in bucket_split(schema, np.ones(1 << 10)):
            counts += s != 0
        assert np.all(counts == 1)

    def test_heavy_spread_within_doubled_budget(self):
        # with ~k/log2(n) buckets the per-bucket heavy count is Binomial with
        # mean log2(n); the doubled budget holds in nearly every trial
        n, k, trials = 1 << 16, 64, 60
        log_n = int(math.log2(n))
        hits = 0
        for t in range(trials):
            bucket_of = uniform_index(
                derive_key(1000 + t, 7), np.arange(n), math.ceil(k / log_n)
            )
            _, sup = sparse_unit(n, k, 2000 + t)
            counts = np.bincount(bucket_of[sup], minlength=math.ceil(k / log_n))
            hits += bool(np.all(counts <= 2 * log_n))
        assert hits / trials >= 0.95

    def test_bucketed_heaviness_implication(self):
        # a heavy hitter whose bucket keeps both a small heavy count and a
        # small tail share is a heavy hitter of its own sub-signal
        n, k = 1 << 12, 60
        schema = hh.build_schema(n, k, seed=8)
        src = RandomSource(9)
        x = src.derive(1).gaussian(np.arange(n))
        sup = src.derive(2).choice_without_replacement(n, k)
        x[sup] = 0.0
        x *= 0.3 / np.linalg.norm(x)  # dense tail with energy 0.09
        x[sup] = src.derive(3).signs(np.arange(k)) * math.sqrt((1 - 0.09) / k)
        stats = tail_stats(x, k)
        log_n = math.log2(n)
        subs = bucket_split(schema, x)
        checked = 0
        for i in stats.heavy:
            b = int(schema.bucket_of[i])
            in_bucket = schema.bucket_of == b
            heavy_in_bucket = int(np.isin(stats.heavy, np.nonzero(in_bucket)[0]).sum())
            tail_mask = in_bucket.copy()
            tail_mask[stats.heavy] = False
            bucket_tail = float(np.sum(x[tail_mask] ** 2))
            if heavy_in_bucket <= log_n and bucket_tail <= (log_n / k) * stats.tail_sq:
                sub_stats = tail_stats(subs[b], schema.sub_sparsity)
                assert i in sub_stats.heavy
                checked += 1
        assert checked > 0


class TestDecode:
    def test_exact_sparse_recovery_small_path(self):
        n, k, trials = 1 << 12, 4, 25
        wins = 0
        for t in range(trials):
            schema = hh.build_schema(n, k, seed=3000 + t)
            x, sup = sparse_unit(n, k, 4000 + t)
            bits = hh.measure(schema, x)
            found, scores, diags = hh.decode(schema, bits)
            assert found.size <= schema.cap
            wins += bool(np.isin(sup, found).all())
        assert wins / trials >= 0.9

    def test_bucketed_recovery(self):
        n, k, trials = 1 << 12, 24, 15
        wins = 0
        for t in range(trials):
            schema = hh.build_schema(n, k, seed=5000 + t)
            assert schema.buckets == 2
            x, sup = sparse_unit(n, k, 6000 + t)
            bits = hh.measure(schema, x)
            found, scores, diags = hh.decode(schema, bits)
            assert found.size <= schema.cap
            wins += bool(np.isin(sup, found).all())
        assert wins / trials >= 0.8

    def test_zero_signal(self):
        schema = hh.build_schema(1 << 10, 2, seed=10)
        found, _, _ = hh.decode(schema, hh.measure(schema, np.zeros(1 << 10)))
        assert found.size == 0

    def test_bucket_count_mismatch(self):
        schema = hh.build_schema(1 << 10, 2, seed=11)
        bits = hh.measure(schema, np.zeros(1 << 10))
        with pytest.raises(ValueError):
            hh.decode(schema, bits + bits)

    def test_rows_audit(self):
        n, k = 1 << 12, 4
        schema = hh.build_schema(n, k, seed=12)
        assert schema.total_rows == sum(s.total_rows for s in schema.sub_schemas)
        assert schema.total_rows <= 12_000 * k * math.log2(n)


@pytest.mark.parametrize("call, match", [
    (lambda: hh.build_schema(1024.5, 2, seed=1), "n must be a positive integer"),
    (lambda: hh.build_schema(1024, 2.0, seed=1), "k must be a positive integer"),
])
def test_rejects_invalid_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call()
