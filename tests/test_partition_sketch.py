import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    VOTE_CASES,
    brute_force_bits,
    crowded_signal,
    exhaustive_reps,
    exhaustive_stats,
    exhaustive_vote,
    label_partition,
    planted_signal,
    probe_all_reps,
    row_hash,
    sparse_probe_case,
    vote_case,
)

from onebitcs import partition_sketch as ps
from onebitcs import btree, prf, recovery
from onebitcs.prf import RandomSource, fold, standard_normal


class TestBuild:
    def test_row_count_formula(self):
        part = ps.PartitionFamily.contiguous(4096, 512)
        schema = ps.build_schema(part, k=8, delta=2.0**-4, seed=1)
        assert schema.reps == 32
        assert schema.rows == 2 * 3 * (32 * 8) * 32 == 49152

    @given(st.integers(1, 20), st.floats(1e-6, 0.99))
    def test_row_count_all_params(self, k, delta):
        part = ps.PartitionFamily.contiguous(64, 8)
        schema = ps.build_schema(part, k, delta, seed=3)
        expected_reps = max(1, math.ceil(8 * math.log2(1 / delta)))
        assert schema.reps == expected_reps
        assert schema.rows == 2 * 3 * 32 * k * expected_reps

    def test_rejects_bad_delta(self):
        part = ps.PartitionFamily.contiguous(16, 4)
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                ps.build_schema(part, 1, bad, seed=1)

    def test_rejects_buckets_beyond_hash_slice(self):
        # a bucket index is a multiply-shift reduction of a 20-bit slice
        part = ps.PartitionFamily.contiguous(16, 4)
        wide = ps.build_schema(part, 2, 0.5, seed=1,
                               constants=ps.SketchConstants(bucket_factor=2**19))
        assert wide.buckets == 2**20
        with pytest.raises(ValueError):
            ps.build_schema(part, 1, 0.5, seed=1,
                            constants=ps.SketchConstants(bucket_factor=2**20 + 1))

    @pytest.mark.parametrize("field", ["bucket_factor", "rep_factor", "cap_factor"])
    def test_rejects_a_zero_constant(self, field):
        part = ps.PartitionFamily.contiguous(16, 4)
        with pytest.raises(ValueError, match=field):
            ps.build_schema(part, 1, 0.5, seed=1, constants=ps.SketchConstants(**{field: 0}))


class TestPartitionFamily:
    def test_contiguous_widths(self):
        part = ps.PartitionFamily.contiguous(10, 4)
        assert part.size == 4
        assert part.parts_of(np.arange(10)).tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]

    def test_rejects_bad_starts(self):
        with pytest.raises(ValueError):
            ps.PartitionFamily(n=4, size=2, starts=np.array([1, 2]))

    def test_interval_parts_of_rejects_out_of_range(self):
        part = ps.PartitionFamily.contiguous(10, 4)
        with pytest.raises(ValueError, match="out of range"):
            part.parts_of([-1, 99])

    def test_label_parts_of_rejects_out_of_range(self):
        part = label_partition([0, 2, 1, 2])
        with pytest.raises(ValueError, match="out of range"):
            part.parts_of([4])

    @pytest.mark.parametrize("labels", [None, [0, 2, 1, 2]])
    @pytest.mark.parametrize("bad", [1.5, [0.7], np.array([1.0, 2.0]), np.array([True, False])])
    def test_parts_of_rejects_non_integer_coordinates(self, labels, bad):
        part = ps.PartitionFamily.contiguous(4, 2) if labels is None else label_partition(labels)
        with pytest.raises(ValueError, match="integers"):
            part.parts_of(bad)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.uint64])
    def test_parts_of_takes_every_integer_dtype(self, dtype):
        part = label_partition([0, 2, 1, 2])
        assert part.parts_of(np.arange(4, dtype=dtype)).tolist() == [0, 2, 1, 2]
        assert part.parts_of([]).size == 0

    def test_names_rank_among_keys(self):
        names = np.array([[9, 3, 9, 7, 3]], dtype=np.uint64)
        part = ps.PartitionFamily.from_names(names)
        assert part.size == 3 and part.keys.tolist() == [[3, 7, 9]]
        assert part.parts_of(np.arange(5)).tolist() == [2, 0, 2, 1, 0]
        assert part.parts_of([[4, 0], [3, 3]]).tolist() == [[0, 2], [1, 1]]

    def test_rejects_names_without_keys(self):
        names = np.zeros((1, 4), dtype=np.uint64)
        with pytest.raises(ValueError, match="together"):
            ps.PartitionFamily(n=4, size=1, names=names)
        with pytest.raises(ValueError, match="uint64"):
            ps.PartitionFamily(n=4, size=1, names=names, keys=np.zeros((2, 1), dtype=np.uint64))


class TestMeasure:
    def test_zero_signal_all_plus_one(self):
        part = ps.PartitionFamily.contiguous(64, 8)
        schema = ps.build_schema(part, 2, 0.25, seed=9)
        bits = ps.measure(schema, np.zeros(64))
        assert np.all(bits.bits == 1)

    @pytest.mark.parametrize(
        "n,parts,density",
        # at most 12 occupied parts, fewer than the 64 buckets: z is summed
        # over the touched rows only; about 125 occupied parts: over all rows
        [(48, 12, 0.4), (300, 150, 0.6)],
        ids=["entries-below-rows", "entries-above-rows"],
    )
    def test_matches_brute_force_definition(self, n, parts, density):
        part = ps.PartitionFamily.contiguous(n, parts)
        schema = ps.build_schema(part, 2, 0.4, seed=11)
        src = RandomSource(5)
        x = src.gaussian(np.arange(n)) * (src.uniform(np.arange(n)) < density)
        assert np.array_equal(ps.measure(schema, x).bits, brute_force_bits(schema, x))

    def test_single_coordinate_bits(self):
        n, parts = 64, 16
        part = ps.PartitionFamily.contiguous(n, parts)
        schema = ps.build_schema(part, 2, 0.4, seed=13)
        x = np.zeros(n)
        x[37] = 2.5
        j_star = int(part.parts_of([37])[0])
        bits = ps.measure(schema, x)
        for r in range(schema.reps):
            g = float(standard_normal(fold(schema.gauss_key, r), np.array(37)))
            for sub, (b, sg) in enumerate(row_hash(schema, r, j_star)):
                want = sg * (1 if g * 2.5 >= 0 else -1)
                assert bits.bits[r, sub, b, 0] == want
                # all other buckets are empty: (+1, +1) pairs
                mask = np.ones(schema.buckets, dtype=bool)
                mask[b] = False
                assert np.all(bits.bits[r, sub, mask] == 1)

    def test_overflowed_sums_raise(self):
        # finite entries whose weighted sums pass the float range: every
        # measure refuses the signal instead of writing rows as NaN
        x = np.zeros(64)
        x[[1, 2, 9, 10]] = [1.7e308, 1.7e308, -1.7e308, 1.7e308]
        schema = ps.build_schema(ps.PartitionFamily.contiguous(64, 8), 2, 0.25, seed=9)
        tree = btree.build_schema(64, 2, 4, 0.25, seed=9)
        pipeline = recovery.build_pipeline(64, 2, 0.25, seed=9)
        for measure in (
            lambda: ps.measure(schema, x),
            lambda: btree.measure(tree, x),
            lambda: recovery.measure(pipeline, x),
            lambda: recovery.sign_measure(pipeline.gauss_schema, x),
        ):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(ValueError, match="overflow"):
                    measure()

    def test_deterministic(self):
        part = ps.PartitionFamily.contiguous(128, 16)
        schema = ps.build_schema(part, 2, 0.3, seed=21)
        x = RandomSource(3).gaussian(np.arange(128))
        assert np.array_equal(ps.measure(schema, x).bits, ps.measure(schema, x).bits)

    def test_dimension_mismatch(self):
        part = ps.PartitionFamily.contiguous(16, 4)
        schema = ps.build_schema(part, 1, 0.5, seed=1)
        with pytest.raises(ValueError):
            ps.measure(schema, np.zeros(17))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        part = ps.PartitionFamily.contiguous(64, 64)
        schema = ps.build_schema(part, 2, 0.25, seed=9)
        x = RandomSource(4).gaussian(np.arange(64))
        x[5] = bad
        with pytest.raises(ValueError):
            ps.measure(schema, x)

    @pytest.mark.parametrize("block_words", [1, 7, 200])
    def test_independent_of_block_size(self, monkeypatch, block_words):
        # 96 nonzeros: one repetition per block below 96 words, two at 200
        part = label_partition(np.arange(96) % 20)
        schema = ps.build_schema(part, 2, 0.3, seed=23)
        x = RandomSource(8).gaussian(np.arange(96))
        bits = ps.measure(schema, x)
        pairs = ps._check_bits(schema, bits)
        vote = ps._count_sketch_decode(schema, pairs, None)
        probe = ps.nonzero_candidates(schema, bits)
        monkeypatch.setattr(prf, "BLOCK_WORDS", block_words)
        assert np.array_equal(ps.measure(schema, x).bits, bits.bits)
        for got, want in zip(ps._count_sketch_decode(schema, pairs, None), vote):
            assert np.array_equal(got, want)
        assert np.array_equal(ps.nonzero_candidates(schema, bits), probe)


def nested_label_schemas():
    """Three nested label partitions of 60 coordinates, coarsest first, whose
    part ids are not in coordinate order: each label is a function of the
    next finer one, so a coarse part's children are scattered among the
    finer ids."""
    fine = np.argsort(RandomSource(31).uniform(np.arange(60))) % 20
    middle = (fine * 7) % 10
    coarse = (middle * 3) % 4
    return [
        ps.build_schema(label_partition(lab), 2, 0.3, seed=32 + i)
        for i, lab in enumerate((coarse, middle, fine))
    ]


def irregular_label_schemas():
    """Three nested label partitions of 120 coordinates, coarsest first, with
    scattered part ids and irregular child runs.  The 40 fine parts (3
    scattered coordinates each) group into 7 middle parts of 1, 1, 2, 3, 5,
    12 and 16 children, and those into 3 coarse parts of 1, 2 and 4 middle
    parts; every id is assigned through a random permutation."""
    src = RandomSource(51)
    fine = np.argsort(src.derive(1).uniform(np.arange(120))) % 40

    def group(sizes, count, key):
        # child id -> parent id: children taken in a shuffled order, run by run
        order = np.argsort(src.derive(key).uniform(np.arange(count)))
        names = np.argsort(src.derive(key + 1).uniform(np.arange(len(sizes))))
        parent = np.empty(count, dtype=np.int64)
        parent[order] = names[np.repeat(np.arange(len(sizes)), sizes)]
        return parent

    middle = group([1, 1, 2, 3, 5, 12, 16], 40, 2)[fine]
    coarse = group([1, 2, 4], 7, 4)[middle]
    return [
        ps.build_schema(label_partition(lab), 2, 0.3, seed=52 + i)
        for i, lab in enumerate((coarse, middle, fine))
    ]


def irregular_signals(schemas):
    """Signals over ``irregular_label_schemas``: dense; about half the
    coordinates; and one coordinate in each coarse part, so every coarse
    part has exactly one occupied child."""
    coarse = schemas[0].partition.parts_of(np.arange(120))
    src = RandomSource(53)
    dense = src.gaussian(np.arange(120))
    half = dense * (src.uniform(np.arange(120)) < 0.5)
    single = np.zeros(120)
    firsts = [np.flatnonzero(coarse == part)[0] for part in range(schemas[0].partition.size)]
    single[firsts] = dense[firsts]
    return {"dense": dense, "half": half, "one-per-coarse-part": single}


class TestMeasureNested:
    @pytest.mark.parametrize("count", [1, 4])
    @pytest.mark.parametrize("block_words", [1, 7, 200, prf.BLOCK_WORDS])
    def test_irregular_runs_match_brute_force(self, monkeypatch, block_words, count):
        schemas = irregular_label_schemas()
        monkeypatch.setattr(prf, "BLOCK_WORDS", block_words)
        monkeypatch.setattr(prf, "available_cpus", lambda: count)
        for name, x in irregular_signals(schemas).items():
            bits = ps.measure_nested(schemas, x)
            for schema, got in zip(schemas, bits):
                want = brute_force_bits(schema, x, gauss_key=schemas[0].gauss_key)
                assert np.array_equal(got.bits, want), name

    def test_every_level_matches_brute_force_with_the_root_key(self):
        schemas = nested_label_schemas()
        src = RandomSource(33)
        x = src.gaussian(np.arange(60)) * (src.uniform(np.arange(60)) < 0.5)
        bits = ps.measure_nested(schemas, x)
        assert len(bits) == 3
        for schema, got in zip(schemas, bits):
            want = brute_force_bits(schema, x, gauss_key=schemas[0].gauss_key)
            assert np.array_equal(got.bits, want)

    def test_each_level_hashes_its_occupied_parts_once(self, monkeypatch):
        # a coarse part's children are scattered among the finer ids, yet
        # each level hashes every occupied part exactly once
        schemas = nested_label_schemas()
        x = np.zeros(60)
        x[::7] = 1.0
        hashed = {}
        row_hashes = ps._row_hashes

        def recording(schema, reps, parts):
            hashed.setdefault(schema.seed, []).append(np.asarray(parts))
            return row_hashes(schema, reps, parts)

        monkeypatch.setattr(ps, "_row_hashes", recording)
        ps.measure_nested(schemas, x)
        for schema in schemas:
            want = np.unique(schema.partition.parts_of(np.flatnonzero(x)))
            for parts in hashed[schema.seed]:
                assert np.array_equal(np.sort(parts), want)

    @pytest.mark.parametrize(
        "coarse,fine",
        [
            (ps.PartitionFamily.contiguous(64, 8), ps.PartitionFamily.contiguous(64, 6)),
            (ps.PartitionFamily.contiguous(64, 16), ps.PartitionFamily.contiguous(64, 4)),
            (label_partition(np.arange(60) % 3),
             label_partition(np.arange(60) % 4)),
            (ps.PartitionFamily.contiguous(60, 4),
             label_partition(np.arange(60) % 15)),
        ],
    )
    def test_rejects_partitions_that_do_not_nest(self, coarse, fine):
        schemas = [ps.build_schema(p, 2, 0.3, seed=35) for p in (coarse, fine)]
        with pytest.raises(ValueError, match="nest"):
            ps.measure_nested(schemas, np.ones(coarse.n))

    def test_accepts_intervals_nested_in_labels(self):
        coarse = label_partition(np.arange(60) // 20)
        fine = ps.PartitionFamily.contiguous(60, 6)
        schemas = [ps.build_schema(p, 2, 0.3, seed=36) for p in (coarse, fine)]
        x = RandomSource(37).gaussian(np.arange(60))
        bits = ps.measure_nested(schemas, x)
        for schema, got in zip(schemas, bits):
            want = brute_force_bits(schema, x, gauss_key=schemas[0].gauss_key)
            assert np.array_equal(got.bits, want)

    def test_rejects_unequal_repetitions(self):
        coarse, fine = nested_label_schemas()[1:]
        other = ps.build_schema(fine.partition, 2, 0.1, seed=38)
        assert other.reps != coarse.reps
        with pytest.raises(ValueError, match="repetition"):
            ps.measure_nested([coarse, other], np.ones(60))

    def test_rejects_no_schemas(self):
        with pytest.raises(ValueError):
            ps.measure_nested([], np.ones(60))


class TestRowHashes:
    def test_uniform_over_many_parts(self):
        parts = 2**16
        part = ps.PartitionFamily.contiguous(parts, parts)
        schema = ps.build_schema(part, 7, 0.25, seed=31)  # 224 buckets, 16 reps
        buckets = schema.buckets
        words, rows = ps._row_hashes(schema, np.arange(schema.reps), np.arange(parts))
        assert words.shape == (schema.reps, parts) and rows.shape == (3, schema.reps, parts)
        # row (3 i + s) * buckets + bucket of sub-iteration s in repetition i
        first = (3 * np.arange(schema.reps) + np.arange(3)[:, None]) * buckets
        bucket = rows - first[:, :, None]
        sign_bit = np.uint64(60) + np.arange(3, dtype=np.uint64)[:, None, None]
        sign = np.where((words >> sign_bit) & np.uint64(1), 1, -1)
        assert bucket.min() >= 0 and bucket.max() < buckets
        samples = schema.reps * parts
        dof = buckets - 1
        for sub in range(3):
            counts = np.bincount(bucket[sub].ravel(), minlength=buckets)
            expected = samples / buckets
            chi2 = float(np.sum((counts - expected) ** 2) / expected)
            assert chi2 < dof + 6 * math.sqrt(2 * dof)
            assert abs(float(sign[sub].mean())) < 4 / math.sqrt(samples)
        for a, b in ((0, 1), (0, 2), (1, 2)):
            rate = float(np.mean(bucket[a] == bucket[b]))
            assert abs(rate * buckets - 1) < 0.1

    def test_rows_follow_the_layout(self):
        # rows of repetitions 5, 6, 7 against the layout's definition, part by part
        schema = ps.build_schema(ps.PartitionFamily.contiguous(64, 40), 3, 0.1, seed=33)
        _, rows = ps._row_hashes(schema, np.arange(5, 8), np.arange(40))
        for i, rep in enumerate(range(5, 8)):
            for part in range(40):
                for sub, (bucket, _) in enumerate(row_hash(schema, rep, part)):
                    assert rows[sub, i, part] == (3 * i + sub) * schema.buckets + bucket


class TestBitProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.floats(0.1, 100.0))
    def test_complement_and_scaling(self, seed, lam):
        part = ps.PartitionFamily.contiguous(96, 24)
        schema = ps.build_schema(part, 2, 0.4, seed=77)
        src = RandomSource(seed)
        x = src.gaussian(np.arange(96)) * (src.uniform(np.arange(96)) < 0.3)
        bits = ps.measure(schema, x).bits
        # complement property: (-1, -1) never occurs
        assert not np.any((bits[..., 0] == -1) & (bits[..., 1] == -1))
        # positive scaling leaves every bit unchanged
        assert np.array_equal(bits, ps.measure(schema, lam * x).bits)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_sign_flip_antisymmetry(self, seed):
        part = ps.PartitionFamily.contiguous(96, 24)
        schema = ps.build_schema(part, 2, 0.4, seed=78)
        src = RandomSource(seed)
        x = src.gaussian(np.arange(96)) * (src.uniform(np.arange(96)) < 0.3)
        bits = ps.measure(schema, x).bits
        flipped = ps.measure(schema, -x).bits
        zero_pair = (bits[..., 0] == 1) & (bits[..., 1] == 1)
        assert np.array_equal(
            flipped[..., 0], np.where(zero_pair, 1, -bits[..., 0])
        )
        assert np.array_equal(
            flipped[..., 1], np.where(zero_pair, 1, -bits[..., 1])
        )


class TestQuery:
    def test_zero_signal_returns_zero(self):
        part = ps.PartitionFamily.contiguous(64, 8)
        schema = ps.build_schema(part, 2, 0.25, seed=31)
        bits = ps.measure(schema, np.zeros(64))
        for j in range(8):
            assert ps.point_query(schema, bits, j) == 0

    @pytest.mark.parametrize("bad", [-1, 8])
    def test_out_of_range_part(self, bad):
        part = ps.PartitionFamily.contiguous(64, 8)
        schema = ps.build_schema(part, 2, 0.25, seed=31)
        bits = ps.measure(schema, np.zeros(64))
        with pytest.raises(ValueError, match="out of range"):
            ps.point_query(schema, bits, bad)
        with pytest.raises(ValueError, match="out of range"):
            ps.count_sketch_decode(schema, bits, [0, bad])

    @pytest.mark.parametrize("bad", [1.5, np.float64(1.0), True])
    def test_point_query_rejects_a_non_integer_part(self, bad):
        part = ps.PartitionFamily.contiguous(64, 8)
        schema = ps.build_schema(part, 2, 0.25, seed=31)
        bits = ps.measure(schema, np.zeros(64))
        with pytest.raises(ValueError, match="integers"):
            ps.point_query(schema, bits, bad)

    @pytest.mark.parametrize("bad", [[0.7], [0, 1.0], np.array([True, False])])
    def test_count_sketch_decode_rejects_non_integer_candidates(self, bad):
        part = ps.PartitionFamily.contiguous(64, 8)
        schema = ps.build_schema(part, 2, 0.25, seed=31)
        bits = ps.measure(schema, np.zeros(64))
        with pytest.raises(ValueError, match="integers"):
            ps.count_sketch_decode(schema, bits, bad)

    @pytest.mark.parametrize(
        "reshape",
        [
            lambda b: np.concatenate([b, b], axis=2),  # doubled buckets
            lambda b: np.concatenate([b, b[:1]], axis=0),  # one repetition too many
            lambda b: b[:-1],  # one repetition too few
        ],
        ids=["doubled-buckets", "extra-rep", "missing-rep"],
    )
    def test_mis_shaped_bits_rejected(self, reshape):
        part = ps.PartitionFamily.contiguous(64, 8)
        schema = ps.build_schema(part, 2, 0.25, seed=31)
        x = np.zeros(64)
        x[5] = 1.0
        bad = ps.SketchBits(bits=reshape(ps.measure(schema, x).bits))
        with pytest.raises(ValueError, match="does not match the schema"):
            ps.point_query(schema, bad, 0)
        with pytest.raises(ValueError, match="does not match the schema"):
            ps.nonzero_candidates(schema, bad)
        with pytest.raises(ValueError, match="does not match the schema"):
            ps.count_sketch_decode(schema, bad)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda b: b.fill(7),
            lambda b: b.__setitem__((0, 1, 2, 0), 0),
            lambda b: b.__setitem__((1, 2, 3, 1), -128),
            lambda b: b.__setitem__((2, 0, 5, 0), 127),
            lambda b: b.__setitem__((3, 1, 4), -1),  # a (-1, -1) pair
        ],
        ids=["all-7", "a-zero", "minus-128", "plus-127", "minus-pair"],
    )
    def test_bits_other_than_signs_rejected(self, corrupt):
        part = ps.PartitionFamily.contiguous(64, 8)
        schema = ps.build_schema(part, 2, 0.25, seed=31)
        x = np.zeros(64)
        x[5] = 1.0
        bits = ps.measure(schema, x)
        corrupt(bits.bits)
        with pytest.raises(ValueError, match="bit tensor holds"):
            ps.nonzero_candidates(schema, bits)
        with pytest.raises(ValueError, match="bit tensor holds"):
            ps.count_sketch_decode(schema, bits)
        with pytest.raises(ValueError, match="bit tensor holds"):
            ps.point_query(schema, bits, 0)

    def test_planted_detection_rate(self):
        n, parts, k, delta, trials = 1024, 128, 4, 0.1, 120
        part = ps.PartitionFamily.contiguous(n, parts)
        width = -(-n // parts)
        hits = 0
        for t in range(trials):
            src = RandomSource(5000 + t)
            schema = ps.build_schema(part, k, delta, seed=6000 + t)
            x, spot = planted_signal(n, k, src)
            bits = ps.measure(schema, x)
            hits += ps.point_query(schema, bits, spot // width)
        # claimed detection probability 1 - delta, tested with 3-sigma slack
        p = 1 - delta
        assert hits / trials >= p - 3 * math.sqrt(p * (1 - p) / trials)

    def test_crowded_rejection_rate(self):
        n, parts, k, delta, trials = 1024, 128, 4, 0.1, 120
        part = ps.PartitionFamily.contiguous(n, parts)
        width = -(-n // parts)
        rejections = 0
        for t in range(trials):
            src = RandomSource(7000 + t)
            schema = ps.build_schema(part, k, delta, seed=8000 + t)
            x, jq = crowded_signal(n, parts, width, src)
            bits = ps.measure(schema, x)
            rejections += 1 - ps.point_query(schema, bits, jq)
        p = 1 - delta
        assert rejections / trials >= p - 3 * math.sqrt(p * (1 - p) / trials)

    def test_good_fraction_separation(self):
        # planted parts vote well above 3/5; crowded light parts well below 2/5
        n, parts, k, delta, trials = 1024, 128, 4, 0.1, 60
        part = ps.PartitionFamily.contiguous(n, parts)
        width = -(-n // parts)
        planted_fracs, crowded_fracs = [], []
        for t in range(trials):
            src = RandomSource(9000 + t)
            schema = ps.build_schema(part, k, delta, seed=10_000 + t)
            x, spot = planted_signal(n, k, src)
            good, _ = exhaustive_stats(schema, ps.measure(schema, x), [spot // width])
            planted_fracs.append(good[0] / schema.reps)
            x, jq = crowded_signal(n, parts, width, src.derive(9))
            good, _ = exhaustive_stats(schema, ps.measure(schema, x), [jq])
            crowded_fracs.append(good[0] / schema.reps)
        planted_mean = float(np.mean(planted_fracs))
        crowded_mean = float(np.mean(crowded_fracs))
        se_p = float(np.std(planted_fracs) / math.sqrt(trials))
        se_c = float(np.std(crowded_fracs) / math.sqrt(trials))
        assert planted_mean >= 3 / 5 - 3 * se_p
        assert crowded_mean <= 2 / 5 + 3 * se_c


class TestCountSketchDecode:
    def test_zero_signal_empty(self):
        part = ps.PartitionFamily.contiguous(64, 16)
        schema = ps.build_schema(part, 2, 0.01, seed=41)
        assert ps.count_sketch_decode(schema, ps.measure(schema, np.zeros(64))).size == 0

    def test_empty_candidates(self):
        part = ps.PartitionFamily.contiguous(64, 16)
        schema = ps.build_schema(part, 2, 0.01, seed=41)
        bits = ps.measure(schema, np.zeros(64))
        assert ps.count_sketch_decode(schema, bits, candidates=[]).size == 0

    def test_exactly_sparse_recovery(self):
        # each nonzero in its own part: all occupied parts must be returned
        n, parts, k, trials = 1024, 256, 4, 60
        part = ps.PartitionFamily.contiguous(n, parts)
        width = -(-n // parts)
        delta = float(parts) ** -2
        wins = 0
        for t in range(trials):
            src = RandomSource(11_000 + t)
            schema = ps.build_schema(part, k, delta, seed=12_000 + t)
            occupied = src.derive(1).choice_without_replacement(parts, k)
            x = np.zeros(n)
            x[occupied * width] = src.derive(2).signs(np.arange(k)) / math.sqrt(k)
            found = ps.count_sketch_decode(schema, ps.measure(schema, x))
            assert found.size <= schema.cap
            wins += bool(np.isin(occupied, found).all())
        assert wins / trials >= 0.95

    def test_candidate_subset_agrees_with_exhaustive(self):
        n, parts, k = 512, 64, 2
        part = ps.PartitionFamily.contiguous(n, parts)
        schema = ps.build_schema(part, k, 0.01, seed=51)
        src = RandomSource(6)
        x = np.zeros(n)
        x[[8, 200]] = [1.0, -0.8]
        bits = ps.measure(schema, x)
        full = ps.count_sketch_decode(schema, bits)
        sub = ps.count_sketch_decode(schema, bits, candidates=np.arange(parts))
        assert np.array_equal(full, sub)

    def test_nonzero_candidates_prunes_soundly(self):
        n, parts, k = 512, 64, 2
        part = ps.PartitionFamily.contiguous(n, parts)
        schema = ps.build_schema(part, k, 0.01, seed=52)
        x = np.zeros(n)
        x[[8, 200]] = [1.0, -0.8]
        bits = ps.measure(schema, x)
        candidates = ps.nonzero_candidates(schema, bits)
        occupied = np.unique(part.parts_of([8, 200]))
        assert np.isin(occupied, candidates).all()
        pruned = ps.count_sketch_decode(schema, bits, candidates)
        assert np.isin(occupied, pruned).all()

    @pytest.mark.parametrize("block_words", [1, 7, 200])
    @pytest.mark.parametrize("probe_reps", [1, 3, 8])
    def test_probe_keeps_parts_nonzero_in_every_probed_rep(
        self, monkeypatch, block_words, probe_reps
    ):
        schema, bits = sparse_probe_case()
        monkeypatch.setattr(prf, "BLOCK_WORDS", block_words)
        monkeypatch.setattr(ps, "PROBE_REPS", probe_reps)
        probe = ps.nonzero_candidates(schema, bits)
        assert np.array_equal(probe, probe_all_reps(schema, bits, probe_reps))
        assert np.isin([3, 37, 31], probe).all()  # the occupied parts

    def test_probing_more_reps_keeps_fewer_parts(self):
        # the case tells "nonzero in every probed repetition" from "in any"
        schema, bits = sparse_probe_case()
        one, eight = (probe_all_reps(schema, bits, r).size for r in (1, 8))
        assert one > eight == 3


class TestVote:
    """The vote, its good counts, the point query and the probe against the
    exhaustive oracle, at block sizes that make the vote read in one round
    (the default) or in many, where parts stop being read part-way."""

    @pytest.mark.parametrize("block_words", [1, 7, 64, prf.BLOCK_WORDS])
    @pytest.mark.parametrize("case", VOTE_CASES)
    def test_matches_exhaustive_oracle(self, monkeypatch, case, block_words):
        schema, bits = vote_case(case)
        everything = np.arange(schema.partition.size)
        subset = RandomSource(83).choice_without_replacement(everything.size, 40)[::-1]
        monkeypatch.setattr(prf, "BLOCK_WORDS", block_words)
        assert np.array_equal(
            ps.count_sketch_decode(schema, bits), exhaustive_vote(schema, bits, everything)
        )
        assert np.array_equal(
            ps.count_sketch_decode(schema, bits, subset), exhaustive_vote(schema, bits, subset)
        )
        for candidates in (None, subset):
            parts, good = ps._count_sketch_decode(schema, ps._check_bits(schema, bits), candidates)
            assert np.array_equal(good, exhaustive_stats(schema, bits, parts)[0])
        assert np.array_equal(ps.nonzero_candidates(schema, bits), probe_all_reps(schema, bits, 8))

    @pytest.mark.parametrize("block_words", [1, prf.BLOCK_WORDS])
    @pytest.mark.parametrize("case", VOTE_CASES + ("sparse-probe",))
    def test_point_query_is_the_vote_over_one_part(self, monkeypatch, case, block_words):
        # a part's point query is 1 exactly when the exhaustive vote over
        # that part alone passes it, and the vote over every part returns a
        # subset of those, cut to the cap
        schema, bits = sparse_probe_case() if case == "sparse-probe" else vote_case(case)
        everything = np.arange(schema.partition.size)
        monkeypatch.setattr(prf, "BLOCK_WORDS", block_words)
        queried = np.array([ps.point_query(schema, bits, part) for part in everything])
        alone = np.array([exhaustive_vote(schema, bits, [part]).size for part in everything])
        assert np.array_equal(queried, alone)
        passing = everything[queried == 1]
        voted = exhaustive_vote(schema, bits, everything)
        assert np.isin(voted, passing).all()
        assert voted.size == min(passing.size, schema.cap)

    def test_cap_cuts_through_tied_counts(self):
        # the case the cap's tie-break decides: the last part kept and the
        # first part cut have equal good counts
        schema, bits = vote_case("cap-ties")
        good, zero_declared = exhaustive_stats(schema, bits, np.arange(schema.partition.size))
        ranked = np.sort(good[~zero_declared & (good >= schema.vote_threshold)])[::-1]
        assert ranked.size > schema.cap and ranked[schema.cap - 1] == ranked[schema.cap]

    @pytest.mark.parametrize("block_words", [64, 1 << 16])
    def test_stops_reading_parts_that_cannot_pass(self, monkeypatch, block_words):
        schema, bits = vote_case("dense-tail")
        reps, need, size = schema.reps, schema.vote_threshold, schema.partition.size
        blocks = {}  # first repetition of a round -> (its repetitions, parts read)
        good_reps = ps._good_reps

        def recording(schema, pairs, rr, parts):
            blocks.setdefault(int(rr[0]), (rr, []))[1].append(parts.copy())
            return good_reps(schema, pairs, rr, parts)

        monkeypatch.setattr(ps, "_good_reps", recording)
        monkeypatch.setattr(prf, "BLOCK_WORDS", block_words)
        monkeypatch.setattr(prf, "available_cpus", lambda: 2)
        ps.count_sketch_decode(schema, bits)
        rounds = [(rr, np.sort(np.concatenate(parts))) for _, (rr, parts) in sorted(blocks.items())]
        if 2 * block_words >= reps * size:  # the candidates fit one round
            assert len(rounds) == 1 and np.array_equal(rounds[0][0], np.arange(reps))
            return
        # no part can fail within the first reps - need + 1 repetitions
        assert np.array_equal(rounds[0][0], np.arange(reps - need + 1))
        assert np.array_equal(rounds[0][1], np.arange(size))
        assert np.array_equal(np.concatenate([rr for rr, _ in rounds]), np.arange(reps))
        # a later round reads exactly the parts that can still pass
        good_rep, _ = exhaustive_reps(schema, bits, np.arange(size))
        for rr, parts in rounds[1:]:
            so_far = good_rep[: rr[0]].sum(axis=0)
            assert np.array_equal(parts, np.flatnonzero(so_far + reps - rr[0] >= need))
        assert sum(rr.size * parts.size for rr, parts in rounds) < reps * size
