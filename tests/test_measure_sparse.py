"""The measure path scans a signal once and hands its nonzeros down.

``recovery.measure``, ``heavy_hitters.measure`` and ``expander.measure`` take
the nonzeros of x once and give each bucket's sketches only the nonzeros
hashed to it.  Their bits must equal those of the dense route: each bucket's
dense sub-signal measured sketch by sketch with ``partition_sketch.measure``
(``tests/oracles.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    MEASURE_CASES,
    expander_measure_per_sketch,
    heavy_hitters_measure_per_bucket,
    measure_signal,
    spikes,
    two_bucket_pipeline,
)

from onebitcs import expander, recovery
from onebitcs import heavy_hitters as hh
from onebitcs import partition_sketch as ps

N = 1 << 10


def assert_same_layers(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.heavy.bits.tobytes() == b.heavy.bits.tobytes()
        assert a.check.bits.tobytes() == b.check.bits.tobytes()


def assert_same_buckets(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_same_layers(a, b)


def assert_pipeline_matches_oracle(schema, x):
    bits = recovery.measure(schema, x)
    assert_same_buckets(
        bits.support_bits, heavy_hitters_measure_per_bucket(schema.support_schema, x)
    )
    assert bits.sign_bits.tobytes() == recovery.sign_measure(schema.gauss_schema, x).tobytes()


class TestEquivalence:
    @pytest.mark.parametrize("case", MEASURE_CASES)
    def test_pipeline(self, case):
        schema = two_bucket_pipeline()
        assert schema.support_schema.buckets == 2
        assert_pipeline_matches_oracle(schema, measure_signal(case, schema))

    @pytest.mark.parametrize("case", MEASURE_CASES)
    def test_heavy_hitters(self, case):
        schema = two_bucket_pipeline().support_schema
        x = measure_signal(case, two_bucket_pipeline())
        assert_same_buckets(hh.measure(schema, x), heavy_hitters_measure_per_bucket(schema, x))

    @pytest.mark.parametrize("case", ["zero", "one-nonzero", "negative-zero", "dense-tail"])
    def test_expander(self, case):
        schema = two_bucket_pipeline().support_schema.sub_schemas[1]
        x = measure_signal(case, two_bucket_pipeline())
        assert_same_layers(expander.measure(schema, x), expander_measure_per_sketch(schema, x))

    def test_negative_zero_measures_as_zero(self):
        schema = two_bucket_pipeline()
        x = measure_signal("negative-zero", schema)
        plain = recovery.measure(schema, np.where(x == 0, 0.0, x))
        signed = recovery.measure(schema, x)
        assert_same_buckets(signed.support_bits, plain.support_bits)
        assert signed.sign_bits.tobytes() == plain.sign_bits.tobytes()

    def test_two_word_names(self):
        # from n = 2^17 the layer names take two uint64 words
        n = 1 << 17
        schema = two_bucket_pipeline(n=n, k=34, seed=6)
        assert schema.support_schema.buckets == 2
        layer = schema.support_schema.sub_schemas[0].layers[0]
        assert layer.partition.names.shape[0] == 2
        assert_pipeline_matches_oracle(schema, spikes(n, [3, 70_000, 99_999, n - 1]))

    def test_each_layer_finds_parts_once(self, monkeypatch):
        # one ranking of the nonzeros per layer, shared by its two sketches
        schema = two_bucket_pipeline().support_schema.sub_schemas[0]
        calls = []
        parts_of = ps.PartitionFamily.parts_of

        def counting(partition, coords):
            calls.append(partition)
            return parts_of(partition, coords)

        monkeypatch.setattr(ps.PartitionFamily, "parts_of", counting)
        expander.measure(schema, spikes(N, [1, 2, 3]))
        assert calls == [layer.partition for layer in schema.layers]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_bad_signals_at_the_top(self, bad):
        schema = two_bucket_pipeline()
        x = spikes(N, [4, 9])
        x[9] = bad
        for measure, s in (
            (recovery.measure, schema),
            (hh.measure, schema.support_schema),
            (expander.measure, schema.support_schema.sub_schemas[0]),
        ):
            with pytest.raises(ValueError, match="non-finite"):
                measure(s, x)
            with pytest.raises(ValueError, match="does not match"):
                measure(s, np.zeros(N + 1))

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        st.lists(st.integers(0, N - 1), max_size=40),
        st.lists(st.sampled_from([1.0, -2.5, 1e-9, -0.0, 0.0, 3e5]), min_size=1, max_size=40),
    )
    def test_pipeline_property(self, coords, values):
        x = np.zeros(N)
        x[coords] = np.resize(values, len(coords))
        assert_pipeline_matches_oracle(two_bucket_pipeline(), x)
