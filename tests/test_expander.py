import dataclasses
import math

import numpy as np
import pytest

from oracles import circulant_loop, layer_name_table, link_cluster_loop, sparse_unit

from onebitcs import expander
from onebitcs import partition_sketch as ps
from onebitcs.prf import RandomSource
from onebitcs.rscode import ChunkCode


class TestGraph:
    def test_circulant_complete_when_degree_capped(self):
        nb = expander.circulant_neighbors(4, 4)
        assert all(len(v) == 3 for v in nb)
        assert nb[0] == (1, 2, 3)

    def test_circulant_symmetric(self):
        nb = expander.circulant_neighbors(7, 4)
        for j, vs in enumerate(nb):
            assert len(vs) == 4
            for v in vs:
                assert j in nb[v]

    def test_connected(self):
        nb = expander.circulant_neighbors(9, 2)
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for w in nb[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        assert seen == set(range(9))

    def test_circulant_matches_the_offset_loop(self):
        for s in range(2, 90):
            for degree in range(12):
                assert expander.circulant_neighbors(s, degree) == circulant_loop(s, degree)


class TestBuild:
    def test_layer_count_and_rows(self):
        schema = expander.build_schema(1 << 16, 4, seed=1)
        assert schema.layers_count == 4
        assert schema.total_rows == sum(
            l.heavy_schema.rows + l.check_schema.rows for l in schema.layers
        )
        # row budget is a constant times k * log2(n), reported via total_rows
        assert schema.total_rows <= 10_000 * 4 * 16

    def test_rejects_large_sparsity(self):
        with pytest.raises(ValueError):
            expander.build_schema(1 << 10, 64, seed=1)

    def test_code_shapes_bound_the_chunk_decode(self):
        # every message-bit count of an n < 2^63, from both ends of its range
        # of n, without building a schema: ChunkCode.decode's bound of at
        # most 67 solves per decode rests on these shapes
        for bits in range(1, 64):
            for n in {2 ** (bits - 1) + 1, 2 ** bits}:
                code = expander.chunk_code(n)
                assert code.message_bits == bits
                assert code.length <= 11 and code.parity == (2 if bits <= 36 else 4)
                assert sum(math.comb(code.length, e) for e in range(code.parity // 2 + 1)) <= 67
        schema = expander.build_schema(1 << 12, 2, seed=2)
        assert schema.code == expander.chunk_code(1 << 12)
        assert schema.layers_count == schema.code.length

    def test_name_bits_formula(self):
        schema = expander.build_schema(1 << 12, 2, seed=2)
        h_bits = math.ceil(math.log2(schema.h_range))
        assert schema.name_bits == h_bits + schema.code.t + schema.degree * h_bits


class TestNames:
    def test_partition_consistency(self):
        # every coordinate belongs to the part labeled by its own name
        schema = expander.build_schema(1 << 10, 2, seed=3)
        probe = RandomSource(4).choice_without_replacement(1 << 10, 100)
        for j in range(schema.layers_count):
            layer = schema.layers[j]
            expected = expander.make_name(schema, probe, j)
            got = layer.names[layer.partition.parts_of(probe)]
            assert np.array_equal(expected, got)

    def test_name_field_order_and_determinism(self):
        schema = expander.build_schema(1 << 10, 2, seed=5)
        j = 1
        one = expander.make_name(schema, [17], j)[0]
        assert one.shape == (2 + schema.degree,)
        again = expander.make_name(schema, [17], j)[0]
        assert np.array_equal(one, again)
        # chunk field matches the code, hash fields match the layer hashes
        assert one[1] == schema.code.encode(17)[j]

    def test_equal_fields_imply_equal_names(self):
        schema = expander.build_schema(256, 2, seed=6)
        names0 = expander.make_name(schema, np.arange(256), 0)
        packed = [tuple(row) for row in names0]
        labels = schema.layers[0].partition.parts_of(np.arange(256))
        for a in range(256):
            for b in range(a + 1, 256):
                if packed[a] == packed[b]:
                    assert labels[a] == labels[b]

    def test_pack_rows_wide_fallback(self):
        fields = np.array([[1, 2, 3], [1, 2, 3], [4, 5, 6]])
        packed = expander._pack_rows(fields.T.astype(np.uint64), [40, 40, 40])
        assert packed.shape == (3, 3) and packed.dtype == np.uint64
        assert np.array_equal(packed[:, 0], packed[:, 1])
        assert not np.array_equal(packed[:, 0], packed[:, 2])


@pytest.fixture(scope="module")
def wide_schema():
    # n = 2^17 is the smallest n whose names exceed 64 bits
    schema = expander.build_schema(1 << 17, 2, seed=12)
    assert schema.name_bits > 64
    return schema


class TestNameKeys:
    @pytest.mark.parametrize("n", [1 << 10, 1 << 16, 1 << 17])
    def test_keys_match_name_table_oracle(self, n, wide_schema):
        schema = wide_schema if n == wide_schema.n else expander.build_schema(n, 2, seed=12)
        rng = np.random.default_rng(n)
        subset = rng.integers(0, n, size=400)
        subset = rng.permutation(np.concatenate([subset, subset[:100]]))  # unsorted, repeats
        for j, layer in enumerate(schema.layers):
            labels, names = layer_name_table(schema, j)
            assert np.array_equal(layer.partition.parts_of(np.arange(n)), labels)
            assert np.array_equal(layer.partition.parts_of(subset), labels[subset])
            assert layer.partition.parts_of(np.empty(0, dtype=np.int64)).size == 0
            assert np.array_equal(layer.names, names)
            assert layer.names.dtype == names.dtype

    def test_layer_parts_of_rejects_out_of_range(self):
        schema = expander.build_schema(1 << 10, 2, seed=12)
        partition = schema.layers[0].partition
        for bad in ([-1], [schema.n], [0, schema.n + 5]):
            with pytest.raises(ValueError, match="out of range"):
                partition.parts_of(bad)

    def test_make_name_matches_wide_keys(self, wide_schema):
        probe = RandomSource(13).choice_without_replacement(wide_schema.n, 200)
        for j, layer in enumerate(wide_schema.layers):
            assert np.array_equal(
                expander.make_name(wide_schema, probe, j),
                layer.names_of(layer.partition.parts_of(probe)),
            )

    @pytest.mark.parametrize("bad", [2.9, [0.0], np.array([True])])
    def test_make_name_rejects_non_integer_coordinates(self, bad):
        schema = expander.build_schema(1 << 10, 2, seed=12)
        with pytest.raises(ValueError, match="integers"):
            expander.make_name(schema, bad, 0)

    def test_a_layer_out_of_range_rejected(self):
        schema = expander.build_schema(1 << 10, 2, seed=12)
        bits = expander.measure(schema, np.zeros(1 << 10))
        for layer in (-1, schema.layers_count):
            with pytest.raises(ValueError, match="layer out of range"):
                expander.make_name(schema, [3], layer)
            with pytest.raises(ValueError, match="layer out of range"):
                expander.layer_decode(schema, layer, bits[0])

    def test_make_name_of_no_coordinates(self):
        schema = expander.build_schema(1 << 10, 2, seed=12)
        for j in range(schema.layers_count):
            names = expander.make_name(schema, np.array([], dtype=np.int64), j)
            assert names.shape == (0, 2 + schema.degree) and names.dtype == np.int64


    @pytest.mark.parametrize(
        "widths, high",
        [
            ((40, 40, 40), 3),  # one field per word, many duplicate keys
            ((13, 8, 13, 13, 13, 13), 2),  # two words, first words often tied
            ((13, 8, 13, 13, 13, 13), 1 << 8),  # two words, keys distinct
        ],
    )
    def test_name_partition_matches_unique_on_records(self, widths, high):
        rng = np.random.default_rng(len(widths) + high)
        fields = rng.integers(0, high, size=(3000, len(widths)))
        if high == 1 << 8:
            fields[:, 0] = rng.permutation(3000)
        records = np.ascontiguousarray(fields).view([("", np.int64)] * len(widths)).reshape(-1)
        want_keys, want_ranks = np.unique(records, return_inverse=True)
        partition = ps.PartitionFamily.from_names(
            expander._pack_rows(fields.T.astype(np.uint64), widths))
        assert partition.size == want_keys.size
        assert np.array_equal(partition.parts_of(np.arange(3000)), want_ranks)
        subset = rng.integers(0, 3000, size=400)
        assert np.array_equal(partition.parts_of(subset), want_ranks[subset])
        assert np.array_equal(
            expander._unpack_keys(partition.keys, widths),
            want_keys.view(np.int64).reshape(-1, len(widths)),
        )


def tangled_lists(schema, seed):
    """Layer lists that mix the true names of a few coordinates with missing
    layers, corrupted name fields, conflicting claims and random names, so
    that some components decode and verify, some fail to decode and some
    decode to a coordinate whose names do not match."""
    rng = np.random.default_rng(seed)
    width = 2 + schema.degree
    high = np.array([schema.h_range, 1 << schema.code.t] + [schema.h_range] * schema.degree)
    coords = rng.choice(schema.n, size=4, replace=False)
    lists = []
    for j in range(schema.layers_count):
        names = []
        for i in coords:
            if rng.random() < 0.15:
                continue  # the layer lost this coordinate
            name = expander.make_name(schema, i, j)[0]
            if rng.random() < 0.3:
                col = rng.integers(1, width)
                name[col] = rng.integers(high[col])
            names.append(name)
            if rng.random() < 0.1:
                twin = name.copy()
                twin[1] = rng.integers(high[1])
                names.append(twin)
        names += [rng.integers(high) for _ in range(rng.integers(0, 3))]
        names = np.array(names, dtype=np.int64).reshape(-1, width)
        lists.append(
            expander.LayerList(
                parts=rng.choice(schema.layers[j].partition.size, size=len(names), replace=False),
                names=names,
                good_counts=rng.integers(0, 40, size=len(names)),
            )
        )
    return lists


def linked_components(schema, layer_lists):
    """The components of the (layer, row) survivors by the edge definition,
    pair by pair: rows of adjacent layers j and nb are linked when j's name
    carries nb's own-hash in the field of nb, and nb's name carries j's in
    the field of j.  A set of frozensets of (layer, row)."""
    def linked(u, v):
        (j, a), (nb, b) = u, v
        if nb not in schema.neighbors[j]:
            return False
        name_a, name_b = layer_lists[j].names[a], layer_lists[nb].names[b]
        return (name_a[2 + schema.neighbors[j].index(nb)] == name_b[0]
                and name_b[2 + schema.neighbors[nb].index(j)] == name_a[0])

    vertices = [(j, row) for j, ll in enumerate(layer_lists) for row in range(ll.parts.size)]
    components, seen = set(), set()
    for v in vertices:
        if v in seen:
            continue
        component, stack = {v}, [v]
        while stack:
            u = stack.pop()
            for w in vertices:
                if w not in component and linked(u, w):
                    component.add(w)
                    stack.append(w)
        seen |= component
        components.add(frozenset(component))
    return components


class TestLayerDecode:
    def test_zero_signal_empty_layers(self):
        schema = expander.build_schema(1 << 10, 2, seed=7)
        bits = expander.measure(schema, np.zeros(1 << 10))
        for j in range(schema.layers_count):
            ll = expander.layer_decode(schema, j, bits[j])
            assert ll.parts.size == 0

    def test_planted_names_survive_per_layer(self):
        n, k, trials = 1 << 12, 4, 25
        per_layer_hits = 0
        total = 0
        for t in range(trials):
            schema = expander.build_schema(n, k, seed=100 + t)
            x, sup = sparse_unit(n, k, 200 + t)
            bits = expander.measure(schema, x)
            for j in range(schema.layers_count):
                ll = expander.layer_decode(schema, j, bits[j])
                assert ll.parts.size <= schema.cap
                want = schema.layers[j].partition.parts_of(sup)
                if np.unique(want).size == k and np.isin(want, ll.parts).all():
                    per_layer_hits += 1
                total += 1
        assert per_layer_hits / total >= 0.9

    def test_prefilter_matches_exhaustive(self, monkeypatch):
        n, k = 1 << 10, 2
        schema = expander.build_schema(n, k, seed=8)
        x, sup = sparse_unit(n, k, 9)
        bits = expander.measure(schema, x)
        fast = [expander.layer_decode(schema, j, bits[j]) for j in range(schema.layers_count)]
        # the vote over every part in place of the probe's survivors
        monkeypatch.setattr(ps, "_nonzero_candidates", lambda s, pairs: np.arange(s.partition.size))
        for j in range(schema.layers_count):
            full = expander.layer_decode(schema, j, bits[j])
            assert np.array_equal(fast[j].parts, full.parts)

    def test_each_sketch_checked_once(self, monkeypatch):
        n, k = 1 << 10, 2
        schema = expander.build_schema(n, k, seed=8)
        x, _ = sparse_unit(n, k, 9)
        bits = expander.measure(schema, x)
        checked = []
        check_bits = ps._check_bits

        def counted(sketch_schema, sketch):
            checked.append(id(sketch))
            return check_bits(sketch_schema, sketch)

        monkeypatch.setattr(ps, "_check_bits", counted)
        for j in range(schema.layers_count):
            checked.clear()
            ll = expander.layer_decode(schema, j, bits[j])
            assert ll.parts.size  # the check sketch is read too
            assert sorted(checked) == sorted([id(bits[j].heavy), id(bits[j].check)])

    @pytest.mark.parametrize("corrupt", ["pair", "value", "shape"])
    def test_malformed_heavy_bits_raise(self, monkeypatch, corrupt):
        n, k = 1 << 10, 2
        schema = expander.build_schema(n, k, seed=8)
        x, _ = sparse_unit(n, k, 9)
        bits = list(expander.measure(schema, x))
        heavy = bits[0].heavy.bits.copy()
        if corrupt == "pair":
            heavy[0, 0, 0] = -1
        elif corrupt == "value":
            heavy[1, 2, 3, 0] = 3
        else:
            heavy = heavy[:-1]
        bits[0] = expander.LayerBits(heavy=ps.SketchBits(bits=heavy), check=bits[0].check)
        for probe_reps in (8, 0):
            monkeypatch.setattr(ps, "PROBE_REPS", probe_reps)
            with pytest.raises(ValueError, match="bit tensor"):
                expander.layer_decode(schema, 0, bits[0])
        with pytest.raises(ValueError, match="bit tensor"):
            expander.recover(schema, tuple(bits))

    @pytest.mark.parametrize(
        "corrupt",
        [lambda b: np.full_like(b, 7), lambda b: np.ones((1, 3, 4, 2), dtype=np.int8)],
        ids=["all-7", "shape"],
    )
    def test_malformed_check_bits_raise_when_no_name_is_heavy(self, corrupt):
        # the zero signal: the heavy vote finds no name, so the check sketch
        # is never voted on, yet its bits are still checked
        n, k = 1 << 10, 2
        schema = expander.build_schema(n, k, seed=8)
        bits = list(expander.measure(schema, np.zeros(n)))
        assert expander.layer_decode(schema, 0, bits[0]).parts.size == 0
        check = ps.SketchBits(bits=corrupt(bits[0].check.bits))
        bits[0] = expander.LayerBits(heavy=bits[0].heavy, check=check)
        with pytest.raises(ValueError, match="bit tensor"):
            expander.layer_decode(schema, 0, bits[0])
        with pytest.raises(ValueError, match="bit tensor"):
            expander.recover(schema, tuple(bits))

    def test_link_cluster_ignores_row_order(self):
        # a conflicting claim's chunk comes from its lowest part index,
        # wherever that row sits in its layer list
        schema = expander.build_schema(1 << 10, 2, seed=17)
        rng = np.random.default_rng(5)
        for seed in range(40):
            lists = tangled_lists(schema, seed)
            coords, scores, diag = expander.link_cluster_decode(schema, lists)
            for _ in range(3):
                shuffled = []
                for ll in lists:
                    order = rng.permutation(ll.parts.size)
                    shuffled.append(dataclasses.replace(
                        ll, parts=ll.parts[order], names=ll.names[order],
                        good_counts=ll.good_counts[order]))
                got = expander.link_cluster_decode(schema, shuffled)
                assert np.array_equal(got[0], coords) and np.array_equal(got[1], scores)
                assert (got[2].components, got[2].decode_failures, got[2].verify_failures) == (
                    diag.components, diag.decode_failures, diag.verify_failures)

    def test_link_cluster_on_a_sparse_neighbour_graph(self):
        # every built schema up to n = 2^22 has at most 5 layers, so its
        # circulant is complete; 7 layers of degree 4 leave out some pairs
        base = expander.build_schema(1 << 10, 2, seed=17)
        schema = dataclasses.replace(
            base, layers_count=7, degree=4, neighbors=expander.circulant_neighbors(7, 4),
            code=ChunkCode.for_error_fraction(10, 7, 0.25), layers=(base.layers * 2)[:7],
        )
        totals = np.zeros(3, dtype=np.int64)
        for seed in range(40):
            lists = tangled_lists(schema, seed)
            components = expander._components(schema, lists)
            assert {frozenset(c) for c in components} == linked_components(schema, lists)
            coords, scores, diag = expander.link_cluster_decode(schema, lists)
            want_coords, want_scores, want_diag = link_cluster_loop(schema, lists)
            assert np.array_equal(coords, want_coords)
            assert np.array_equal(scores, want_scores)
            assert (diag.components, diag.decode_failures, diag.verify_failures) == want_diag
            totals += [coords.size, diag.decode_failures, diag.verify_failures]
        assert (totals > 0).all()


class TestLinkCluster:
    def test_single_heavy_full_component(self):
        n, k = 1 << 12, 1
        schema = expander.build_schema(n, k, seed=10)
        x = np.zeros(n)
        x[777] = 1.0
        bits = expander.measure(schema, x)
        lists = [
            expander.layer_decode(schema, j, bits[j])
            for j in range(schema.layers_count)
        ]
        assert all(ll.parts.size == 1 for ll in lists)
        coords, scores, diag = expander.link_cluster_decode(schema, lists)
        assert coords.tolist() == [777]
        assert diag.components == 1

    def test_empty_layers_give_empty_set(self):
        schema = expander.build_schema(1 << 10, 2, seed=11)
        empty = [
            expander.LayerList(
                parts=np.empty(0, dtype=np.int64),
                names=np.empty((0, 2 + schema.degree), dtype=np.int64),
                good_counts=np.empty(0, dtype=np.int64),
            )
            for j in range(schema.layers_count)
        ]
        coords, _, _ = expander.link_cluster_decode(schema, empty)
        assert coords.size == 0

    def test_lone_injected_vertex_excluded(self):
        # a vertex present in one layer only, with no mutual edges, cannot
        # produce a decodable component: 1 chunk + 3 erasures exceeds budget
        n, k = 1 << 12, 1
        schema = expander.build_schema(n, k, seed=12)
        x = np.zeros(n)
        x[100] = 1.0
        bits = expander.measure(schema, x)
        lists = [
            expander.layer_decode(schema, j, bits[j])
            for j in range(schema.layers_count)
        ]
        fake_name = expander.make_name(schema, 3999, 0).copy()
        fake_name[0, 0] = (fake_name[0, 0] + 1) % schema.h_range  # break own hash
        lists[0] = expander.LayerList(
            parts=np.append(lists[0].parts, schema.layers[0].partition.size - 1),
            names=np.vstack([lists[0].names, fake_name]),
            good_counts=np.append(lists[0].good_counts, 10**6),
        )
        coords, _, _ = expander.link_cluster_decode(schema, lists)
        assert 3999 not in coords.tolist()
        assert coords.tolist() == [100]


    @pytest.mark.parametrize("damage", ["erasure", "error"])
    @pytest.mark.parametrize("layer", range(4))
    def test_chunk_code_repairs_one_layer(self, layer, damage):
        # planted names from make_name: in one layer the first coordinate's
        # name is missing (an erasure) or carries a wrong chunk (an error);
        # the code recovers it from the other layers, and 3 of 4 verify
        schema = expander.build_schema(1 << 12, 2, seed=21)
        assert schema.layers_count == 4 and schema.code.parity == 2
        planted = np.array([777, 3001])
        lists = []
        for j in range(schema.layers_count):
            names = expander.make_name(schema, planted, j)
            keep = np.ones(planted.size, dtype=bool)
            if j == layer and damage == "erasure":
                keep[0] = False
            if j == layer and damage == "error":
                names[0, 1] ^= 1
            lists.append(expander.LayerList(
                parts=schema.layers[j].partition.parts_of(planted)[keep],
                names=names[keep], good_counts=np.full(keep.sum(), 5),
            ))
        coords, scores, diag = expander.link_cluster_decode(schema, lists)
        assert coords.tolist() == planted.tolist()
        assert scores.tolist() == [15 if damage == "erasure" else 20, 20]
        assert (diag.components, diag.decode_failures, diag.verify_failures) == (2, 0, 0)

    def test_batched_name_check_matches_component_loop(self):
        schema = expander.build_schema(1 << 10, 2, seed=17)
        totals = np.zeros(3, dtype=np.int64)
        for seed in range(40):
            lists = tangled_lists(schema, seed)
            coords, scores, diag = expander.link_cluster_decode(schema, lists)
            want_coords, want_scores, want_diag = link_cluster_loop(schema, lists)
            assert np.array_equal(coords, want_coords)
            assert np.array_equal(scores, want_scores)
            got = (diag.components, diag.decode_failures, diag.verify_failures)
            assert got == want_diag
            totals += [coords.size, diag.decode_failures, diag.verify_failures]
        # the lists exercise every outcome: kept, undecodable, unverified
        assert (totals > 0).all()


class TestRecover:
    def test_small_sparsity_end_to_end(self):
        n, k, trials = 1 << 12, 4, 30
        wins = 0
        for t in range(trials):
            schema = expander.build_schema(n, k, seed=300 + t)
            x, sup = sparse_unit(n, k, 400 + t)
            bits = expander.measure(schema, x)
            coords, scores, diag = expander.recover(schema, bits)
            assert coords.size <= schema.cap
            wins += bool(np.isin(sup, coords).all())
        assert wins / trials >= 0.9

    def test_zero_signal(self):
        schema = expander.build_schema(1 << 10, 2, seed=13)
        coords, _, _ = expander.recover(schema, expander.measure(schema, np.zeros(1 << 10)))
        assert coords.size == 0

    def test_positive_scaling_invariance(self):
        n, k = 1 << 10, 2
        schema = expander.build_schema(n, k, seed=14)
        x, _ = sparse_unit(n, k, 15)
        a = expander.recover(schema, expander.measure(schema, x))[0]
        b = expander.recover(schema, expander.measure(schema, 7.25 * x))[0]
        assert np.array_equal(a, b)

    def test_bits_count_mismatch(self):
        schema = expander.build_schema(1 << 10, 2, seed=16)
        bits = expander.measure(schema, np.zeros(1 << 10))
        with pytest.raises(ValueError):
            expander.recover(schema, bits[:-1])


@pytest.mark.parametrize("call, match", [
    (lambda: expander.circulant_neighbors(1, 4), "at least two layers"),
    (lambda: expander.circulant_neighbors(5, -1), "degree >= 0"),
    (lambda: expander.build_schema(1024, 1.5, seed=1), "k must be a positive integer"),
    (lambda: expander.build_schema(1024.0, 2, seed=1), "n must be a positive integer"),
])
def test_rejects_invalid_arguments(call, match):
    with pytest.raises(ValueError, match=match):
        call()
