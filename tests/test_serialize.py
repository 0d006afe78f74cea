import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from oracles import btree_measure_per_level, label_partition, sparse_unit

from onebitcs import btree, cli, expander, harness, heavy_hitters, recovery, serialize, signals
from onebitcs import partition_sketch as ps
from onebitcs.model import tail_stats
from onebitcs.prf import RandomSource


def ppcs_file(tmp_path):
    schema = ps.build_schema(ps.PartitionFamily.contiguous(512, 64), 2, 0.01, seed=21)
    x, _ = sparse_unit(512, 2, 22)
    path = tmp_path / "m.bits"
    serialize.save(str(path), schema, ps.measure(schema, x))
    serialize.load_measurement(str(path))  # intact, it loads
    return path


class TestPacking:
    def test_bit_order_little_endian(self):
        bits = np.ones((1, 3, 1, 2), dtype=np.int8)
        bits[0, 0, 0, 1] = -1  # flattened position 1 -> bit 1 of byte 0
        packed = serialize.pack_bits(ps.SketchBits(bits=bits))
        assert packed[0] & 0b00000001  # position 0 is +1
        assert not packed[0] & 0b00000010  # position 1 is -1

    def test_round_trip_random(self):
        # random polarity pairs among the three a measurement can produce
        rng = np.random.default_rng(0)
        pairs = np.array([[1, -1], [-1, 1], [1, 1]], dtype=np.int8)
        bits = pairs[rng.integers(0, 3, size=(5, 3, 17))]
        sketch = ps.SketchBits(bits=bits)
        back = serialize.unpack_bits(serialize.pack_bits(sketch), 5, 17)
        assert np.array_equal(back.bits, sketch.bits)

    def test_sign_vector_round_trip(self):
        rng = np.random.default_rng(1)
        y = rng.choice(np.array([-1, 1], dtype=np.int8), size=999)
        assert np.array_equal(
            serialize.unpack_sign_vector(serialize.pack_sign_vector(y), 999), y
        )

    def test_truncated_block_rejected(self):
        with pytest.raises(ValueError):
            serialize.unpack_bits(b"\x00", reps=4, buckets=64)

    def test_overlong_block_rejected(self):
        bits = ps.SketchBits(bits=np.ones((2, 3, 5, 2), dtype=np.int8))
        packed = serialize.pack_bits(bits)
        assert len(packed) == 8  # 60 bits
        with pytest.raises(ValueError):
            serialize.unpack_bits(packed + b"\x00", reps=2, buckets=5)
        y = np.ones(17, dtype=np.int8)
        with pytest.raises(ValueError):
            serialize.unpack_sign_vector(serialize.pack_sign_vector(y) + b"\x00", 17)
        with pytest.raises(ValueError):
            serialize.unpack_sign_vector(serialize.pack_sign_vector(y)[:-1], 17)


class TestFiles:
    def test_ppcs_file_is_self_contained(self, tmp_path):
        n, parts, k = 512, 64, 2
        partition = ps.PartitionFamily.contiguous(n, parts)
        schema = ps.build_schema(partition, k, 0.01, seed=21)
        x, sup = sparse_unit(n, k, 22)
        bits = ps.measure(schema, x)
        path = tmp_path / "m.bits"
        serialize.save(str(path), schema, bits)
        scheme, schema2, bits2 = serialize.load_measurement(str(path))
        assert scheme == "ppcs"
        assert np.array_equal(bits2.bits, bits.bits)
        assert np.array_equal(
            ps.count_sketch_decode(schema2, bits2),
            ps.count_sketch_decode(schema, bits),
        )

    def test_label_partition_not_serializable(self, tmp_path):
        partition = label_partition([0, 1, 0, 1])
        schema = ps.build_schema(partition, 1, 0.5, seed=1)
        bits = ps.measure(schema, np.zeros(4))
        with pytest.raises(ValueError):
            serialize.save(str(tmp_path / "x.bits"), schema, bits)

    def test_btree_file_round_trip(self, tmp_path):
        n, k, b = 256, 2, 4
        x, sup = sparse_unit(n, k, 23)
        schema = btree.build_schema(n, k, b, 0.1, seed=24)
        bits = btree.measure(schema, x)
        path = tmp_path / "t.bits"
        serialize.save(str(path), schema, bits)
        _, schema2, bits2 = serialize.load_measurement(str(path))
        a = btree.decode(schema, bits)
        c = btree.decode(schema2, bits2)
        assert np.array_equal(a.indices, c.indices)

    @pytest.mark.parametrize("seed", [27, 28, 29])
    def test_btree_file_from_per_level_draws_still_decodes(self, tmp_path, seed):
        # bits whose levels each drew their own gaussians (as files written
        # before the levels shared one draw) are the same v2 format: the
        # decoder reads only bucket hashes, signs and bits
        n, k, b = 1 << 12, 4, 8
        x = signals.gen_signal(signals.SPARSE_PLUS_TAIL, n, k, RandomSource(seed))
        schema = btree.build_schema(n, k, b, 0.05, seed=seed + 100)
        bits = btree_measure_per_level(schema, x)
        shared = btree.measure(schema, x)
        assert not all(np.array_equal(a.bits, c.bits) for a, c in zip(bits, shared))
        path = tmp_path / "old.bits"
        serialize.save(str(path), schema, bits)
        assert path.read_bytes().startswith(f"{serialize.MAGIC} btree\n".encode())
        _, schema2, bits2 = serialize.load_measurement(str(path))
        in_memory = btree.decode(schema, bits)
        from_file = btree.decode(schema2, bits2)
        assert np.array_equal(from_file.indices, in_memory.indices)
        assert np.isin(tail_stats(x, k).heavy, from_file.indices).all()

    def test_expander_file_round_trip(self, tmp_path):
        n, k = 1 << 10, 2
        schema = expander.build_schema(n, k, seed=25)
        x, sup = sparse_unit(n, k, 26)
        bits = expander.measure(schema, x)
        path = tmp_path / "e.bits"
        serialize.save(str(path), schema, bits)
        _, schema2, bits2 = serialize.load_measurement(str(path))
        assert np.array_equal(
            expander.recover(schema, bits)[0], expander.recover(schema2, bits2)[0]
        )

    def test_heavy_hitters_file_round_trip(self, tmp_path):
        n, k = 1 << 10, 2
        schema = heavy_hitters.build_schema(n, k, seed=27)
        x, sup = sparse_unit(n, k, 28)
        bits = heavy_hitters.measure(schema, x)
        path = tmp_path / "h.bits"
        serialize.save(str(path), schema, bits)
        _, schema2, bits2 = serialize.load_measurement(str(path))
        assert np.array_equal(
            heavy_hitters.decode(schema, bits)[0],
            heavy_hitters.decode(schema2, bits2)[0],
        )

    def test_pipeline_file_round_trip(self, tmp_path):
        n, k = 512, 2
        schema = recovery.build_pipeline(n, k, 0.3, seed=29, gauss_rows=400)
        x, sup = sparse_unit(n, k, 30)
        bits = recovery.measure(schema, x)
        path = tmp_path / "p.bits"
        serialize.save(str(path), schema, bits)
        _, schema2, bits2 = serialize.load_measurement(str(path))
        assert np.array_equal(bits2.sign_bits, bits.sign_bits)
        est_a, _ = recovery.decode(schema, bits)
        est_b, _ = recovery.decode(schema2, bits2)
        assert np.array_equal(est_a.indices, est_b.indices)
        assert np.allclose(est_a.values, est_b.values)

    def test_truncated_file_rejected(self, tmp_path):
        path = ppcs_file(tmp_path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError):
            serialize.load_measurement(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        path = ppcs_file(tmp_path)
        path.write_bytes(path.read_bytes() + bytes(16))
        with pytest.raises(ValueError):
            serialize.load_measurement(str(path))

    def test_earlier_format_version_rejected(self, tmp_path):
        # v1 files hold bits of the earlier hash layout; they must not decode
        path = ppcs_file(tmp_path)
        data = path.read_bytes()
        assert data.startswith(b"onebitcs-bits v2 ppcs\n")
        path.write_bytes(b"onebitcs-bits v1" + data[len("onebitcs-bits v2"):])
        with pytest.raises(ValueError):
            serialize.load_measurement(str(path))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bits"
        path.write_bytes(b"not a bits file\n{}\n")
        with pytest.raises(ValueError):
            serialize.load_measurement(str(path))

    def test_schema_without_a_file_scheme_rejected(self, tmp_path):
        schema = recovery.GaussianSchema(rows=8, n=16, seed=1)
        with pytest.raises(ValueError, match="GaussianSchema"):
            serialize.save(str(tmp_path / "g.bits"), schema, np.ones(8, dtype=np.int8))

    def test_scheme_without_a_file_layout_rejected(self, tmp_path):
        # ppq measures a ppcs schema, but has no files of its own
        path = ppcs_file(tmp_path)
        _, header, blocks = serialize.read_blocks(str(path))
        serialize.write_blocks(str(path), "ppq", header, blocks)
        assert path.read_bytes().startswith(f"{serialize.MAGIC} ppq\n".encode())
        with pytest.raises(ValueError, match="unknown scheme 'ppq'"):
            serialize.load_measurement(str(path))


# scheme -> (build, measure); k = 12 at n = 2^10 is bucketed into 2 buckets
LAYERED = {
    "expander": (lambda: expander.build_schema(1 << 10, 2, seed=41), expander.measure),
    "heavy-hitters": (lambda: heavy_hitters.build_schema(1 << 10, 12, seed=42),
                      heavy_hitters.measure),
    "pipeline": (lambda: recovery.build_pipeline(1 << 10, 12, 0.3, seed=43, gauss_rows=400),
                 recovery.measure),
}
# a value other than the layered sketch's fixed constant for each field; a
# rebuild at n = 2^10 has 4 layers, so its capped degree is 3
NON_DEFAULT = {"degree": 2, "error_fraction": 0.1, "log_factor": 2.0, "bucket_factor": 2.0}


def save_layered(tmp_path, scheme):
    build, measure = LAYERED[scheme]
    schema = build()
    x, _ = sparse_unit(schema.n, 2, 44)
    path = tmp_path / f"{scheme}.bits"
    serialize.save(str(path), schema, measure(schema, x))
    return schema, path


def assert_loads_as(path, scheme, schema):
    """The file loads, and its rebuilt schema has ``schema``'s header."""
    _, schema2, _ = serialize.load_measurement(str(path))
    header = harness.SCHEMES[scheme].header
    assert header(schema2) == header(schema)


class TestLayeredParameters:
    @pytest.mark.parametrize(
        "scheme, field",
        [
            (scheme, field)
            for scheme in LAYERED
            for field in NON_DEFAULT
            if not (scheme == "expander" and field == "bucket_factor")
        ],
    )
    def test_non_default_parameter_rejected(self, tmp_path, scheme, field):
        schema, path = save_layered(tmp_path, scheme)
        assert field in harness.SCHEMES[scheme].header(schema)
        rewrite(path, edit_header=lambda header: header.update({field: NON_DEFAULT[field]}))
        with pytest.raises(ValueError, match=f"does not match file header field '{field}'"):
            serialize.load_measurement(str(path))

    @pytest.mark.parametrize("scheme", list(LAYERED))
    def test_header_without_parameters_loads_build_defaults(self, tmp_path, scheme):
        # earlier v2 files do not record these fields
        unrecorded = {
            "expander": ("degree", "log_factor"),
            "heavy-hitters": ("degree", "error_fraction"),
            "pipeline": ("degree", "error_fraction", "log_factor", "bucket_factor"),
        }[scheme]

        def drop(header):
            for name in unrecorded:
                del header[name]

        schema, path = save_layered(tmp_path, scheme)
        rewrite(path, edit_header=drop)
        assert_loads_as(path, scheme, schema)


def rewrite(path, edit_header=None, edit_blocks=None):
    """Write a bits file back with its header and block list edited; the
    header's block_lengths follow the edited blocks."""
    scheme, header, blocks = serialize.read_blocks(str(path))
    header = dict(header)
    if edit_header:
        edit_header(header)
    if edit_blocks:
        blocks = edit_blocks(blocks)
    serialize.write_blocks(str(path), scheme, header, blocks)


class TestMalformedHeaders:
    def test_btree_file_with_an_extra_block_rejected(self, tmp_path):
        x, _ = sparse_unit(256, 2, 23)
        schema = btree.build_schema(256, 2, 4, 0.1, seed=24)
        bits = btree.measure(schema, x)
        path = tmp_path / "t.bits"
        serialize.save(str(path), schema, bits)
        rewrite(path, edit_blocks=lambda blocks: blocks + [blocks[-1]])
        with pytest.raises(ValueError, match="bit blocks"):
            serialize.load_measurement(str(path))

    @pytest.mark.parametrize("edit", [
        lambda header: header.pop("widths"),
        lambda header: header.update(widths=[334, 48, 7, 1]),
        lambda header: header.update(widths=header["widths"][:-1]),
        lambda header: header.update(widths=7),
        lambda header: header.update(widths=[343.0, 49.0, 7.0, 1.0]),
        lambda header: header.update(widths=[343, 49, 7, True]),
    ], ids=["missing", "unnested", "short", "not-a-list", "floats", "boolean"])
    def test_btree_file_without_its_widths_rejected(self, tmp_path, capsys, edit):
        # a file written before the header held the widths may have been
        # measured under other partitions: at n = 1000, k = 3, b = 7 the
        # widths were 334, 48, 7, 1 and are now 343, 49, 7, 1
        x, _ = sparse_unit(1000, 3, 23)
        schema = btree.build_schema(1000, 3, 7, 0.1, seed=24)
        bits = btree.measure(schema, x)
        path = tmp_path / "t.bits"
        serialize.save(str(path), schema, bits)
        assert serialize.read_blocks(str(path))[1]["widths"] == [343, 49, 7, 1]
        rewrite(path, edit_header=edit)
        with pytest.raises(ValueError, match="'widths'"):
            serialize.load_measurement(str(path))
        assert cli.main(["decode", "--bits", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("onebitcs: error:") and captured.err.count("\n") == 1

    def test_block_longer_than_the_file_rejected(self, tmp_path, capsys):
        # the header claims a 2^62-byte block; no read may ask for it
        path = ppcs_file(tmp_path)
        magic, header, body = path.read_bytes().split(b"\n", 2)
        fields = json.loads(header)
        fields["block_lengths"] = [1 << 62]
        path.write_bytes(b"\n".join([magic, json.dumps(fields).encode(), body]))
        with pytest.raises(ValueError, match="truncated"):
            serialize.load_measurement(str(path))
        assert cli.main(["decode", "--bits", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("onebitcs: error:") and captured.err.count("\n") == 1

    def test_btree_file_beyond_int64_indices_rejected(self, tmp_path, capsys):
        # a depth-16 file at n = 2^62 holding the zero signal's bits, whose
        # header is then made that of n = 2^64, also depth 16: every derived
        # field agrees, so only the bound on n can reject it
        schema = btree.build_schema(1 << 62, 2, 16, 0.05, seed=24)
        zero = [ps.SketchBits(bits=np.ones((lv.reps, 3, lv.buckets, 2), np.int8))
                for lv in schema.levels]
        path = tmp_path / "t.bits"
        serialize.save(str(path), schema, zero)
        serialize.load_measurement(str(path))  # intact, it loads
        widths = btree._level_widths(1 << 64, 2, 16, schema.depth)
        rewrite(path, edit_header=lambda header: header.update(n=1 << 64, widths=widths))
        with pytest.raises(ValueError, match=f"n={1 << 64}"):
            serialize.load_measurement(str(path))
        assert cli.main(["decode", "--bits", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("onebitcs: error:") and captured.err.count("\n") == 1

    def test_pipeline_file_missing_a_block_rejected(self, tmp_path):
        schema = recovery.build_pipeline(512, 2, 0.3, seed=29, gauss_rows=400)
        x, _ = sparse_unit(512, 2, 30)
        path = tmp_path / "p.bits"
        serialize.save(str(path), schema, recovery.measure(schema, x))
        rewrite(path, edit_blocks=lambda blocks: blocks[1:])
        with pytest.raises(ValueError, match="bit blocks"):
            serialize.load_measurement(str(path))

    @pytest.mark.parametrize("drop", [False, True], ids=["kept", "dropped"])
    @pytest.mark.parametrize("scheme, field", [("heavy-hitters", "buckets"),
                                               ("pipeline", "hh_buckets")])
    def test_forged_k_rejected_before_the_rebuild(self, tmp_path, scheme, field, drop):
        # k = 4096 at n = 2^12 would build 342 layered sketches, one per
        # bucket, before the header check that follows the rebuild
        n = 1 << 12
        if scheme == "pipeline":
            schema = recovery.build_pipeline(n, 4, 0.3, seed=31, gauss_rows=400)
        else:
            schema = heavy_hitters.build_schema(n, 4, seed=31)
        path = tmp_path / "f.bits"
        serialize.save(str(path), schema, harness.SCHEMES[scheme].measure(schema, np.ones(n)))

        def load_peak():
            """The tracemalloc peak of loading the file, and what it raised."""
            error = None
            tracemalloc.start()
            try:
                serialize.load_measurement(str(path))
            except ValueError as e:
                error = e
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return peak, error

        honest, error = load_peak()
        assert error is None
        def forge(header):
            header["k"] = 4096
            if drop:  # a file header may not lack the bucket field either
                del header[field]

        rewrite(path, edit_header=forge)
        forged, error = load_peak()
        assert type(error) is ValueError and f"field '{field}'" in str(error)
        assert forged < 2 * honest

    def test_missing_block_lengths_rejected(self, tmp_path):
        path = ppcs_file(tmp_path)
        magic, header, body = path.read_bytes().split(b"\n", 2)
        fields = json.loads(header)
        del fields["block_lengths"]
        path.write_bytes(b"\n".join([magic, json.dumps(fields).encode(), body]))
        with pytest.raises(ValueError, match="block_lengths"):
            serialize.load_measurement(str(path))

    def test_missing_n_rejected(self, tmp_path):
        path = ppcs_file(tmp_path)
        rewrite(path, edit_header=lambda header: header.pop("n"))
        with pytest.raises(ValueError, match="'n'"):
            serialize.load_measurement(str(path))


# (scheme, header field, ill-typed value)
ILL_TYPED = [
    ("expander", "degree", "3"),
    ("expander", "n", "256"),
    ("expander", "k", 2.5),
    ("expander", "k", 2.0),
    ("expander", "seed", True),
    ("expander", "error_fraction", float("inf")),
    ("expander", "log_factor", None),
    ("heavy-hitters", "bucket_factor", [1.0]),
    ("heavy-hitters", "buckets", False),
    ("pipeline", "delta", "0.3"),
    ("pipeline", "noise_sigma", float("nan")),
    ("pipeline", "gauss_rows", 400.0),
]


class TestTypedHeaders:
    @pytest.mark.parametrize("scheme, name, value", ILL_TYPED)
    def test_ill_typed_field_rejected(self, tmp_path, scheme, name, value):
        _, path = save_layered(tmp_path, scheme)
        rewrite(path, edit_header=lambda header: header.update({name: value}))
        with pytest.raises(ValueError, match=f"'{name}'"):
            serialize.load_measurement(str(path))

    @pytest.mark.parametrize("constants", [{"bucket_factor": 32.0, "rep_factor": 8,
                                            "cap_factor": 16}, 5])
    def test_ill_typed_constants_rejected(self, tmp_path, constants):
        path = ppcs_file(tmp_path)
        rewrite(path, edit_header=lambda header: header.update(constants=constants))
        with pytest.raises(ValueError, match="bucket_factor|constants"):
            serialize.load_measurement(str(path))

    @pytest.mark.parametrize("lengths", [["3"], [-1], 3])
    def test_ill_typed_block_lengths_rejected(self, tmp_path, lengths):
        path = ppcs_file(tmp_path)
        magic, header, body = path.read_bytes().split(b"\n", 2)
        fields = json.loads(header)
        fields["block_lengths"] = lengths
        path.write_bytes(b"\n".join([magic, json.dumps(fields).encode(), body]))
        with pytest.raises(ValueError, match="block"):
            serialize.load_measurement(str(path))

    def test_integer_for_a_float_field_accepted(self, tmp_path):
        schema, path = save_layered(tmp_path, "expander")
        rewrite(path, edit_header=lambda header: header.update(log_factor=1))
        assert_loads_as(path, "expander", schema)


def zero_first_byte(blocks):
    return [bytes(1) + blocks[0][1:]] + blocks[1:]


class TestImpossiblePairs:
    """A (-1, -1) polarity pair is never measured, so a block holding one is
    malformed; the gaussian sign vector has no pairs and is exempt."""

    def test_ppcs_block_rejected(self, tmp_path):
        path = ppcs_file(tmp_path)
        rewrite(path, edit_blocks=zero_first_byte)
        with pytest.raises(ValueError, match=r"\(-1, -1\) pair"):
            serialize.load_measurement(str(path))

    def test_pipeline_support_block_rejected_sign_block_exempt(self, tmp_path):
        schema = recovery.build_pipeline(512, 2, 0.3, seed=29, gauss_rows=400)
        x, _ = sparse_unit(512, 2, 30)
        path = tmp_path / "p.bits"
        serialize.save(str(path), schema, recovery.measure(schema, x))
        rewrite(path, edit_blocks=lambda blocks: blocks[:-1] + [bytes(len(blocks[-1]))])
        _, _, bits = serialize.load_measurement(str(path))
        assert (bits.sign_bits == -1).all()
        rewrite(path, edit_blocks=zero_first_byte)
        with pytest.raises(ValueError, match=r"\(-1, -1\) pair"):
            serialize.load_measurement(str(path))

    @pytest.mark.parametrize("buckets", [1, 2, 3, 4])
    def test_padding_is_not_a_pair(self, buckets):
        # 6 * buckets bits leave 2, 4, 6 or no padding bits in the last byte
        bits = np.tile(np.array([1, -1], dtype=np.int8), (1, 3, buckets, 1))
        packed = serialize.pack_bits(ps.SketchBits(bits=bits))
        assert np.array_equal(serialize.unpack_bits(packed, 1, buckets).bits, bits)
        bits[0, 2, buckets - 1] = -1  # the last pair, next to the padding
        with pytest.raises(ValueError, match=r"\(-1, -1\) pair"):
            serialize.unpack_bits(serialize.pack_bits(ps.SketchBits(bits=bits)), 1, buckets)


# rebuild inputs for every file scheme, read by name like a file header; k = 10
# at n = 1000 is at the layered sketch's sparsity limit, ceil(log2(n)), and
# above log2(n), so it makes 2 buckets
BUILD_INPUTS = {"n": 1000, "k": 10, "delta": 0.1, "seed": 5, "parts": 64, "b": 4,
                "gauss_rows": 400, "noise_sigma": 0.0, "buckets": 2, "hh_buckets": 2}
FILE_SCHEMES = [name for name, scheme in harness.SCHEMES.items() if scheme.layout]


def save_scheme(tmp_path, name, constants=ps.SketchConstants()):
    scheme = harness.SCHEMES[name]
    schema = scheme.rebuild(BUILD_INPUTS, constants)
    x = signals.gen_signal(signals.SPARSE_PLUS_TAIL, schema.n, 4, RandomSource(45))
    bits = scheme.measure(schema, x)
    path = tmp_path / f"{name}.bits"
    serialize.save(str(path), schema, bits)
    return schema, bits, path


def same_bits(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same_bits(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    return len(a) == len(b) and all(same_bits(u, v) for u, v in zip(a, b))


class TestFormatTable:
    @pytest.mark.parametrize("name", FILE_SCHEMES)
    def test_non_default_constants_round_trip(self, tmp_path, name):
        constants = ps.SketchConstants(bucket_factor=16, rep_factor=4, cap_factor=8)
        schema, bits, path = save_scheme(tmp_path, name, constants)
        name2, schema2, bits2 = serialize.load_measurement(str(path))
        scheme = harness.SCHEMES[name]
        assert name2 == name
        assert scheme.header(schema2) == scheme.header(schema)
        assert same_bits(bits2, bits)
        found, values, _ = scheme.decode(schema, bits)
        found2, values2, _ = scheme.decode(schema2, bits2)
        assert np.array_equal(found2, found) and np.array_equal(values2, values)

    @pytest.mark.parametrize("scheme, name", [
        ("ppcs", "reps"), ("ppcs", "buckets"), ("ppcs", "parts"), ("btree", "levels"),
        ("expander", "layers"), ("heavy-hitters", "buckets"), ("pipeline", "hh_buckets"),
    ])
    def test_header_disagreeing_with_the_rebuild_rejected(self, tmp_path, scheme, name):
        # 64 parts of 1000 coordinates round to 63 intervals of width 16
        _, _, path = save_scheme(tmp_path, scheme)
        rewrite(path, edit_header=lambda header: header.update({name: header[name] + 1}))
        with pytest.raises(ValueError, match=f"does not match file header field '{name}'"):
            serialize.load_measurement(str(path))

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("scheme", FILE_SCHEMES)
    @pytest.mark.parametrize("field", ["bucket_factor", "rep_factor", "cap_factor"])
    def test_zero_constant_rejected(self, tmp_path, scheme, field, value):
        _, _, path = save_scheme(tmp_path, scheme)
        rewrite(path, edit_header=lambda header: header["constants"].update({field: value}))
        with pytest.raises(ValueError, match=field):
            serialize.load_measurement(str(path))

    @pytest.mark.parametrize("scheme", FILE_SCHEMES)
    def test_non_positive_integer_field_rejected(self, tmp_path, capsys, scheme):
        # every integer field but the seed counts or sizes something
        _, _, path = save_scheme(tmp_path, scheme)
        _, header, _ = serialize.read_blocks(str(path))
        names = [name for name, value in header.items() if type(value) is int and name != "seed"]
        assert {"n", "k"} <= set(names)
        intact = path.read_bytes()
        for name in names:
            for value in (0, -1):
                path.write_bytes(intact)
                rewrite(path, edit_header=lambda header: header.update({name: value}))
                with pytest.raises(ValueError):
                    serialize.load_measurement(str(path))
                assert cli.main(["decode", "--bits", str(path)]) == 2, (name, value)
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith("onebitcs: error:")
                assert captured.err.count("\n") == 1


@pytest.mark.parametrize("header", [{"scheme": "expander"}, {}])
def test_read_blocks_rejects_a_header_scheme_unlike_the_magic_line(tmp_path, header):
    path = tmp_path / "m.bits"
    path.write_bytes(f"{serialize.MAGIC} btree\n{json.dumps(header)}\n".encode())
    with pytest.raises(ValueError, match="header scheme does not match magic line"):
        serialize.read_blocks(str(path))
