"""Measurement persistence: packed sign bits under a self-contained header.

File layout: an ASCII magic line, one JSON header line carrying every
parameter needed to rebuild the schema (including the master seed, so all
hash/sign/gaussian families regenerate on the decode side), then raw packed
bit blocks whose byte lengths are listed in the header.  The magic line names
the format version; a file of any other version is rejected, because its bits
were taken under a different hash layout (v2: one PRF word per repetition and
part of every partition sketch).  The header must hold every field its
scheme's loader reads, the file must hold exactly as many blocks as the
rebuilt schema measures, every block must have exactly the length its bit
count requires, and nothing may follow the last block.  Header values are
typed: integer fields must be JSON integers and float fields finite JSON
numbers (booleans are neither).  A partition sketch's block may not hold a
(-1, -1) polarity pair, which no measurement produces.

Bits pack +1 -> 1 and -1 -> 0 in little-endian bit order, following each
sketch's flattened row order (repetition-major, then sub-iteration, then
bucket, then polarity).
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import btree, expander, heavy_hitters, recovery
from . import partition_sketch as ps

MAGIC = "onebitcs-bits v2"


def pack_bits(sketch: ps.SketchBits) -> bytes:
    return np.packbits(sketch.bits.ravel() > 0, bitorder="little").tobytes()


def _unpack_exact(data: bytes, count: int, what: str) -> np.ndarray:
    """``count`` bits of a packed block as +-1 int8; the block must hold
    exactly the ceil(count / 8) bytes that packing ``count`` bits gives."""
    if len(data) != -(-count // 8):
        raise ValueError(
            f"{what} has {len(data)} bytes, expected {-(-count // 8)} for {count} bits"
        )
    flat = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=count, bitorder="little")
    # 1 -> 1 and 0 -> 255, which is -1 as int8, without a wider temporary
    flat <<= 1
    flat -= 1
    return flat.view(np.int8)


def unpack_bits(data: bytes, reps: int, buckets: int) -> ps.SketchBits:
    """A partition sketch's bits; a (-1, -1) polarity pair, which no
    measurement produces, makes the block malformed."""
    count = reps * 3 * buckets * 2
    bits = _unpack_exact(data, count, "bit block")
    # a pair is two adjacent bits from an even position: both 0 is (-1, -1)
    cleared = ~np.frombuffer(data, dtype=np.uint8)
    pairs = cleared & (cleared >> 1) & np.uint8(0x55)
    if count % 8:
        pairs[-1] &= np.uint8((1 << count % 8) - 1)  # the zero padding
    if pairs.any():
        raise ValueError("bit block holds a (-1, -1) pair, which no measurement produces")
    return ps.SketchBits(bits=bits.reshape(reps, 3, buckets, 2))


def _unpack_sketch(data: bytes, schema: ps.PointQuerySchema) -> ps.SketchBits:
    return unpack_bits(data, schema.reps, schema.buckets)


def _pack_layers(layers) -> list[bytes]:
    """Blocks of a layered sketch's bits: each layer's heavy, then check block."""
    return [pack_bits(sketch) for bits in layers for sketch in (bits.heavy, bits.check)]


def _unpack_layers(schema: expander.ExpanderSchema, blocks) -> tuple:
    """Inverse of ``_pack_layers``, taking the blocks from an iterator."""
    return tuple(
        expander.LayerBits(
            heavy=_unpack_sketch(next(blocks), layer.heavy_schema),
            check=_unpack_sketch(next(blocks), layer.check_schema),
        )
        for layer in schema.layers
    )


def _pack_buckets(bucket_bits) -> list[bytes]:
    """Blocks of a bucketed sketch: each bucket's layered-sketch blocks in turn."""
    return [block for layers in bucket_bits for block in _pack_layers(layers)]


def _unpack_buckets(schema: heavy_hitters.HeavyHitterSchema, blocks) -> list:
    """Inverse of ``_pack_buckets``, taking the blocks from an iterator."""
    return [_unpack_layers(sub, blocks) for sub in schema.sub_schemas]


def pack_sign_vector(y: np.ndarray) -> bytes:
    return np.packbits(np.asarray(y).ravel() > 0, bitorder="little").tobytes()


def unpack_sign_vector(data: bytes, rows: int) -> np.ndarray:
    return _unpack_exact(data, rows, "sign block")


_CONSTANT_FIELDS = ("bucket_factor", "rep_factor", "cap_factor")

# type of every top-level header field a loader reads
_FIELD_TYPES = {
    **dict.fromkeys(
        ("n", "k", "seed", "parts", "reps", "buckets", "b", "levels", "layers",
         "degree", "gauss_rows", "hh_buckets"),
        int,
    ),
    **dict.fromkeys(
        ("delta", "error_fraction", "log_factor", "bucket_factor", "noise_sigma"), float
    ),
}


def _typed(field: str, value, kind: type):
    """``value`` if it is an integer (``kind`` int) or a finite number
    (``kind`` float), else ``ValueError`` naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        ok = False
    elif kind is int:
        ok = isinstance(value, int)
    else:
        ok = math.isfinite(value)
    if not ok:
        what = "an integer" if kind is int else "a finite number"
        raise ValueError(f"bits file header field {field!r} must be {what}, not {value!r}")
    return value


class _Header(dict):
    """A parsed file header: a missing field is a malformed file, so reading
    one raises ``ValueError`` naming the field instead of ``KeyError``, and
    so does reading a field whose value does not have its type in ``types``."""

    def __init__(self, fields: dict, types: dict):
        super().__init__(fields)
        self.types = types

    def __missing__(self, key):
        raise ValueError(f"bits file header lacks the field {key!r}")

    def __getitem__(self, key):
        value = super().__getitem__(key)
        kind = self.types.get(key)
        return value if kind is None else _typed(key, value, kind)


def _constants_dict(c: ps.SketchConstants) -> dict:
    return {name: getattr(c, name) for name in _CONSTANT_FIELDS}


def _constants_from(d) -> ps.SketchConstants:
    if not isinstance(d, dict):
        raise ValueError(f"bits file header field 'constants' must be an object, not {d!r}")
    d = _Header(d, dict.fromkeys(_CONSTANT_FIELDS, int))
    return ps.SketchConstants(**{name: d[name] for name in _CONSTANT_FIELDS})


def _optional(header: dict, *fields: str) -> dict:
    """Build parameters that older v2 files may lack; a missing one takes its
    build default."""
    return {name: header[name] for name in fields if name in header}


def _sub_schema_params(schema: heavy_hitters.HeavyHitterSchema) -> dict:
    """Layered-sketch parameters shared by every bucket's sub-sketch."""
    sub = schema.sub_schemas[0]
    return {"degree": sub.degree, "error_fraction": sub.error_fraction}


def _check_block_count(blocks: list[bytes], expected: int, scheme: str):
    if len(blocks) != expected:
        raise ValueError(
            f"{scheme} file holds {len(blocks)} bit blocks, its schema measures {expected}"
        )


def write_blocks(path: str, scheme: str, header: dict, blocks: list[bytes]):
    header = dict(header)
    header["scheme"] = scheme
    header["block_lengths"] = [len(b) for b in blocks]
    with open(path, "wb") as fh:
        fh.write(f"{MAGIC} {scheme}\n".encode())
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
        for block in blocks:
            fh.write(block)


def read_blocks(path: str) -> tuple[str, dict, list[bytes]]:
    with open(path, "rb") as fh:
        magic, _, scheme = fh.readline().decode().rstrip("\n").rpartition(" ")
        if magic != MAGIC:
            raise ValueError(f"{path} is not a {MAGIC} file (magic {magic!r})")
        header = json.loads(fh.readline().decode())
        if not isinstance(header, dict) or header.get("scheme") != scheme:
            raise ValueError(f"{path}: header scheme does not match magic line")
        header = _Header(header, _FIELD_TYPES)
        lengths = header["block_lengths"]
        if not isinstance(lengths, list):
            raise ValueError(f"{path}: header field 'block_lengths' must be a list")
        for length in lengths:
            if _typed("block_lengths", length, int) < 0:
                raise ValueError(f"{path}: negative block length {length}")
        blocks = [fh.read(length) for length in lengths]
        if any(len(b) != length for b, length in zip(blocks, lengths)):
            raise ValueError(f"{path} is truncated")
        if fh.read(1):
            raise ValueError(f"{path} has trailing bytes after its last block")
    return scheme, header, blocks


# -- scheme-specific save/load ------------------------------------------------

def save_ppcs(path: str, schema: ps.PointQuerySchema, bits: ps.SketchBits):
    if schema.partition.starts is None:
        raise ValueError(
            "only interval partitions are serialized; name partitions are "
            "schema-internal (layered sketches persist through their own format)"
        )
    header = {
        "n": schema.n,
        "parts": schema.partition.size,
        "k": schema.k,
        "delta": schema.delta,
        "seed": schema.seed,
        "reps": schema.reps,
        "buckets": schema.buckets,
        "constants": _constants_dict(schema.constants),
    }
    write_blocks(path, "ppcs", header, [pack_bits(bits)])


def load_ppcs(header: dict, blocks: list[bytes]):
    partition = ps.PartitionFamily.contiguous(header["n"], header["parts"])
    schema = ps.build_schema(
        partition, header["k"], header["delta"], header["seed"],
        _constants_from(header["constants"]),
    )
    if schema.reps != header["reps"] or schema.buckets != header["buckets"]:
        raise ValueError("rebuilt schema does not match file header")
    _check_block_count(blocks, 1, "ppcs")
    return schema, _unpack_sketch(blocks[0], schema)


def save_btree(path: str, schema: btree.BTreeSchema, level_bits: list[ps.SketchBits]):
    header = {
        "n": schema.n, "k": schema.k, "b": schema.b, "delta": schema.delta,
        "seed": schema.seed, "levels": len(schema.levels),
        "constants": _constants_dict(schema.constants),
    }
    write_blocks(path, "btree", header, [pack_bits(b) for b in level_bits])


def load_btree(header: dict, blocks: list[bytes]):
    schema = btree.build_schema(
        header["n"], header["k"], header["b"], header["delta"], header["seed"],
        _constants_from(header["constants"]),
    )
    if len(schema.levels) != header["levels"]:
        raise ValueError("rebuilt level count does not match file header")
    _check_block_count(blocks, len(schema.levels), "btree")
    return schema, [
        _unpack_sketch(block, level.schema) for block, level in zip(blocks, schema.levels)
    ]


def save_expander(path: str, schema: expander.ExpanderSchema, bits):
    header = {
        "n": schema.n, "k": schema.k, "seed": schema.seed,
        "layers": schema.layers_count,
        "degree": schema.degree,
        "error_fraction": schema.error_fraction,
        "log_factor": schema.log_factor,
        "constants": _constants_dict(schema.constants),
    }
    write_blocks(path, "expander", header, _pack_layers(bits))


def load_expander(header: dict, blocks: list[bytes]):
    schema = expander.build_schema(
        header["n"], header["k"], header["seed"],
        _constants_from(header["constants"]),
        error_fraction=header["error_fraction"],
        **_optional(header, "degree", "log_factor"),
    )
    if schema.layers_count != header["layers"]:
        raise ValueError("rebuilt layer count does not match file header")
    _check_block_count(blocks, 2 * schema.layers_count, "expander")
    return schema, _unpack_layers(schema, iter(blocks))


def save_heavy_hitters(path: str, schema: heavy_hitters.HeavyHitterSchema, bucket_bits):
    header = {
        "n": schema.n, "k": schema.k, "seed": schema.seed,
        "buckets": schema.buckets,
        "log_factor": schema.log_factor,
        "bucket_factor": schema.bucket_factor,
        **_sub_schema_params(schema),
        "constants": _constants_dict(schema.constants),
    }
    write_blocks(path, "heavy-hitters", header, _pack_buckets(bucket_bits))


def _hh_block_count(schema: heavy_hitters.HeavyHitterSchema) -> int:
    return 2 * sum(len(sub.layers) for sub in schema.sub_schemas)


def load_heavy_hitters(header: dict, blocks: list[bytes]):
    schema = heavy_hitters.build_schema(
        header["n"], header["k"], header["seed"],
        _constants_from(header["constants"]),
        log_factor=header["log_factor"],
        bucket_factor=header["bucket_factor"],
        **_optional(header, "degree", "error_fraction"),
    )
    if schema.buckets != header["buckets"]:
        raise ValueError("rebuilt bucket count does not match file header")
    _check_block_count(blocks, _hh_block_count(schema), "heavy-hitters")
    return schema, _unpack_buckets(schema, iter(blocks))


def save_pipeline(path: str, schema: recovery.PipelineSchema, bits: recovery.PipelineBits):
    header = {
        "n": schema.n, "k": schema.k, "delta": schema.delta, "seed": schema.seed,
        "gauss_rows": schema.gauss_schema.rows,
        "noise_sigma": schema.gauss_schema.noise_sigma,
        "hh_buckets": schema.support_schema.buckets,
        "log_factor": schema.support_schema.log_factor,
        "bucket_factor": schema.support_schema.bucket_factor,
        **_sub_schema_params(schema.support_schema),
        "constants": _constants_dict(schema.support_schema.constants),
    }
    blocks = _pack_buckets(bits.support_bits) + [pack_sign_vector(bits.sign_bits)]
    write_blocks(path, "pipeline", header, blocks)


def load_pipeline(header: dict, blocks: list[bytes]):
    schema = recovery.build_pipeline(
        header["n"], header["k"], header["delta"], header["seed"],
        gauss_rows=header["gauss_rows"], noise_sigma=header["noise_sigma"],
        constants=_constants_from(header["constants"]),
        **_optional(header, "degree", "error_fraction", "log_factor", "bucket_factor"),
    )
    if schema.support_schema.buckets != header["hh_buckets"]:
        raise ValueError("rebuilt bucketing does not match file header")
    _check_block_count(blocks, _hh_block_count(schema.support_schema) + 1, "pipeline")
    support_bits = _unpack_buckets(schema.support_schema, iter(blocks))
    sign_bits = unpack_sign_vector(blocks[-1], schema.gauss_schema.rows)
    return schema, recovery.PipelineBits(support_bits=support_bits, sign_bits=sign_bits)


_LOADERS = {
    "ppcs": load_ppcs,
    "btree": load_btree,
    "expander": load_expander,
    "heavy-hitters": load_heavy_hitters,
    "pipeline": load_pipeline,
}


def load_measurement(path: str):
    """Rebuild (scheme name, schema, bits) from a bits file alone."""
    scheme, header, blocks = read_blocks(path)
    if scheme not in _LOADERS:
        raise ValueError(f"unknown scheme {scheme!r} in {path}")
    schema, bits = _LOADERS[scheme](header, blocks)
    return scheme, schema, bits
