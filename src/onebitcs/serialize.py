"""Measurement persistence: packed sign bits under a self-contained header.

File layout: an ASCII magic line, one JSON header line carrying every
parameter needed to rebuild the schema (including the master seed, so all
hash/sign/gaussian families regenerate on the decode side), then raw packed
bit blocks whose byte lengths are listed in the header.  The magic line names
the format version; a file of any other version is rejected, because its bits
were taken under a different hash layout (v2: one PRF word per repetition and
part of every partition sketch).

Each file scheme's header fields, schema rebuild and block layout sit on its
``harness.SCHEMES`` entry; ``save`` and ``load_measurement`` serve every
scheme from there.  On load, every header field of the rebuilt schema must
equal the file's, so the layered sketch's degree, error fraction, log
factor and bucket factor, which are fixed constants, must hold their
values; only a field earlier v2 files lack may be absent.  The block count
must be the schema's, every block must have exactly the length its bit
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
from dataclasses import fields, is_dataclass

import numpy as np

from . import harness
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


def _constants_from(d) -> ps.SketchConstants:
    if not isinstance(d, dict):
        raise ValueError(f"bits file header field 'constants' must be an object, not {d!r}")
    d = _Header(d, dict.fromkeys(_CONSTANT_FIELDS, int))
    return ps.SketchConstants(**{name: d[name] for name in _CONSTANT_FIELDS})


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


def _blocks(bits) -> list[bytes]:
    """The packed blocks of a measurement's bits, depth first over its
    fields and items: the order its scheme's layout takes them in."""
    if isinstance(bits, ps.SketchBits):
        return [pack_bits(bits)]
    if isinstance(bits, np.ndarray):
        return [pack_sign_vector(bits)]
    if is_dataclass(bits):
        bits = [getattr(bits, f.name) for f in fields(bits)]
    return [block for part in bits for block in _blocks(part)]


def _unpack(block: bytes, leaf):
    if isinstance(leaf, ps.PointQuerySchema):
        return unpack_bits(block, leaf.reps, leaf.buckets)
    return unpack_sign_vector(block, leaf.rows)


def save(path: str, schema, bits):
    """Write a measurement as a bits file in its schema's scheme."""
    for name, scheme in harness.SCHEMES.items():
        if scheme.schema_type is type(schema):
            return write_blocks(path, name, scheme.header(schema), _blocks(bits))
    raise ValueError(f"no bits-file scheme saves a {type(schema).__name__}")


# the benchmark saves through this name and its tracer times it
save_pipeline = save


def load_measurement(path: str):
    """Rebuild (scheme name, schema, bits) from a bits file alone."""
    name, header, blocks = read_blocks(path)
    scheme = harness.SCHEMES.get(name)
    if scheme is None or scheme.layout is None:
        raise ValueError(f"unknown scheme {name!r} in {path}")
    schema = scheme.rebuild(header, _constants_from(header["constants"]))
    for field, value in scheme.header(schema).items():
        if (field in header or field not in scheme.optional) and header[field] != value:
            raise ValueError(f"rebuilt schema does not match file header field {field!r}")
    leaves = []
    scheme.layout(schema, leaves.append)
    if len(blocks) != len(leaves):
        raise ValueError(
            f"{name} file holds {len(blocks)} bit blocks, its schema measures {len(leaves)}"
        )
    blocks = iter(blocks)
    return name, schema, scheme.layout(schema, lambda leaf: _unpack(next(blocks), leaf))
