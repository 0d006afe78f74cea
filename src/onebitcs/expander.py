"""Layered sketch for small sparsity: coded names, linking, and clustering.

Each coordinate's identity is Reed-Solomon coded into s chunks.  Layer j
partitions [n] by a name string combining the coordinate's layer-j hash, its
j-th code chunk, and its hashes under the layers adjacent to j in a fixed
expander graph.  Heavy names are recovered per layer with the count-sketch
decoder, re-checked with a point-query sketch, and then stitched back into
coordinates by linking mutually consistent names across layers and decoding
each connected component's chunks.

A layer keeps every coordinate's name packed into uint64 words (one word up
to 64 name bits, two from n = 2^17) and the sorted distinct names as its
keys.  A part is a distinct name, numbered by its rank among the keys, so a
build is the names plus one sort, and finding a coordinate's part is a
search of its name in the keys.  Decoding unpacks the name fields of the
parts it finds only.  The codeword table the names draw their chunks from
depends on n alone and is shared by every build at that n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import partition_sketch as ps
from .model import as_indices, positive_int, signal_nonzeros
from .prf import derive_key, uniform_index
from .rscode import ChunkCode

# fixed constants of the construction: each layer's name carries the hashes
# of DEGREE neighbouring layers, the code corrects ERROR_FRACTION of its
# chunks, and the sketch accepts sparsity up to LOG_FACTOR * log2(n)
DEGREE = 4
ERROR_FRACTION = 0.25
LOG_FACTOR = 1.0


def circulant_neighbors(s: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Neighbor lists of a circulant graph on [s]; connected, equal degrees.

    Layer j takes the first min(degree, s-1) distinct layers of j+1, j-1,
    j+2, j-2, ... (mod s), sorted; degree s-1 is the complete graph.
    """
    if s < 2 or degree < 0:
        raise ValueError(f"need at least two layers and degree >= 0, got s={s}, degree={degree}")
    offsets = list(dict.fromkeys(d * sign % s for d in range(1, s // 2 + 1) for sign in (1, -1)))
    return tuple(tuple(sorted((j + d) % s for d in offsets[:degree])) for j in range(s))


@dataclass(frozen=True)
class LayerSchema:
    # one part per distinct packed name; its sorted keys are the name table
    partition: ps.PartitionFamily
    widths: tuple[int, ...]  # bit width of each name field, own hash first
    heavy_schema: ps.PointQuerySchema  # count-sketch mode
    check_schema: ps.PointQuerySchema  # point-query mode

    def names_of(self, parts) -> np.ndarray:
        """(len(parts), 2 + degree) name fields of the given parts."""
        keys = self.partition.keys.take(np.asarray(parts, dtype=np.int64), axis=1)
        return _unpack_keys(keys, self.widths)

    @property
    def names(self) -> np.ndarray:
        """(parts, 2 + degree) name field table, row per part."""
        return self.names_of(np.arange(self.partition.size))


@dataclass(frozen=True)
class ExpanderSchema:
    n: int
    k: int
    seed: int
    layers_count: int
    code: ChunkCode
    degree: int  # DEGREE, capped at layers_count - 1
    h_range: int
    neighbors: tuple[tuple[int, ...], ...]
    layers: tuple[LayerSchema, ...]
    constants: ps.SketchConstants

    @property
    def name_bits(self) -> int:
        h_bits = max(1, math.ceil(math.log2(self.h_range)))
        return h_bits + self.code.t + self.degree * h_bits

    @property
    def total_rows(self) -> int:
        return sum(
            layer.heavy_schema.rows + layer.check_schema.rows for layer in self.layers
        )

    @property
    def cap(self) -> int:
        return self.constants.cap_factor * self.k

    def name_key(self, layer: int) -> np.uint64:
        return derive_key(self.seed, 300 + layer)


@dataclass(frozen=True)
class LayerBits:
    heavy: ps.SketchBits
    check: ps.SketchBits


@dataclass(frozen=True)
class LayerList:
    """Surviving candidates of one layer after filtering and point queries."""

    parts: np.ndarray
    names: np.ndarray  # (len(parts), 2 + degree)
    good_counts: np.ndarray
    point_queries: int = 0
    bit_reads: int = 0


@dataclass(frozen=True)
class RecoveryDiagnostics:
    components: int = 0
    decode_failures: int = 0
    verify_failures: int = 0
    point_queries: int = 0
    bit_reads: int = 0


def max_sparsity(n: int) -> int:
    """Largest sparsity this scheme accepts before bucketing must take over."""
    return max(1, math.ceil(LOG_FACTOR * math.log2(max(n, 2))))


def _word_fields(widths) -> list[range]:
    """Fields of each 64-bit key word: runs of consecutive fields, filled
    greedily, so that comparing the words in order compares the fields in
    order."""
    words, start, used = [], 0, 0
    for i, w in enumerate(widths):
        if used + w > 64:
            words.append(range(start, i))
            start, used = i, 0
        used += w
    words.append(range(start, len(widths)))
    return words


def _pack_rows(columns, widths) -> np.ndarray:
    """Pack uint64 columns of small integers into one comparable name per
    row: a (words, rows) uint64 array, each word holding a run of fields
    (see ``_word_fields``), so names compare word by word in the
    lexicographic order of the columns."""
    fields = _word_fields(widths)
    out = np.empty((len(fields), len(columns[0])), dtype=np.uint64)
    for word, cols in zip(out, fields):
        # Horner's rule over the fields, its first shift writing the word
        shifts = [widths[i] for i in cols[1:]] + [0]  # each field's successor's width
        np.left_shift(columns[cols[0]], np.uint64(shifts[0]), out=word)
        for i, shift in zip(cols[1:], shifts[1:]):
            word |= columns[i]
            if shift:
                word <<= np.uint64(shift)
    return out


def _unpack_keys(keys: np.ndarray, widths) -> np.ndarray:
    """Inverse of ``_pack_rows``: one int64 row of fields per name column."""
    fields = np.empty((keys.shape[1], len(widths)), dtype=np.int64)
    for word, cols in zip(keys, _word_fields(widths)):
        shift = 0
        for col in reversed(cols):
            fields[:, col] = (word >> np.uint64(shift)) & np.uint64((1 << widths[col]) - 1)
            shift += widths[col]
    return fields


def build_schema(
    n: int,
    k: int,
    seed: int,
    constants: ps.SketchConstants = ps.SketchConstants(),
) -> ExpanderSchema:
    """Build the layered naming scheme and its per-layer sketches.

    The count-sketch failure target is (2^t)^-2 for name chunks of t bits;
    the point-query failure target is log2(n)^-2.
    """
    n, k = positive_int(n, "n"), positive_int(k, "k")
    if n < 2:
        raise ValueError("need n >= 2")
    if k > max_sparsity(n):
        raise ValueError(
            f"sparsity {k} exceeds the small-sparsity limit "
            f"{max_sparsity(n)} for n={n}; reduce per-instance "
            "sparsity by bucketing first"
        )
    message_bits = max(1, math.ceil(math.log2(n)))
    log_bits = max(1.0, math.log2(max(message_bits, 2)))
    s = max(4, math.ceil(message_bits / log_bits))
    code = ChunkCode.for_error_fraction(message_bits, s, ERROR_FRACTION)
    neighbors = circulant_neighbors(s, DEGREE)
    deg = len(neighbors[0])
    h_range = max(16, math.ceil(math.log2(n)) ** 3)

    # (s, n) uint64 rows, contiguous for _pack_rows: row j hashes every
    # coordinate under name_key(j), and chunks[j] is every coordinate's chunk j
    name_keys = np.array([derive_key(seed, 300 + j) for j in range(s)])
    own_hash = uniform_index(name_keys[:, None], np.arange(n), h_range).view(np.uint64)
    chunks = code.codeword_table(n)

    heavy_delta = float((1 << code.t)) ** -2
    check_delta = min(0.5, float(math.ceil(math.log2(n))) ** -2)
    h_bits = max(1, math.ceil(math.log2(h_range)))
    widths = (h_bits, code.t) + (h_bits,) * deg

    layers = []
    for j in range(s):
        columns = [own_hash[j], chunks[j]] + [own_hash[nb] for nb in neighbors[j]]
        partition = ps.PartitionFamily.from_names(_pack_rows(columns, widths))
        heavy_schema = ps.build_schema(
            partition, k, heavy_delta,
            seed=int(derive_key(seed, 400 + j)), constants=constants,
        )
        check_schema = ps.build_schema(
            partition, k, check_delta,
            seed=int(derive_key(seed, 500 + j)), constants=constants,
        )
        layers.append(
            LayerSchema(
                partition=partition,
                widths=widths,
                heavy_schema=heavy_schema,
                check_schema=check_schema,
            )
        )
    return ExpanderSchema(
        n=n, k=k, seed=seed, layers_count=s, code=code, degree=deg,
        h_range=h_range, neighbors=neighbors,
        layers=tuple(layers), constants=constants,
    )


def make_name(schema: ExpanderSchema, i, layer: int) -> np.ndarray:
    """Name fields of coordinate(s) i in a layer: own hash, chunk, neighbor
    hashes.  A coordinate that is not an integer in [0, n), or a layer outside
    [0, layers_count), raises ``ValueError``."""
    layer = int(as_indices(layer, schema.layers_count, "layer"))
    i = np.atleast_1d(as_indices(i, schema.n, "coordinate"))
    keys = np.array([schema.name_key(j) for j in (layer, *schema.neighbors[layer])])
    own, *neighbors = uniform_index(keys[:, None], i, schema.h_range)
    return np.column_stack([own, schema.code.encode_many(i)[:, layer], *neighbors])


def measure(schema: ExpanderSchema, x) -> tuple[LayerBits, ...]:
    return _measure(schema, *signal_nonzeros(x, schema.n))


def _measure(schema: ExpanderSchema, nz, vals) -> tuple[LayerBits, ...]:
    """``measure`` of the signal whose nonzeros ``vals`` sit at ``nz``: each
    layer finds the parts of the nonzeros once, for both of its sketches."""
    out = []
    for layer in schema.layers:
        parts = [layer.partition.parts_of(nz)]
        heavy, check = (ps._measure((s,), nz, vals, parts)[0]
                        for s in (layer.heavy_schema, layer.check_schema))
        out.append(LayerBits(heavy=heavy, check=check))
    return tuple(out)


def layer_decode(schema: ExpanderSchema, layer: int, bits: LayerBits) -> LayerList:
    """Candidate heavy names of one layer.

    Count-sketch decode over the realized names (pruned by the nonzero
    probe), then drop candidates whose own-hash collides within the list,
    then keep those passing the point-query check's vote, capped by good
    count.  Both sketches are checked first.  ``bit_reads`` counts the probe
    as reading all parts' rows in all ``ps.PROBE_REPS`` repetitions and each
    vote all its candidates' in all; both stop reading parts that fail, so
    the count is an upper bound.  A layer outside [0, layers_count) raises
    ``ValueError``.
    """
    layer = int(as_indices(layer, schema.layers_count, "layer"))
    ls = schema.layers[layer]
    heavy = ps._check_bits(ls.heavy_schema, bits.heavy)
    check = ps._check_bits(ls.check_schema, bits.check)
    candidates = ps._nonzero_candidates(ls.heavy_schema, heavy)
    queries = int(candidates.size)
    reads = ls.partition.size * 3 * min(ps.PROBE_REPS, ls.heavy_schema.reps) * 2
    reads += queries * 3 * ls.heavy_schema.reps * 2
    found, good = ps._count_sketch_decode(ls.heavy_schema, heavy, candidates)
    own = ls.names_of(found)[:, 0]
    _, inverse, counts = np.unique(own, return_inverse=True, return_counts=True)
    found = found[counts[inverse] == 1]
    queries += int(found.size)
    reads += int(found.size) * 3 * ls.check_schema.reps * 2
    found, good = ps._count_sketch_decode(ls.check_schema, check, found)
    return LayerList(
        parts=found, names=ls.names_of(found), good_counts=good,
        point_queries=queries, bit_reads=reads,
    )


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _components(
    schema: ExpanderSchema, layer_lists: list[LayerList]
) -> list[list[tuple[int, int]]]:
    """Connected (layer, row) survivors: an edge joins adjacent layers only
    when each endpoint's name carries the other's own-hash."""
    offsets = np.cumsum([0] + [ll.parts.size for ll in layer_lists]).tolist()
    uf = _UnionFind(offsets[-1])
    for j, neighbors in enumerate(schema.neighbors):
        for col, nb in enumerate(neighbors, start=2):
            if nb < j:
                continue
            a, b = layer_lists[j].names, layer_lists[nb].names
            back = 2 + schema.neighbors[nb].index(j)  # b's field carrying j's own-hash
            linked = (a[:, col, None] == b[:, 0]) & (a[:, 0, None] == b[:, back])
            for row, row2 in zip(*np.nonzero(linked)):
                uf.union(offsets[j] + int(row), offsets[nb] + int(row2))
    components: dict[int, list[tuple[int, int]]] = {}
    for j, ll in enumerate(layer_lists):
        for row in range(ll.parts.size):
            components.setdefault(uf.find(offsets[j] + row), []).append((j, row))
    return list(components.values())


def link_cluster_decode(
    schema: ExpanderSchema, layer_lists: list[LayerList]
) -> tuple[np.ndarray, np.ndarray, RecoveryDiagnostics]:
    """Stitch per-layer name lists into coordinates.

    Vertices are (layer, name) survivors; an edge is added between adjacent
    layers only when each endpoint's name carries the other's own-hash (both
    endpoints must suggest it).  One table per (component, layer) counts the
    claiming rows and keeps, of those, the one with the lowest part index,
    whose chunk the component decodes: a missing layer is an erasure, and
    conflicting claims stay in as a possible corruption for the code to fix.
    Then one ``make_name`` call per layer recomputes that layer's names for
    all decoded coordinates.  A layer counts as a match when the component
    claims it exactly once and the name there equals the decoded
    coordinate's; a coordinate is kept only when enough layers match, and it
    scores the good counts of its single claims.
    """
    s = schema.layers_count
    components = _components(schema, layer_lists)
    claims, row, chunk = np.zeros((3, len(components), s), dtype=np.int64)
    for c, members in enumerate(components):
        for j, r in members:
            parts = layer_lists[j].parts
            if not claims[c, j] or parts[r] < parts[row[c, j]]:
                row[c, j], chunk[c, j] = r, layer_lists[j].names[r, 1]
            claims[c, j] += 1
    values = [schema.code.decode(symbols, np.flatnonzero(count == 0))
              for symbols, count in zip(chunk, claims)]
    kept = [c for c, value in enumerate(values) if value is not None and value < schema.n]
    decoded = np.array([values[c] for c in kept], dtype=np.int64)
    claims, row = claims[kept], row[kept]

    matches = np.zeros(decoded.size, dtype=np.int64)
    scores = np.zeros(decoded.size)
    for j in range(s):
        single = np.flatnonzero(claims[:, j] == 1)
        rows = row[single, j]
        expected = make_name(schema, decoded[single], j)
        matches[single] += (expected == layer_lists[j].names[rows]).all(axis=1)
        scores[single] += layer_lists[j].good_counts[rows]

    verified = matches >= math.ceil((1.0 - ERROR_FRACTION) * s - 1e-9)
    coords, scores = ps.cap_by_score(decoded[verified], scores[verified], schema.cap)
    diag = RecoveryDiagnostics(
        components=len(components),
        decode_failures=len(components) - len(kept),
        verify_failures=int(np.count_nonzero(~verified)),
        point_queries=sum(ll.point_queries for ll in layer_lists),
        bit_reads=sum(ll.bit_reads for ll in layer_lists),
    )
    return coords, scores, diag


def recover(
    schema: ExpanderSchema, bits: tuple[LayerBits, ...]
) -> tuple[np.ndarray, np.ndarray, RecoveryDiagnostics]:
    """Full decode: per-layer lists, then link-and-cluster reassembly."""
    if len(bits) != schema.layers_count:
        raise ValueError("layer bit count does not match schema")
    lists = [layer_decode(schema, j, bits[j]) for j in range(schema.layers_count)]
    return link_cluster_decode(schema, lists)
