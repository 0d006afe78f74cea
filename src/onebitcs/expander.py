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
from .model import as_indices, signal_nonzeros
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

    Offsets 1, 2, ... are added symmetrically until the requested degree is
    reached (capped at s-1, the complete graph).
    """
    if s < 2:
        raise ValueError("need at least two layers")
    degree = min(degree, s - 1)
    neighbors = []
    for j in range(s):
        seen: list[int] = []
        offset = 1
        while len(seen) < degree:
            for cand in ((j + offset) % s, (j - offset) % s):
                if cand != j and cand not in seen and len(seen) < degree:
                    seen.append(cand)
            offset += 1
        neighbors.append(tuple(sorted(seen)))
    return tuple(neighbors)


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

    layer: int
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
    """Pack columns of small nonnegative integers into one comparable name per
    row: a (words, rows) uint64 array, each word holding a run of fields
    (see ``_word_fields``), so names compare word by word in the
    lexicographic order of the columns."""
    fields = _word_fields(widths)
    out = np.zeros((len(fields), len(columns[0])), dtype=np.uint64)
    for word, cols in zip(out, fields):
        for i in cols:
            word <<= np.uint64(widths[i])
            np.bitwise_or(word, columns[i], out=word, dtype=np.uint64, casting="unsafe")
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
    if n < 2:
        raise ValueError("need n >= 2")
    if k < 1:
        raise ValueError("need k >= 1")
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

    # (s, n): row j hashes every coordinate under name_key(j)
    name_keys = np.array([derive_key(seed, 300 + j) for j in range(s)])
    own_hash = uniform_index(name_keys[:, None], np.arange(n), h_range)
    codewords = code.codeword_table(n)  # (n, s), shared by every build at this n

    heavy_delta = float((1 << code.t)) ** -2
    check_delta = min(0.5, float(math.ceil(math.log2(n))) ** -2)
    h_bits = max(1, math.ceil(math.log2(h_range)))
    widths = (h_bits, code.t) + (h_bits,) * deg

    layers = []
    for j in range(s):
        columns = [own_hash[j], codewords[:, j]] + [own_hash[nb] for nb in neighbors[j]]
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
    hashes.  A coordinate that is not an integer in [0, n) raises ``ValueError``."""
    i = np.atleast_1d(as_indices(i, schema.n, "coordinate"))
    own = uniform_index(schema.name_key(layer), i, schema.h_range)
    chunk = schema.code.encode_many(i)[:, layer]
    cols = [own, chunk]
    for nb in schema.neighbors[layer]:
        cols.append(uniform_index(schema.name_key(nb), i, schema.h_range))
    return np.column_stack(cols)


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
    the count is an upper bound.
    """
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
        layer=layer, parts=found, names=ls.names_of(found), good_counts=good,
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
    s = schema.layers_count
    offsets = np.cumsum([0] + [ll.parts.size for ll in layer_lists])
    total = int(offsets[-1])
    uf = _UnionFind(total)
    # index of j in the name fields of layer j2 (and vice versa)
    pos = {
        (j, nb): 2 + idx
        for j in range(s)
        for idx, nb in enumerate(schema.neighbors[j])
    }
    lookup = []
    for ll in layer_lists:
        table: dict[int, list[int]] = {}
        for row in range(ll.parts.size):
            table.setdefault(int(ll.names[row, 0]), []).append(row)
        lookup.append(table)
    for j in range(s):
        ll = layer_lists[j]
        for nb in schema.neighbors[j]:
            if nb < j:
                continue
            col_fwd = pos[(j, nb)]
            col_back = pos[(nb, j)]
            other = layer_lists[nb]
            for row in range(ll.parts.size):
                claimed = int(ll.names[row, col_fwd])
                for row2 in lookup[nb].get(claimed, ()):
                    if int(other.names[row2, col_back]) == int(ll.names[row, 0]):
                        uf.union(int(offsets[j]) + row, int(offsets[nb]) + row2)
    components: dict[int, list[tuple[int, int]]] = {}
    for j in range(s):
        for row in range(layer_lists[j].parts.size):
            root = uf.find(int(offsets[j]) + row)
            components.setdefault(root, []).append((j, row))
    return list(components.values())


def link_cluster_decode(
    schema: ExpanderSchema, layer_lists: list[LayerList]
) -> tuple[np.ndarray, np.ndarray, RecoveryDiagnostics]:
    """Stitch per-layer name lists into coordinates.

    Vertices are (layer, name) survivors; an edge is added between adjacent
    layers only when each endpoint's name carries the other's own-hash (both
    endpoints must suggest it).  Each connected component contributes one
    chunk per layer (a missing layer is an erasure, conflicting claims count
    as a possible corruption), is decoded, and is kept only when the decoded
    coordinate's recomputed names agree with the component on enough layers.
    Every component is decoded first; then one ``make_name`` call per layer
    recomputes that layer's names for all decoded coordinates.
    """
    s = schema.layers_count
    components = _components(schema, layer_lists)
    decode_failures = 0
    values: list[int] = []
    claims_of: list[dict[int, list[int]]] = []
    for members in components:
        claims: dict[int, list[int]] = {}
        for j, row in members:
            claims.setdefault(j, []).append(row)
        slots = np.zeros(s, dtype=np.int64)
        for j, rows in claims.items():
            # conflicting claims stay in as a possible corruption for the
            # code to fix; the lowest part index supplies the symbol
            row = min(rows, key=lambda r: layer_lists[j].parts[r])
            slots[j] = layer_lists[j].names[row, 1]
        value = schema.code.decode(slots, [j for j in range(s) if j not in claims])
        if value is None or not 0 <= value < schema.n:
            decode_failures += 1
            continue
        values.append(value)
        claims_of.append(claims)

    # a layer counts as a match when the component has exactly one name
    # there and it equals the decoded coordinate's name
    decoded = np.array(values, dtype=np.int64)
    matches = np.zeros(decoded.size, dtype=np.int64)
    for j in range(s):
        single = [c for c, claims in enumerate(claims_of) if len(claims.get(j, ())) == 1]
        if not single:
            continue
        rows = [claims_of[c][j][0] for c in single]
        expected = make_name(schema, decoded[single], j)
        matches[single] += (expected == layer_lists[j].names[rows]).all(axis=1)

    min_matches = math.ceil((1.0 - ERROR_FRACTION) * s - 1e-9)
    results: dict[int, float] = {}
    verify_failures = 0
    for value, claims, match in zip(values, claims_of, matches):
        if match < min_matches:
            verify_failures += 1
            continue
        score = float(
            sum(layer_lists[j].good_counts[rows[0]] for j, rows in claims.items() if len(rows) == 1)
        )
        if value not in results or score > results[value]:
            results[value] = score
    coords = np.array(sorted(results), dtype=np.int64)
    scores = np.array([results[int(i)] for i in coords])
    coords, scores = ps.cap_by_score(coords, scores, schema.cap)
    diag = RecoveryDiagnostics(
        components=len(components),
        decode_failures=decode_failures,
        verify_failures=verify_failures,
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
