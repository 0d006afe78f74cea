"""Shared independent oracles and instance builders for the test suite.

Everything here deliberately avoids the library's own fast paths: bits are
recomputed from the measurement definition with scalar loops, optima are
reproduced by projected ascent and by Lagrangian duality, and instances are
constructed directly from their defining property.
"""

import functools
import math

import numpy as np

from onebitcs.partition_sketch import (
    PartitionFamily,
    SketchConstants,
    build_schema,
    measure,
)
from onebitcs.prf import RandomSource, derive_key, fold, standard_normal, uniform_index


def label_partition(labels):
    """A name partition whose parts are the given per-coordinate labels: one
    one-word name per coordinate.  Parts are the labels' ranks, so for labels
    covering 0..size-1 a coordinate's part is its label."""
    return PartitionFamily.from_names(np.asarray(labels, dtype=np.uint64)[None])


def sparse_unit(n, k, seed):
    """Exactly k-sparse unit vector with +-1/sqrt(k) entries."""
    src = RandomSource(seed)
    sup = src.derive(1).choice_without_replacement(n, k)
    x = np.zeros(n)
    x[sup] = src.derive(2).signs(np.arange(k)) / math.sqrt(k)
    return x, sup


def planted_signal(n, k, source, head_scale=1.0):
    """Dense unit vector with one coordinate at head_scale * (minimal heavy)."""
    head_energy = head_scale / (k + head_scale)
    x = source.derive(1).gaussian(np.arange(n))
    spot = int(source.derive(2).indices(np.array(0), n))
    x[spot] = 0.0
    x *= math.sqrt(1.0 - head_energy) / np.linalg.norm(x)
    x[spot] = math.sqrt(head_energy) * float(source.derive(3).signs(np.array(0)))
    return x, spot


def crowded_signal(n, parts, width, source, query_scale=1e-3):
    """Flat vector except the queried part, which holds one tiny coordinate.

    Every other part carries equal energy, so far more than the rejection
    threshold of parts dominate the queried one.
    """
    jq = int(source.derive(1).indices(np.array(0), parts))
    x = np.ones(n) / math.sqrt(n)
    lo = jq * width
    hi = min(lo + width, n)
    x[lo:hi] = 0.0
    x[lo] = query_scale / math.sqrt(n)
    return x, jq


def row_hash(schema, rep, part):
    """[(bucket, sign)] of one part in the three rows of one repetition, by
    the layout's definition in Python integers: one PRF word per (repetition,
    part); sub-iteration s takes bucket (bits [20s, 20s + 20) * buckets) >> 20
    and sign +1 when bit 60 + s is set, else -1."""
    word = int(fold(fold(schema.bucket_key, rep), part))
    return [
        ((((word >> (20 * sub)) & 0xFFFFF) * schema.buckets) >> 20,
         1 if (word >> (60 + sub)) & 1 else -1)
        for sub in range(3)
    ]


def exhaustive_reps(schema, sketch, parts):
    """Whether each repetition is good for each of ``parts``, and whether
    all three of its rows are zero: two (reps, len(parts)) bool arrays, with
    buckets and signs by the layout's definition (see ``row_hash``) and each
    row's pair read from the (reps, 3, buckets, 2) bit tensor."""
    parts = np.asarray(parts, dtype=np.int64)
    reps = np.arange(schema.reps)
    words = fold(fold(schema.bucket_key, reps)[:, None], parts[None, :])[:, None, :]
    subs = np.arange(3, dtype=np.uint64)[None, :, None]
    twenty = np.uint64(20)
    bucket = ((words >> (twenty * subs)) & np.uint64(0xFFFFF)) * np.uint64(schema.buckets) >> twenty
    sign = np.where((words >> (np.uint64(60) + subs)) & np.uint64(1), 1, -1)
    pair = sketch.bits[reps[:, None, None], np.arange(3)[None, :, None], bucket.astype(np.int64)]
    y, zero = pair[..., 0], (pair[..., 0] == 1) & (pair[..., 1] == 1)
    matches = y == sign
    good_rep = ~zero.any(axis=1) & (matches.all(axis=1) | (~matches).all(axis=1))
    return good_rep, zero.all(axis=1)


def exhaustive_stats(schema, sketch, parts):
    """(good counts, zero declared) of ``parts``, tallied over every
    repetition whether or not a part can still pass."""
    good_rep, all_zero = exhaustive_reps(schema, sketch, parts)
    return good_rep.sum(axis=0), 2 * all_zero.sum(axis=0) > schema.reps


def exhaustive_vote(schema, sketch, candidates):
    """The count-sketch vote over every repetition of every candidate: the
    parts with at least ``vote_threshold`` good repetitions that are not
    declared zero, capped at ``schema.cap`` by good count (ties: lower part
    index), sorted."""
    parts = np.asarray(candidates, dtype=np.int64)
    good, zero_declared = exhaustive_stats(schema, sketch, parts)
    idx = np.flatnonzero(~zero_declared & (good >= schema.vote_threshold))
    if idx.size > schema.cap:
        idx = idx[np.lexsort((parts[idx], -good[idx]))[: schema.cap]]
    return np.sort(parts[idx])


VOTE_CASES = ("dense-tail", "exact-sparse", "zero", "cap-ties", "one-rep", "two-reps", "three-reps")


def vote_case(case):
    """(schema, bits) of a partition sketch for checking the vote: 128
    parts of width 4 and 64 buckets per sub-iteration.

    dense-tail      a gaussian tail of norm 0.3 plus two unit spikes, over
                    35 repetitions: parts pass, fail early and fail late
    exact-sparse    three nonzeros
    zero            the zero signal
    cap-ties        ten equal spikes in ten parts with a cap of 2 parts:
                    more parts pass than the cap, with tied good counts
    one-rep, two-reps, three-reps
                    the dense tail over 1, 2 or 3 repetitions, where
                    ``vote_threshold`` equals the repetition count
    """
    n = 512
    part = PartitionFamily.contiguous(n, 128)
    reps = {"one-rep": 1, "two-reps": 2, "three-reps": 3}.get(case)
    if reps is not None:
        constants, delta = SketchConstants(rep_factor=1), 2.0**-reps
    else:
        constants, delta = SketchConstants(cap_factor=1 if case == "cap-ties" else 16), 0.05
    schema = build_schema(part, 2, delta, seed=81, constants=constants)
    src = RandomSource(82)
    x = np.zeros(n)
    if case == "exact-sparse":
        x[[5, 200, 411]] = [1.0, -0.4, 0.7]
    elif case == "cap-ties":
        x[np.arange(10) * 48] = 1.0
    elif case != "zero":
        x = src.gaussian(np.arange(n))
        x *= 0.3 / np.linalg.norm(x)
        x[[37, 300]] += [1.0, -1.0]
    return schema, measure(schema, x)


def sparse_probe_case():
    """(schema, bits): 8 buckets per sub-iteration over 40 parts, 3 of them
    occupied.  An unoccupied part often has three nonzero rows in one
    repetition but rarely in each of 8, so probing any one repetition and
    probing all of them keep different parts."""
    part = label_partition(np.arange(200) % 40)
    schema = build_schema(part, 2, 0.05, seed=61, constants=SketchConstants(bucket_factor=4))
    x = np.zeros(200)
    x[[3, 77, 151]] = [1.0, -0.5, 0.8]
    return schema, measure(schema, x)


def probe_all_reps(schema, sketch, probe_reps):
    """Parts whose three rows in each of the first ``probe_reps``
    repetitions are all nonzero, part by part: a row is zero when its bit
    pair reads (+1, +1)."""
    bits = sketch.bits
    keep = []
    for part in range(schema.partition.size):
        if all(
            not (bits[rep, sub, bucket, 0] == 1 and bits[rep, sub, bucket, 1] == 1)
            for rep in range(min(probe_reps, schema.reps))
            for sub, (bucket, _) in enumerate(row_hash(schema, rep, part))
        ):
            keep.append(part)
    return np.array(keep, dtype=np.int64)


def link_cluster_loop(schema, layer_lists):
    """(coords, scores, (components, decode failures, verify failures)) of
    link-and-cluster with the components from ``expander._components``,
    verified one component at a time: decode its chunks, then recompute the
    decoded coordinate's name with one ``make_name`` call per layer."""
    from onebitcs import expander

    s = schema.layers_count
    components = expander._components(schema, layer_lists)
    min_matches = math.ceil((1.0 - expander.ERROR_FRACTION) * s - 1e-9)
    results = {}
    decode_failures = verify_failures = 0
    for members in components:
        claims = {}
        for j, row in members:
            claims.setdefault(j, []).append(row)
        slots = np.zeros(s, dtype=np.int64)
        for j, rows in claims.items():
            slots[j] = layer_lists[j].names[min(rows, key=lambda r: layer_lists[j].parts[r]), 1]
        value = schema.code.decode(slots, [j for j in range(s) if j not in claims])
        if value is None or not 0 <= value < schema.n:
            decode_failures += 1
            continue
        matches = sum(
            np.array_equal(expander.make_name(schema, value, j)[0], layer_lists[j].names[rows[0]])
            for j, rows in claims.items()
            if len(rows) == 1
        )
        if matches < min_matches:
            verify_failures += 1
            continue
        score = float(sum(
            layer_lists[j].good_counts[rows[0]] for j, rows in claims.items() if len(rows) == 1
        ))
        results[value] = max(score, results.get(value, score))
    coords = np.array(sorted(results), dtype=np.int64)
    scores = np.array([results[int(i)] for i in coords])
    if coords.size > schema.cap:
        keep = np.sort(np.lexsort((coords, -scores))[: schema.cap])
        coords, scores = coords[keep], scores[keep]
    return coords, scores, (len(components), decode_failures, verify_failures)


def level_starts_loop(n, k, b, depth):
    """b-tree interval starts built part by part: each level-r part is cut
    into children of width ceil(n / (k b^{r+1})) with one arange per part."""
    width0 = -(-n // k)
    levels = [np.arange(0, n, width0, dtype=np.int64)]
    for r in range(1, depth + 1):
        width = max(1, -(-n // (k * b**r)))
        prev = levels[-1]
        ends = np.append(prev[1:], n)
        pieces = [
            np.arange(start, end, width, dtype=np.int64)
            for start, end in zip(prev, ends)
        ]
        levels.append(np.concatenate(pieces))
    return levels


def layer_name_table(schema, j):
    """(labels, names) of expander layer j by the full name table: stack the
    n x (2 + degree) field columns, pack each row into one key (a record of
    int64 fields when the names exceed 64 bits), take np.unique with
    return_index and gather the first row of every distinct key."""
    coords = np.arange(schema.n)
    own = [
        uniform_index(derive_key(schema.seed, 300 + layer), coords, schema.h_range)
        for layer in range(schema.layers_count)
    ]
    fields = np.column_stack(
        [own[j], schema.code.encode_many(coords)[:, j]]
        + [own[nb] for nb in schema.neighbors[j]]
    )
    h_bits = max(1, math.ceil(math.log2(schema.h_range)))
    widths = [h_bits, schema.code.t] + [h_bits] * schema.degree
    if sum(widths) <= 64:
        packed = np.zeros(schema.n, dtype=np.uint64)
        for col, w in enumerate(widths):
            packed = (packed << np.uint64(w)) | fields[:, col].astype(np.uint64)
    else:
        rec = np.ascontiguousarray(fields.astype(np.int64))
        packed = rec.view([("", np.int64)] * fields.shape[1]).reshape(-1)
    _, first, labels = np.unique(packed, return_index=True, return_inverse=True)
    return labels, fields[first]


def brute_force_bits(schema, x, gauss_key=None):
    """Evaluate the measurement definition directly: per-bucket signed sums
    of per-part gaussian inner products, via scalar loops over the same PRF.
    The gaussians are drawn with ``gauss_key``, by default the schema's own."""
    part = schema.partition
    labels = part.parts_of(np.arange(part.n))
    reps, buckets = schema.reps, schema.buckets
    key = schema.gauss_key if gauss_key is None else gauss_key
    out = np.ones((reps, 3, buckets, 2), dtype=np.int8)
    for r in range(reps):
        g = standard_normal(fold(key, r), np.arange(part.n))
        z = np.zeros((3, buckets))
        for j in range(part.size):
            inner = float(np.sum(g[labels == j] * x[labels == j]))
            for sub, (b, sg) in enumerate(row_hash(schema, r, j)):
                z[sub, b] += sg * inner
        out[r, :, :, 0] = np.where(z >= 0, 1, -1)
        out[r, :, :, 1] = np.where(-z >= 0, 1, -1)
    return out


def btree_measure_per_level(schema, x):
    """b-tree bits with every level measured on its own, each drawing its
    gaussians with its own key: the encoder of the b-tree before its levels
    shared one draw.  Files it wrote are still ``onebitcs-bits v2``."""
    return [measure(level.schema, x) for level in schema.levels]


def bucket_split(schema, x):
    """Per-bucket dense sub-signals of a heavy-hitter schema, in original
    coordinates; they sum to x."""
    x = np.asarray(x, dtype=np.float64)
    if schema.buckets == 1:
        return [x.copy()]
    out = []
    for j in range(schema.buckets):
        sub = np.zeros_like(x)
        mask = schema.bucket_of == j
        sub[mask] = x[mask]
        out.append(sub)
    return out


def expander_measure_per_sketch(schema, x):
    """Layered-sketch bits with every sketch measuring the dense signal on
    its own through ``partition_sketch.measure``."""
    from onebitcs.expander import LayerBits

    return tuple(
        LayerBits(heavy=measure(layer.heavy_schema, x), check=measure(layer.check_schema, x))
        for layer in schema.layers
    )


def heavy_hitters_measure_per_bucket(schema, x):
    """Heavy-hitter bits from each bucket's dense sub-signal, measured
    sketch by sketch."""
    return [
        expander_measure_per_sketch(sub_schema, sub_signal)
        for sub_schema, sub_signal in zip(schema.sub_schemas, bucket_split(schema, x))
    ]


@functools.lru_cache(maxsize=None)
def two_bucket_pipeline(n=1 << 10, k=20, seed=5):
    """A pipeline whose support block hashes into two buckets (k >= log2(n))."""
    from onebitcs import recovery

    return recovery.build_pipeline(n, k, 0.25, seed=seed, gauss_rows=200)


def exact_sign_measure(schema, x):
    """``recovery.sign_measure`` by the exact route: every row's normals from
    ``prf.block_normals`` (``ndtri`` on each entry), in blocks of about
    ``prf.BLOCK_WORDS`` entries."""
    from onebitcs import partition_sketch as ps
    from onebitcs import prf
    from onebitcs.model import signal_nonzeros

    nz, vals = signal_nonzeros(x, schema.n)
    y = np.empty(schema.rows, dtype=np.int8)
    step = max(1, prf.BLOCK_WORDS // max(nz.size, 1))
    cols = prf.col_words(nz)[None, :]

    def measure_block(lo):
        rows = np.arange(lo, min(lo + step, schema.rows))
        entries = prf.block_normals(fold(schema.matrix_key, rows)[:, None], cols)
        dot = np.einsum("ij,j->i", entries, vals)
        if schema.noise_sigma > 0:
            dot += schema.noise(rows)
        ps._require_finite(dot)
        y[lo : lo + rows.size] = np.where(dot >= 0, 1, -1)

    prf.map_blocks(measure_block, range(0, schema.rows, step))
    return y


SIGN_CASES = ("tail-1", "tail-2", "tail-3", "negated-tail", "exact-sparse", "zero",
              "one-nonzero", "noisy-tail", "below-fallback", "above-fallback")


def sign_case(case):
    """(schema, x) for ``SIGN_CASES``: 160 gaussian rows over n = 2^14.  The
    tails are sparse plus a 0.3 dense tail on seeds 1-3, noisy-tail adds
    noise of sigma 0.5, and the fallback cases spread an l1 norm just below
    and just above float max / 8.5 over four nonzeros."""
    from onebitcs import recovery, signals

    n = 1 << 14
    schema = recovery.GaussianSchema(rows=160, n=n, seed=31,
                                     noise_sigma=0.5 if case == "noisy-tail" else 0.0)
    tail_seeds = {"tail-1": 1, "tail-2": 2, "tail-3": 3, "negated-tail": 1, "noisy-tail": 2}
    x = np.zeros(n)
    if case in tail_seeds:
        x = signals.gen_signal(signals.SPARSE_PLUS_TAIL, n, 8, RandomSource(tail_seeds[case]), 0.3)
        if case == "negated-tail":
            x = -x
    elif case == "exact-sparse":
        x = signals.gen_signal(signals.EXACT_SPARSE, n, 8, RandomSource(4))
    elif case == "one-nonzero":
        x[n // 3] = -2.5
    elif case.endswith("fallback"):
        scale = 1 - 2.0**-20 if case == "below-fallback" else 1 + 2.0**-20
        x[[5, 77, 4000, 9000]] = np.array([1, -1, 1, 1]) * (np.finfo(float).max / 8.5 / 4 * scale)
    elif case != "zero":
        raise KeyError(case)
    return schema, x


def unmix64(z):
    """The inverse of ``prf.mix64``: the words w with ``mix64(w) == z``.  Each
    xor-shift by s >= 27 is undone by xoring the shifts by s and 2s, and each
    multiply by its inverse mod 2**64, in reverse order."""
    z = np.array(z, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for shift, mul in ((31, 0x94D049BB133111EB), (27, 0xBF58476D1CE4E5B9), (30, None)):
            z ^= (z >> np.uint64(shift)) ^ (z >> np.uint64(2 * shift))
            if mul is not None:
                z *= np.uint64(pow(mul, -1, 1 << 64))
    return z


def spikes(n, coords, seed=1):
    """Gaussian values at ``coords``, zero elsewhere."""
    x = np.zeros(n)
    x[coords] = RandomSource(seed).gaussian(np.arange(len(coords)))
    return x


MEASURE_CASES = ("zero", "one-nonzero", "one-bucket", "negative-zero", "dense-tail")


def measure_signal(case, schema):
    """One of ``MEASURE_CASES`` for a two-bucket pipeline schema of n >= 2^10."""
    n = schema.n
    if case == "zero":
        return np.zeros(n)
    if case == "one-nonzero":
        return spikes(n, [n // 3])
    if case == "one-bucket":
        # every nonzero in bucket 0, so bucket 1 measures nothing
        return spikes(n, np.flatnonzero(schema.support_schema.bucket_of == 0)[:12])
    if case == "negative-zero":
        x = spikes(n, [5, 700, 901])
        x[[6, 44, 1000]] = -0.0
        return x
    if case == "dense-tail":
        src = RandomSource(9)
        x = src.gaussian(np.arange(n))
        x *= 0.3 / np.linalg.norm(x)
        x[src.indices(np.arange(8), n)] += 1.0
        return x
    raise KeyError(case)


def children_loop(schema, level, parts):
    """Children of each of ``parts`` of a b-tree level, part by part: the
    parts of the next level whose start lies in the parent's interval."""
    starts = [int(s) for s in schema.levels[level].starts] + [schema.n]
    nxt = schema.levels[level + 1].starts
    out = []
    for p in parts:
        out.extend(c for c in range(nxt.size) if starts[p] <= nxt[c] < starts[p + 1])
    return np.array(out, dtype=np.int64)


# --- finite field oracle ----------------------------------------------------


def gf_mul(a, b, t, poly):
    """a * b in GF(2^t) by shift and xor: a carry-less multiply, reduced by
    the primitive polynomial ``poly`` whenever a shifted factor reaches
    degree t."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        if a >> t:
            a ^= poly
        b >>= 1
    return acc


# --- l1/l2 program oracles ---------------------------------------------------


def project_l1_rows(v, radius):
    """Row-wise Duchi projection onto l1 balls of per-row radius."""
    av = np.abs(v)
    u = np.sort(av, axis=-1)[:, ::-1]
    cumsum = np.cumsum(u, axis=-1)
    ranks = np.arange(1, v.shape[-1] + 1)
    positive = u - (cumsum - radius[:, None]) / ranks > 0
    rho = np.maximum(positive.sum(axis=-1), 1)
    theta = (np.take_along_axis(cumsum, rho[:, None] - 1, -1)[:, 0] - radius) / rho
    theta = np.maximum(theta, 0.0)
    shrunk = np.sign(v) * np.maximum(av - theta[:, None], 0.0)
    needs = av.sum(axis=-1) > radius
    return np.where(needs[:, None], shrunk, v)


def project_l2_rows(v):
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    return np.where(norms > 1.0, v / np.maximum(norms, 1e-300), v)


def dykstra_rows(v, radius, iters):
    """Dykstra's alternating projections onto the l1/l2 intersection."""
    x = v
    p = np.zeros_like(v)
    q = np.zeros_like(v)
    for _ in range(iters):
        y = project_l1_rows(x + p, radius)
        p = x + p - y
        x = project_l2_rows(y + q)
        q = y + q - x
    return x


def dual_bound(C, radius, iters=200):
    """Golden-section minimization of the Lagrangian dual: an upper bound
    (tight by strong duality) reached by a route independent of the solver."""

    def value(lams):
        soft = np.maximum(np.abs(C) - lams[:, None], 0.0)
        return lams * radius + np.linalg.norm(soft, axis=-1)

    lo = np.zeros(C.shape[0])
    hi = np.abs(C).max(axis=-1)
    ratio = (math.sqrt(5) - 1) / 2
    c1 = hi - ratio * (hi - lo)
    c2 = lo + ratio * (hi - lo)
    f1, f2 = value(c1), value(c2)
    for _ in range(iters):
        pick1 = f1 <= f2
        hi = np.where(pick1, c2, hi)
        lo = np.where(pick1, lo, c1)
        c1 = hi - ratio * (hi - lo)
        c2 = lo + ratio * (hi - lo)
        f1, f2 = value(c1), value(c2)
    return np.minimum(f1, f2)


def _adaptive_rounds(C, radius, z, best, rounds, steps, proj_iters, eta0):
    norms = np.linalg.norm(C, axis=-1, keepdims=True)
    norms[norms == 0] = 1.0
    for rnd in range(rounds):
        eta = np.full((C.shape[0], 1), eta0 * 0.5**rnd) / norms
        for _ in range(steps):
            trial = dykstra_rows(z + eta * C, radius, proj_iters)
            value = (C * trial).sum(axis=-1)
            better = value > best
            z = np.where(better[:, None], trial, z)
            best = np.where(better, value, best)
            eta = eta * np.where(better[:, None], 1.3, 0.6)
    return z, best


def ascent_oracle(C, radius, gap_tol=1e-8):
    """Projected ascent run to convergence, vectorized across instances.

    Step sizes adapt multiplicatively; rows still showing a Lagrangian dual
    gap get extra rounds with deeper projections.  Returns the best feasible
    objective per row.
    """
    norms = np.linalg.norm(C, axis=-1, keepdims=True)
    norms[norms == 0] = 1.0
    z = dykstra_rows(C / norms, radius, 60)
    best = (C * z).sum(axis=-1)
    z, best = _adaptive_rounds(C, radius, z, best, 2, 300, 80, 1.0)
    for _ in range(4):
        gaps = dual_bound(C, radius) - best
        hard = np.nonzero(gaps > gap_tol)[0]
        if hard.size == 0:
            break
        zh, bh = _adaptive_rounds(
            C[hard], radius[hard], z[hard], best[hard], 2, 400, 400, 0.03
        )
        z[hard] = zh
        best[hard] = bh
    return best


def random_instances(count, max_dim, seed):
    rng = np.random.default_rng(seed)
    dims = rng.integers(1, max_dim + 1, size=count)
    C = rng.standard_normal((count, max_dim)) * rng.lognormal(0, 1, size=(count, 1))
    for i, d in enumerate(dims):
        C[i, d:] = 0.0
    radius = np.sqrt(rng.integers(1, 5, size=count).astype(float))
    return C, dims, radius
