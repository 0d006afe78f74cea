#!/usr/bin/env python3
"""Six scaling studies on one page.

1. Decode work of the b-tree against the ambient dimension: the query count
   grows with log(n) while n grows geometrically, so decode_ops / n falls.
2. Recovery error of the gaussian sign block against its row budget, at a
   fixed exactly-sparse signal.
3. Layered-sketch build time against the ambient dimension, and the time to
   find the parts of 32 coordinates in one layer.  From n = 2^17 the names
   exceed 64 bits and take two words.  The first build at each n also
   computes the codeword table that later builds share, so with one trial
   the build time includes it.
4. Cost of one measure in a fresh process: wall time, CPU time and minor
   page faults (``getrusage`` of that process around the call), with the
   parameters of the benchmark's btree-tail (n = 2^16) and pipeline-tail
   (n = 2^14) workloads, k = 8, on a sparse signal plus a dense tail.  A
   fresh process has no freed memory to reuse, so the faults count every
   page the measure touches for the first time.
5. Reads of the count-sketch vote against the dimension, per layer of the
   pipeline's support sketch (k = 8, one bucket) on a sparse signal plus a
   dense tail: the (repetition, part) pairs the vote reads, against the
   candidates times the repetitions an exhaustive vote reads.  The vote
   stops reading a part once it cannot pass, and its rounds are sized by
   the CPU count, so the count is deterministic for a given CPU count.
6. The gaussian sign block's filter against the dimension, per signal model
   (256 rows, k = 8): the rows whose sign the cell bound cannot settle and
   the filter recomputes with exact normals (deterministic), and the
   in-process time of the sign block on the filtered route
   (``recovery.sign_measure``) and on the exact route, which draws every
   normal through ``ndtri`` (``exact_sign_measure`` of ``tests/oracles.py``).
"""

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import onebitcs
from onebitcs import btree, expander, heavy_hitters, prf, recovery, signals
from onebitcs import partition_sketch as ps
from onebitcs.prf import RandomSource

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import exact_sign_measure  # noqa: E402

# run as ``python -c FRESH_MEASURE src scheme n k seed``: one measure, and
# the process's own wall time, CPU time and minor faults around it
FRESH_MEASURE = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from onebitcs import btree, recovery, signals
from onebitcs.prf import RandomSource
scheme, n, k, seed = sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), int(sys.argv[5])
if scheme == "btree":
    schema, measure = btree.build_schema(n, k, 16, 0.05, seed=seed), btree.measure
else:
    schema, measure = recovery.build_pipeline(n, k, 0.25, seed=seed), recovery.measure
x = signals.gen_signal(signals.SPARSE_PLUS_TAIL, n, k, RandomSource(seed), 0.3)
before, start = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
measure(schema, x)
wall, after = time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF)
cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
print(json.dumps([wall, cpu, after.ru_minflt - before.ru_minflt]))
"""


def sparse_unit(n, k, seed):
    src = RandomSource(seed)
    sup = src.derive(1).choice_without_replacement(n, k)
    x = np.zeros(n)
    x[sup] = src.derive(2).signs(np.arange(k)) / math.sqrt(k)
    return x, sup


def vote_reads(schema, bits, candidates) -> int:
    """(repetition, part) pairs ``count_sketch_decode`` reads, counted at
    its row-reading kernel."""
    reads = []
    kernel = ps._good_reps

    def counted(schema, pairs, reps, parts):
        reads.append(len(reps) * len(parts))
        return kernel(schema, pairs, reps, parts)

    ps._good_reps = counted
    try:
        ps.count_sketch_decode(schema, bits, candidates)
    finally:
        ps._good_reps = kernel
    return sum(reads)


def recomputed_rows(schema, x) -> int:
    """Gaussian rows ``recovery.sign_measure`` recomputes with exact normals,
    counted at ``prf.block_normals``."""
    rows = []
    block_normals = prf.block_normals

    def counted(keys, cols):
        rows.append(np.shape(keys)[0])
        return block_normals(keys, cols)

    prf.block_normals = counted
    try:
        recovery.sign_measure(schema, x)
    finally:
        prf.block_normals = block_normals
    return sum(rows)


def median_seconds(fn, repeats) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    print("b-tree decode work vs dimension (b=8, delta=0.1)")
    print(f"{'n':>8} {'point queries':>14} {'bit reads':>12} {'ops/n':>10}")
    for exp in (10, 12, 14, 16):
        n = 1 << exp
        queries, reads = [], []
        for t in range(args.trials):
            x, _ = sparse_unit(n, args.k, args.seed + t)
            schema, bits = btree.build_and_measure(
                x, n, args.k, 8, 0.1, seed=args.seed + 100 + t
            )
            result = btree.decode(schema, bits)
            queries.append(result.point_queries)
            reads.append(result.bit_reads)
        pq = int(np.median(queries))
        br = int(np.median(reads))
        print(f"{n:>8} {pq:>14} {br:>12} {(pq + br) / n:>10.2f}")

    print()
    print("sign-block recovery error vs row budget (n=1024, fixed signal)")
    n = 1 << 10
    x, sup = sparse_unit(n, args.k, args.seed)
    print(f"{'rows':>8} {'median err^2':>14}")
    for rows in (100, 200, 500, 1000, 2000, 5000):
        errs = []
        for t in range(args.trials):
            schema = recovery.GaussianSchema(rows=rows, n=n, seed=args.seed + 200 + t)
            y = recovery.sign_measure(schema, x)
            z = recovery.solve_l1l2(recovery.correlation(schema, y, sup), math.sqrt(args.k))
            xh = np.zeros(n)
            xh[sup] = z
            errs.append(float(np.sum((x - xh) ** 2)))
        print(f"{rows:>8} {np.median(errs):>14.5f}")

    print()
    print("layered-sketch build and part lookup vs dimension (k=2)")
    print(f"{'n':>8} {'name bits':>10} {'build ms':>10} {'parts_of(32) us':>16}")
    for exp in range(12, 18):
        n = 1 << exp
        builds = []
        for t in range(args.trials):
            start = time.perf_counter()
            schema = expander.build_schema(n, 2, seed=args.seed + 300 + t)
            builds.append(time.perf_counter() - start)
        partition = schema.layers[0].partition
        coords = RandomSource(args.seed + exp).choice_without_replacement(n, 32)
        lookups = []
        for _ in range(50):
            start = time.perf_counter()
            partition.parts_of(coords)
            lookups.append(time.perf_counter() - start)
        print(
            f"{n:>8} {schema.name_bits:>10} {np.median(builds) * 1e3:>10.2f}"
            f" {np.median(lookups) * 1e6:>16.1f}"
        )

    print()
    print("one measure in a fresh process (sparse plus 0.3 tail, k=8; medians)")
    print(f"{'scheme':>8} {'n':>8} {'wall s':>8} {'cpu s':>8} {'minor faults':>13}")
    src = str(Path(onebitcs.__file__).resolve().parents[1])
    for scheme, n in (("btree", 1 << 16), ("pipeline", 1 << 14)):
        # each sample is a new interpreter, so take at most five
        runs = [
            json.loads(subprocess.run(
                [sys.executable, "-c", FRESH_MEASURE, src, scheme, str(n), "8",
                 str(args.seed + 400 + t)],
                capture_output=True, text=True, check=True,
            ).stdout)
            for t in range(min(args.trials, 5))
        ]
        wall, cpu, faults = np.median(runs, axis=0)
        print(f"{scheme:>8} {n:>8} {wall:>8.3f} {cpu:>8.3f} {int(faults):>13}")

    print()
    print(f"count-sketch vote reads vs dimension (sparse plus 0.3 tail, k=8, "
          f"{prf.available_cpus()} CPUs)")
    print(f"{'n':>8} {'layer':>6} {'candidates':>11} {'reads':>10} {'exhaustive':>11} {'ratio':>6}")
    for exp in range(12, 17):
        n = 1 << exp
        schema = heavy_hitters.build_schema(n, 8, seed=args.seed + 500)
        x = signals.gen_signal(signals.SPARSE_PLUS_TAIL, n, 8, RandomSource(args.seed + 500), 0.3)
        layer_bits = heavy_hitters.measure(schema, x)[0]
        for j, layer in enumerate(schema.sub_schemas[0].layers):
            heavy, bits = layer.heavy_schema, layer_bits[j].heavy
            candidates = ps.nonzero_candidates(heavy, bits)
            reads = vote_reads(heavy, bits, candidates)
            exhaustive = candidates.size * heavy.reps
            print(f"{n:>8} {j:>6} {candidates.size:>11} {reads:>10} {exhaustive:>11}"
                  f" {reads / exhaustive:>6.3f}")

    print()
    print(f"sign-block filter vs dimension (256 rows, k=8, {prf.available_cpus()} CPUs;"
          f" median of {min(args.trials, 3)})")
    print(f"{'model':>17} {'n':>8} {'recomputed':>11} {'filtered ms':>12} {'exact ms':>9}")
    for model in signals.MODELS:
        for exp in range(10, 17, 2):
            n = 1 << exp
            schema = recovery.GaussianSchema(rows=256, n=n, seed=args.seed + 600)
            x = signals.gen_signal(model, n, 8, RandomSource(args.seed + 600 + exp))
            redo = recomputed_rows(schema, x)
            filtered, exact = (
                median_seconds(lambda: measure(schema, x), min(args.trials, 3))
                for measure in (recovery.sign_measure, exact_sign_measure)
            )
            print(f"{model:>17} {n:>8} {redo:>11} {filtered * 1e3:>12.1f} {exact * 1e3:>9.1f}")


if __name__ == "__main__":
    main()
