#!/usr/bin/env python3
"""Three scaling studies on one page.

1. Decode work of the b-tree against the ambient dimension: the query count
   grows with log(n) while n grows geometrically, so decode_ops / n falls.
2. Recovery error of the gaussian sign block against its row budget, at a
   fixed exactly-sparse signal.
3. Layered-sketch build time against the ambient dimension, and the time to
   find the parts of 32 coordinates in one layer.  From n = 2^17 the names
   exceed 64 bits and take two words.  The first build at each n also
   computes the codeword table that later builds share, so with one trial
   the build time includes it.
"""

import argparse
import math
import time

import numpy as np

from onebitcs import btree, expander, recovery
from onebitcs.prf import RandomSource


def sparse_unit(n, k, seed):
    src = RandomSource(seed)
    sup = src.derive(1).choice_without_replacement(n, k)
    x = np.zeros(n)
    x[sup] = src.derive(2).signs(np.arange(k)) / math.sqrt(k)
    return x, sup


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


if __name__ == "__main__":
    main()
