#!/usr/bin/env python3
"""Seven scaling studies on one page.

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
7. A b-tree decoder that starts from a bits file (k = 16, b = 16,
   delta = 0.05, exactly sparse, n = 2^12 .. 2^24; with ``--trials 1``, a
   smoke run, only to 2^20): the file's size, the median time, with its
   quartiles, to load it and rebuild the schema
   (``serialize.load_measurement``) and to decode it (``btree.decode``), over
   up to 25 repeats (5 per trial) that each time every size in turn, the
   ``tracemalloc`` peak of one load and decode, and the point queries, each
   with its log-log slope in n, and whether the decode found the support.
   Written as JSON to ``--json`` (default ``BENCH_btree_file.json``).
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

import onebitcs
from onebitcs import btree, expander, heavy_hitters, prf, recovery, serialize, signals
from onebitcs import partition_sketch as ps
from onebitcs.prf import RandomSource

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import exact_sign_measure, sparse_unit  # noqa: E402

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


def seconds(fn) -> float:
    """Wall time of one call."""
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def quartiles(times) -> tuple[float, float, float]:
    """First quartile, median and third quartile of some times."""
    return tuple(float(q) for q in np.percentile(times, [25, 50, 75]))


def quartile_seconds(fn, repeats) -> tuple[float, float, float]:
    """Quartiles of ``repeats`` timed calls."""
    return quartiles([seconds(fn) for _ in range(repeats)])


def btree_file_study(exps, repeats, seed) -> dict:
    """Study 7: a b-tree bits file loaded and decoded in this process.

    Each repeat times every size in turn, so a slow spell of the host lands
    on all rows rather than shifting whole rows against each other.
    """
    k, b, delta = 16, 16, 0.05
    sizes = [1 << exp for exp in exps]
    with tempfile.TemporaryDirectory() as tmp:
        paths, supports = [], []
        for exp, n in zip(exps, sizes):
            x = signals.gen_signal(signals.EXACT_SPARSE, n, k, RandomSource(seed + exp))
            schema, bits = btree.build_and_measure(x, n, k, b, delta, seed=seed + 700 + exp)
            paths.append(os.path.join(tmp, f"btree-{n}.bits"))
            serialize.save(paths[-1], schema, bits)
            supports.append(np.flatnonzero(x))
            del x, bits
        loaded = [serialize.load_measurement(path)[1:] for path in paths]
        loads, decodes = [[] for _ in sizes], [[] for _ in sizes]
        for _ in range(repeats):
            for i, path in enumerate(paths):
                loads[i].append(seconds(lambda: serialize.load_measurement(path)))
                decodes[i].append(seconds(lambda: btree.decode(*loaded[i])))
        rows = []
        for n, path, support, load, decode in zip(sizes, paths, supports, loads, decodes):
            load, decode = quartiles(load), quartiles(decode)
            tracemalloc.start()
            _, schema, bits = serialize.load_measurement(path)
            result = btree.decode(schema, bits)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            rows.append({
                "n": n, "file_bytes": os.path.getsize(path),
                "load_rebuild_s": load[1], "load_rebuild_quartiles_s": [load[0], load[2]],
                "decode_s": decode[1], "decode_quartiles_s": [decode[0], decode[2]],
                "tracemalloc_peak_bytes": peak,
                "point_queries": result.point_queries,
                "support_found": bool(np.isin(support, result.indices).all()),
            })
    log_n = np.log2(sizes)
    slopes = {
        metric: float(np.polyfit(log_n, np.log2([row[metric] for row in rows]), 1)[0])
        for metric in ("file_bytes", "load_rebuild_s", "decode_s", "tracemalloc_peak_bytes",
                       "point_queries")
    }
    return {
        "study": "b-tree decoder from a bits file",
        "setup": {"k": k, "b": b, "delta": delta, "model": signals.EXACT_SPARSE,
                  "repeats": repeats, "seed": seed, "cpus": prf.available_cpus(),
                  "machine": platform.machine(), "python": platform.python_version(),
                  "numpy": np.__version__},
        "rows": rows,
        "loglog_slope_in_n": slopes,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--json", default="BENCH_btree_file.json", help="study 7's output")
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
                quartile_seconds(lambda: measure(schema, x), min(args.trials, 3))[1]
                for measure in (recovery.sign_measure, exact_sign_measure)
            )
            print(f"{model:>17} {n:>8} {redo:>11} {filtered * 1e3:>12.1f} {exact * 1e3:>9.1f}")

    print()
    repeats = min(5 * args.trials, 25)
    print(f"b-tree decoder from a bits file (k=16, b=16, exact-sparse; median of {repeats})")
    print(f"{'n':>9} {'file kB':>8} {'load ms':>8} {'decode ms':>10} {'peak MB':>8} {'queries':>8}")
    study = btree_file_study(range(12, 25 if args.trials > 1 else 21, 2), repeats, args.seed)
    for row in study["rows"]:
        print(f"{row['n']:>9} {row['file_bytes'] / 1e3:>8.1f} {row['load_rebuild_s'] * 1e3:>8.2f}"
              f" {row['decode_s'] * 1e3:>10.2f} {row['tracemalloc_peak_bytes'] / 1e6:>8.2f}"
              f" {row['point_queries']:>8}")
    print("log-log slopes in n:", json.dumps(study["loglog_slope_in_n"]))
    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump(study, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.json}")


if __name__ == "__main__":
    main()
