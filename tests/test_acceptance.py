"""Acceptance suite: one test per contract criterion, at stated tolerances.

Each test prints a single PASS/FAIL line (run with ``pytest -v -s`` to watch
them stream).  Monte Carlo thresholds carry the agreed finite-sample slack;
structural checks are exact.
"""

import math
import time

import numpy as np
import pytest
from oracles import (
    ascent_oracle,
    crowded_signal,
    planted_signal,
    random_instances,
    sparse_unit,
)

from onebitcs import btree, expander, harness, heavy_hitters, recovery, signals
from onebitcs import partition_sketch as ps
from onebitcs.model import tail_stats
from onebitcs.prf import RandomSource

SEEDS = (101, 202, 303)  # standard seed set for the invariant suites


def criterion(number: int, description: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_01_ppq_positive_detection():
    n, parts, k, delta, trials = 4096, 512, 8, 0.1, 500
    partition = ps.PartitionFamily.contiguous(n, parts)
    width = -(-n // parts)
    started = time.perf_counter()
    hits = 0
    for t in range(trials):
        src = RandomSource(40_000 + t)
        schema = ps.build_schema(partition, k, delta, seed=41_000 + t)
        x, spot = planted_signal(n, k, src)
        bits = ps.measure(schema, x)
        hits += ps.point_query(schema, bits, spot // width)
    elapsed = time.perf_counter() - started
    rate = hits / trials
    criterion(
        1,
        "planted heavy part detected with rate >= 0.86 within 60 s",
        rate >= 0.86 and elapsed <= 60.0,
        f"rate {rate:.3f}, {elapsed:.1f}s",
    )


def test_02_ppq_rejection():
    n, parts, k, delta, trials = 4096, 512, 8, 0.1, 500
    partition = ps.PartitionFamily.contiguous(n, parts)
    width = -(-n // parts)
    started = time.perf_counter()
    rejections = 0
    for t in range(trials):
        src = RandomSource(42_000 + t)
        schema = ps.build_schema(partition, k, delta, seed=43_000 + t)
        x, jq = crowded_signal(n, parts, width, src)
        bits = ps.measure(schema, x)
        rejections += 1 - ps.point_query(schema, bits, jq)
    elapsed = time.perf_counter() - started
    rate = rejections / trials
    criterion(
        2,
        "crowded part rejected with rate >= 0.86 within 60 s",
        rate >= 0.86 and elapsed <= 60.0,
        f"rate {rate:.3f}, {elapsed:.1f}s",
    )


def test_03_count_sketch_recovery():
    n, parts, k, trials = 4096, 256, 4, 200
    partition = ps.PartitionFamily.contiguous(n, parts)
    width = -(-n // parts)
    delta = float(parts) ** -2  # count-sketch mode failure target
    full = 0
    capped = 0
    for t in range(trials):
        src = RandomSource(44_000 + t)
        schema = ps.build_schema(partition, k, delta, seed=45_000 + t)
        occupied = src.derive(1).choice_without_replacement(parts, k)
        x = np.zeros(n)
        x[occupied * width] = src.derive(2).signs(np.arange(k)) / math.sqrt(k)
        found = ps.count_sketch_decode(schema, ps.measure(schema, x))
        full += bool(np.isin(occupied, found).all())
        capped += found.size <= schema.cap
    criterion(
        3,
        "all occupied parts recovered >= 95% and |S| <= c*k always",
        full / trials >= 0.95 and capped == trials,
        f"recovery {full / trials:.3f}, cap held {capped}/{trials}",
    )


def test_04_btree_end_to_end():
    n, k, b, delta, trials = 1 << 16, 8, 16, 0.05, 100
    constants = ps.SketchConstants()
    # closed-form row count, recomputed here from the layout definition
    depth = math.ceil(math.log(n / k, b))
    level_delta = delta / (b * k * depth)
    reps = math.ceil(constants.rep_factor * math.log2(1 / level_delta))
    closed_form = (depth + 1) * 2 * 3 * constants.bucket_factor * k * reps
    full = 0
    rows_exact = True
    budget_ok = True
    for t in range(trials):
        x, sup = sparse_unit(n, k, 46_000 + t)
        schema = btree.build_schema(n, k, b, delta, seed=47_000 + t)
        bits = btree.measure(schema, x)
        rows_exact &= schema.total_rows == closed_form
        rows_exact &= sum(lb.bits.size for lb in bits) == closed_form
        result = btree.decode(schema, bits)
        t0 = schema.levels[0].partition.size
        budget_ok &= result.point_queries <= t0 + b * schema.cap * schema.depth
        full += bool(np.isin(sup, result.indices).all())
    criterion(
        4,
        "b-tree full support recovery >= 90%, exact row formula, query budget",
        full / trials >= 0.90 and rows_exact and budget_ok,
        f"recovery {full / trials:.3f}, rows==M {rows_exact}, budget {budget_ok}",
    )


def test_05_branching_formula():
    grid = [
        (1 << 16, 8, 1 / 16, 1.0),
        (1 << 16, 8, 1 / 16, 0.5),
        (1 << 10, 4, 0.1, 1.0),
        (1 << 10, 4, 0.1, 0.25),
        (1 << 20, 64, 0.01, 0.75),
        (1 << 12, 1, 0.5, 1.0),
        (1 << 12, 1, 0.5, 0.1),
        (1 << 14, 16, 0.001, 0.6),
        (4096, 3, 0.2, 0.9),
        (1 << 18, 32, 0.05, 0.33),
    ]
    ok = True
    for n, k, delta, gamma in grid:
        want = max(2, math.floor((k * math.log2(n / delta)) ** gamma + 0.5))
        ok &= btree.choose_branching(n, k, delta, gamma) == want
    assert btree.choose_branching(1 << 16, 8, 1 / 16, 1.0) == 160
    criterion(5, "branching factor formula exact on a 10-point grid", ok)


def test_06_expander_small_sparsity():
    n, k, trials = 1 << 16, 4, 100
    full = 0
    rows = None
    for t in range(trials):
        schema = expander.build_schema(n, k, seed=48_000 + t)
        rows = schema.total_rows
        x, sup = sparse_unit(n, k, 49_000 + t)
        bits = expander.measure(schema, x)
        found, _, _ = expander.recover(schema, bits)
        stats = tail_stats(x, k)
        full += bool(np.isin(stats.heavy, found).all())
    scale = rows / (k * math.log2(n))
    criterion(
        6,
        "layered sketch covers the heavy set >= 90% at reported row budget",
        full / trials >= 0.90,
        f"recovery {full / trials:.3f}, rows {rows} = {scale:.0f} * k * log2(n)",
    )


def test_07_one_bit_heavy_hitters():
    n, k, trials = 1 << 16, 16, 100
    full = 0
    capped = 0
    bucketed = True
    for t in range(trials):
        schema = heavy_hitters.build_schema(n, k, seed=50_000 + t)
        bucketed &= schema.bucket_of is not None  # k = log2(n) takes the bucketed path
        x, sup = sparse_unit(n, k, 51_000 + t)
        bits = heavy_hitters.measure(schema, x)
        found, _, _ = heavy_hitters.decode(schema, bits)
        stats = tail_stats(x, k)
        full += bool(np.isin(stats.heavy, found).all())
        capped += found.size <= schema.cap
    criterion(
        7,
        "bucketed heavy hitters cover H(x,k) >= 90% and |S| <= c*k always",
        full / trials >= 0.90 and capped == trials and bucketed,
        f"recovery {full / trials:.3f}, cap held {capped}/{trials}",
    )


def test_08_solver_exactness():
    C, dims, radius = random_instances(1000, 5, seed=52_000)
    oracle = ascent_oracle(C, radius)
    worst = 0.0
    feasible = True
    for c, d, r, want in zip(C, dims, radius, oracle):
        z = recovery.solve_l1l2(c[:d], r)
        feasible &= np.abs(z).sum() <= r + 1e-9 and np.linalg.norm(z) <= 1 + 1e-9
        worst = max(worst, abs(float(c[:d] @ z) - float(want)))
    pinned = recovery.solve_l1l2(np.array([3.0, 1.0]), 1.0)
    grid = np.linspace(-1, 1, 401)
    zz = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
    zz = zz[(np.abs(zz).sum(axis=1) <= 1) & (np.linalg.norm(zz, axis=1) <= 1)]
    grid_best = zz[np.argmax(zz @ np.array([3.0, 1.0]))]
    pinned_ok = np.allclose(pinned, [1.0, 0.0], atol=1e-12) and (
        np.linalg.norm(grid_best - pinned) <= 0.01
    )
    criterion(
        8,
        "closed-form solver matches projected ascent within 1e-6 on 1000 instances",
        worst <= 1e-6 and feasible and pinned_ok,
        f"worst gap {worst:.2e}",
    )


def test_09_pipeline_error_bound():
    n, k, delta, rows, trials = 1 << 12, 4, 0.25, 2000, 100
    wins = 0
    identity_ok = True
    for t in range(trials):
        src = RandomSource(53_000 + t)
        x = signals.gen_signal(signals.SPARSE_PLUS_TAIL, n, k, src, 0.3)
        stats = tail_stats(x, k)
        schema = recovery.build_pipeline(n, k, delta, seed=54_000 + t, gauss_rows=rows)
        estimate, diag = recovery.decode(schema, recovery.measure(schema, x))
        xh = estimate.to_dense(n)
        err = float(np.sum((x - xh) ** 2))
        wins += err <= 2 * stats.tail_sq + delta
        mask = np.zeros(n, dtype=bool)
        mask[diag.support] = True
        split = float(np.sum((x[mask] - xh[mask]) ** 2)) + float(np.sum(x[~mask] ** 2))
        identity_ok &= abs(err - split) <= 1e-12
    criterion(
        9,
        "pipeline error <= 2*tail^2 + delta >= 90% with exact error split",
        wins / trials >= 0.90 and identity_ok,
        f"success {wins / trials:.3f}",
    )


def test_10_measurement_scaling():
    n, k, trials = 1 << 10, 4, 50
    x, sup = sparse_unit(n, k, 55_000)
    medians = {}
    for rows in (200, 2000):
        errs = []
        for t in range(trials):
            schema = recovery.GaussianSchema(rows=rows, n=n, seed=56_000 + t)
            y = recovery.sign_measure(schema, x)
            z = recovery.solve_l1l2(
                recovery.correlation(schema, y, sup), math.sqrt(k)
            )
            xh = np.zeros(n)
            xh[sup] = z
            errs.append(float(np.sum((x - xh) ** 2)))
        medians[rows] = float(np.median(errs))
    criterion(
        10,
        "median recovery error strictly improves from 200 to 2000 rows",
        medians[2000] < medians[200],
        f"median@2000 {medians[2000]:.4f} < median@200 {medians[200]:.4f}",
    )


def test_11_invariant_suites():
    violations = []
    for seed in SEEDS:
        n, k = 1 << 10, 2
        partition = ps.PartitionFamily.contiguous(n, 128)
        schema = ps.build_schema(partition, k, 0.05, seed=seed)
        src = RandomSource(seed)
        x = signals.gen_signal(signals.SPARSE_PLUS_TAIL, n, k, src, 0.3)
        bits = ps.measure(schema, x)

        if np.any((bits.bits[..., 0] == -1) & (bits.bits[..., 1] == -1)):
            violations.append(f"complement pair (seed {seed})")
        if not np.array_equal(bits.bits, ps.measure(schema, 2.75 * x).bits):
            violations.append(f"positive scaling of bits (seed {seed})")
        flipped = ps.measure(schema, -x).bits
        zero_pair = (bits.bits[..., 0] == 1) & (bits.bits[..., 1] == 1)
        if not np.array_equal(flipped[..., 0], np.where(zero_pair, 1, -bits.bits[..., 0])):
            violations.append(f"sign-flip antisymmetry (seed {seed})")

        # decoder outputs are invariant under positive rescaling of the signal
        if not np.array_equal(
            ps.count_sketch_decode(schema, bits),
            ps.count_sketch_decode(schema, ps.measure(schema, 0.125 * x)),
        ):
            violations.append(f"count-sketch scaling (seed {seed})")
        bt_schema = btree.build_schema(n, k, 4, 0.1, seed=seed)
        bt_bits = btree.measure(bt_schema, x)
        bt_scaled = btree.measure(bt_schema, 9.5 * x)
        if not np.array_equal(
            btree.decode(bt_schema, bt_bits).indices,
            btree.decode(bt_schema, bt_scaled).indices,
        ):
            violations.append(f"btree scaling (seed {seed})")
        ex_schema = expander.build_schema(n, k, seed=seed)
        ex_bits = expander.measure(ex_schema, x)
        if not np.array_equal(
            expander.recover(ex_schema, ex_bits)[0],
            expander.recover(ex_schema, expander.measure(ex_schema, 3.25 * x))[0],
        ):
            violations.append(f"expander scaling (seed {seed})")

        # name/partition consistency on a probe set
        probe = RandomSource(seed).derive(9).choice_without_replacement(n, 64)
        for j in range(ex_schema.layers_count):
            layer = ex_schema.layers[j]
            if not np.array_equal(
                expander.make_name(ex_schema, probe, j),
                layer.names[layer.partition.parts_of(probe)],
            ):
                violations.append(f"name consistency layer {j} (seed {seed})")

        config = harness.ExperimentConfig(
            scheme="ppcs", n=512, k=2, delta=0.1, trials=5, seed=seed
        )
        once = harness.render_report(harness.run_experiment(config), config)
        twice = harness.render_report(harness.run_experiment(config), config)
        if once != twice:
            violations.append(f"csv determinism (seed {seed})")
    criterion(
        11,
        "invariant suites hold across the standard seed set",
        not violations,
        "; ".join(violations) if violations else f"seeds {SEEDS}",
    )
