"""Command-line interface: experiments, offline encode/decode, self tests."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import btree, expander, harness, heavy_hitters, recovery, serialize, signals
from . import partition_sketch as ps
from .model import as_signal
from .prf import RandomSource, derive_key


def _add_experiment_flags(p: argparse.ArgumentParser):
    p.add_argument("--scheme", choices=harness.SCHEMES)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--b", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--mg", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--model", choices=signals.MODELS)
    p.add_argument("--tail", type=float)
    p.add_argument("--out")
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--timing", action="store_true", default=None,
                   help="record wall time per trial (breaks byte-identical reruns)")


def _cmd_experiment(args) -> int:
    file_values = harness.read_config_file(args.config) if args.config else {}
    flag_values = {
        key: getattr(args, key)
        for key in ("scheme", "n", "k", "delta", "b", "gamma", "sigma", "mg",
                    "trials", "seed", "model", "tail", "out", "timing")
    }
    config = harness.config_from_mappings(file_values, flag_values)
    records = harness.run_experiment(config)
    if config.out:
        harness.emit_report(records, config.out, config)
        print(f"wrote {config.out}")
    else:
        summary = harness.summarize(records)
        print(harness.render_report(records, config), end="")
        print(
            f"# success rate {summary.rate:.3f} +/- {summary.ci_halfwidth:.3f} (95% CI)",
            file=sys.stderr,
        )
    return 0


def _read_signal(path: str) -> np.ndarray:
    return as_signal(np.loadtxt(path, ndmin=1, dtype=np.float64))


def _cmd_encode(args) -> int:
    x = _read_signal(args.signal)
    n = x.size
    seed = args.seed
    if args.scheme == "ppcs":
        partition = ps.PartitionFamily.contiguous(n, min(n, harness.PARTS_PER_SPARSITY * args.k))
        schema = ps.build_schema(partition, args.k, args.delta, seed)
        serialize.save_ppcs(args.out, schema, ps.measure(schema, x))
    elif args.scheme == "btree":
        schema = btree.build_schema(n, args.k, args.b, args.delta, seed)
        serialize.save_btree(args.out, schema, btree.measure(schema, x))
    elif args.scheme == "expander":
        schema = expander.build_schema(n, args.k, seed)
        serialize.save_expander(args.out, schema, expander.measure(schema, x))
    elif args.scheme == "heavy-hitters":
        schema = heavy_hitters.build_schema(n, args.k, seed)
        serialize.save_heavy_hitters(args.out, schema, heavy_hitters.measure(schema, x))
    else:  # pipeline
        schema = recovery.build_pipeline(
            n, args.k, args.delta, seed,
            gauss_rows=args.mg or None, noise_sigma=args.sigma,
        )
        serialize.save_pipeline(args.out, schema, recovery.measure(schema, x))
    print(f"encoded {args.scheme} measurements for n={n} into {args.out}")
    return 0


def _cmd_decode(args) -> int:
    scheme, schema, bits = serialize.load_measurement(args.bits)
    lines: list[str]
    if scheme == "ppcs":
        found = ps.count_sketch_decode(schema, bits)
        lines = [f"{int(p)}" for p in found]
        kind = "part"
    elif scheme == "btree":
        result = btree.decode(schema, bits)
        lines = [f"{int(i)}" for i in result.indices]
        kind = "index"
    elif scheme == "expander":
        found, _, _ = expander.recover(schema, bits)
        lines = [f"{int(i)}" for i in found]
        kind = "index"
    elif scheme == "heavy-hitters":
        found, _, _ = heavy_hitters.decode(schema, bits)
        lines = [f"{int(i)}" for i in found]
        kind = "index"
    else:  # pipeline
        estimate, _ = recovery.decode(schema, bits)
        lines = [
            f"{int(i)},{float(v)!r}" for i, v in zip(estimate.indices, estimate.values)
        ]
        kind = "index,value"
    text = f"# {kind}\n" + "".join(line + "\n" for line in lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"decoded {len(lines)} entries from {scheme} bits into {args.out}")
    else:
        print(text, end="")
    return 0


def _selftest(seed: int) -> int:
    failures = 0

    def check(name: str, ok: bool):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        failures += 0 if ok else 1

    rng = RandomSource(seed)
    n, k = 512, 4
    partition = ps.PartitionFamily.contiguous(n, 64)
    schema = ps.build_schema(partition, k, 0.05, seed=int(derive_key(seed, 1)))
    x = signals.gen_signal(signals.SPARSE_PLUS_TAIL, n, k, rng.derive(1))
    bits = ps.measure(schema, x)

    pair_ok = not np.any((bits.bits[..., 0] == -1) & (bits.bits[..., 1] == -1))
    check("complement bit pairs (never (-1,-1))", bool(pair_ok))

    scaled = ps.measure(schema, 3.5 * x)
    check("positive scaling leaves bits unchanged", np.array_equal(bits.bits, scaled.bits))

    flipped = ps.measure(schema, -x)
    zero_pair = (bits.bits[..., 0] == 1) & (bits.bits[..., 1] == 1)
    anti = np.where(zero_pair, bits.bits[..., 0], -bits.bits[..., 0])
    check(
        "negating the signal flips every nonzero bit",
        np.array_equal(flipped.bits[..., 0], anti),
    )

    exp_schema = expander.build_schema(1 << 10, 2, seed=int(derive_key(seed, 2)))
    probe = rng.derive(2).choice_without_replacement(1 << 10, 50)
    consistent = all(
        np.array_equal(
            expander.make_name(exp_schema, probe, j),
            exp_schema.layers[j].names[exp_schema.layers[j].partition.parts_of(probe)],
        )
        for j in range(exp_schema.layers_count)
    )
    check("name/partition consistency", bool(consistent))

    config = harness.ExperimentConfig(
        scheme="ppcs", n=256, k=2, delta=0.1, trials=5, seed=seed
    )
    r1 = harness.render_report(harness.run_experiment(config), config)
    r2 = harness.render_report(harness.run_experiment(config), config)
    check("experiment reruns are byte-identical", r1 == r2)

    print("self test:", "ok" if failures == 0 else f"{failures} failure(s)")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onebitcs",
        description="sparse recovery experiments from one-bit sign measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiment", help="run Monte Carlo trials, emit CSV")
    _add_experiment_flags(p_exp)
    p_exp.set_defaults(func=_cmd_experiment)

    p_enc = sub.add_parser("encode", help="measure a signal file into a bits file")
    p_enc.add_argument("--scheme", required=True,
                       choices=("ppcs", "btree", "expander", "heavy-hitters", "pipeline"))
    p_enc.add_argument("--signal", required=True, help="text file, one value per line")
    p_enc.add_argument("--out", required=True)
    p_enc.add_argument("--k", type=int, required=True)
    p_enc.add_argument("--delta", type=float, default=0.1)
    p_enc.add_argument("--b", type=int, default=16)
    p_enc.add_argument("--sigma", type=float, default=0.0)
    p_enc.add_argument("--mg", type=int, default=0)
    p_enc.add_argument("--seed", type=int, default=1)
    p_enc.set_defaults(func=_cmd_encode)

    p_dec = sub.add_parser("decode", help="decode a bits file (schema is in the header)")
    p_dec.add_argument("--bits", required=True)
    p_dec.add_argument("--out", default="")
    p_dec.set_defaults(func=_cmd_decode)

    p_self = sub.add_parser("selftest", help="run the invariant suites")
    p_self.add_argument("--seed", type=int, default=7)
    p_self.set_defaults(func=lambda args: _selftest(args.seed))

    return parser


def main(argv=None) -> int:
    """Run one command; bad input (an unreadable or malformed signal, config
    or bits file) prints one line to stderr and returns 2, like a usage error."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
