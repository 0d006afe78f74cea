"""Command-line interface: experiments, offline encode/decode, self tests."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from . import expander, harness, serialize, signals
from . import partition_sketch as ps
from .model import as_signal
from .prf import RandomSource, derive_key


_TYPES = {"int": int, "float": float, "str": str}


def _add_experiment_flags(p: argparse.ArgumentParser):
    """One flag per ``ExperimentConfig`` field; an unset flag is None."""
    choices = {"scheme": harness.SCHEMES, "model": signals.MODELS}
    notes = {"timing": "record wall time per trial (breaks byte-identical reruns)"}
    for f in fields(harness.ExperimentConfig):
        if f.type == "bool":
            p.add_argument(f"--{f.name}", action="store_true", default=None,
                           help=notes.get(f.name))
        else:
            p.add_argument(f"--{f.name}", type=_TYPES[f.type], choices=choices.get(f.name))
    p.add_argument("--config", help="key=value config file; flags override it")


def _cmd_experiment(args) -> int:
    file_values = harness.read_config_file(args.config) if args.config else {}
    flag_values = {f.name: getattr(args, f.name) for f in fields(harness.ExperimentConfig)}
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
    scheme = harness.SCHEMES[args.scheme]
    schema = scheme.build(args, x.size, args.seed)  # the flags are named as config fields
    serialize.save(args.out, schema, scheme.measure(schema, x))
    print(f"encoded {args.scheme} measurements for n={x.size} into {args.out}")
    return 0


def _cmd_decode(args) -> int:
    name, schema, bits = serialize.load_measurement(args.bits)
    scheme = harness.SCHEMES[name]
    found, values, _ = scheme.decode(schema, bits)
    if values is None:
        kind, lines = scheme.unit, [f"{int(i)}" for i in found]
    else:
        kind = f"{scheme.unit},value"
        lines = [f"{int(i)},{float(v)!r}" for i, v in zip(found, values)]
    text = f"# {kind}\n" + "".join(line + "\n" for line in lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"decoded {len(lines)} entries from {name} bits into {args.out}")
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
                       choices=[name for name, s in harness.SCHEMES.items() if s.layout])
    p_enc.add_argument("--signal", required=True, help="text file, one value per line")
    p_enc.add_argument("--out", required=True)
    p_enc.add_argument("--k", type=int, required=True)
    for f in fields(harness.ExperimentConfig):
        if f.name in ("delta", "b", "sigma", "mg", "seed"):
            p_enc.add_argument(f"--{f.name}", type=_TYPES[f.type], default=f.default)
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
