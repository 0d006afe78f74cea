"""Monte Carlo experiment runner with CSV reporting.

Each trial builds a fresh schema from (master seed, trial id), generates a
signal, measures, decodes, and judges success against the exact tail/heavy
oracles, never against sketch output.  Everything is deterministic given
the config, so repeated runs produce byte-identical CSV files; wall-clock
timing is opt-in because it would break that property.
"""

from __future__ import annotations

import csv
import io
import math
import time
from collections.abc import Callable
from dataclasses import asdict, astuple, dataclass, fields, replace

import numpy as np

from . import btree, expander, heavy_hitters, recovery, signals
from . import partition_sketch as ps
from .model import tail_stats
from .prf import RandomSource, derive_key

# partition size used by the partition-level schemes, in units of sparsity
PARTS_PER_SPARSITY = 64


@dataclass(frozen=True)
class ExperimentConfig:
    scheme: str = "pipeline"
    n: int = 4096
    k: int = 4
    delta: float = 0.1
    b: int = 16
    sigma: float = 0.0
    mg: int = 0  # 0 = use the default gaussian row budget
    trials: int = 10
    seed: int = 1
    model: str = signals.EXACT_SPARSE
    tail: float = 0.3
    out: str = ""
    timing: bool = False

    def validate(self) -> "ExperimentConfig":
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; pick one of {tuple(SCHEMES)}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must be in (0,1), got {self.delta}")
        if self.model not in signals.MODELS:
            raise ValueError(f"unknown signal model {self.model!r}")
        return self


@dataclass(frozen=True)
class TrialRecord:
    trial_id: int
    scheme: str
    n: int
    k: int
    delta: float
    m_total: int
    success: bool
    err_sq: float
    tail_sq: float
    decode_ops: int
    wall_ms: float
    seed: int


CSV_COLUMNS = tuple(f.name for f in fields(TrialRecord))


# judges: (success, err_sq) of a decode's found parts or coordinates, or of
# its estimate; a set must hold every heavy coordinate, an estimate must be
# within twice the tail energy plus delta

def _judge_parts(x, stats, config, schema, found, values):
    covered = np.isin(schema.partition.parts_of(np.arange(x.size)), found)
    return bool(covered[stats.heavy].all()), float(np.sum(x[~covered] ** 2))


def _judge_coords(x, stats, config, schema, found, values):
    err_sq = float(np.sum(x**2) - np.sum(x[found] ** 2))
    return bool(np.isin(stats.heavy, found).all()), err_sq


def _judge_estimate(x, stats, config, schema, found, values):
    estimate = np.zeros(x.size)
    estimate[found] = values
    err_sq = float(np.sum((x - estimate) ** 2))
    return err_sq <= 2 * stats.tail_sq + config.delta, err_sq


def _work(diag) -> int:
    return diag.point_queries + diag.bit_reads


def _decode_ppcs(schema, bits):
    # the decoder point-queries every part, reading all of its rows
    work = schema.partition.size * (1 + 3 * schema.reps * 2)
    return ps.count_sketch_decode(schema, bits), None, work


def _decode_btree(schema, bits):
    result = btree.decode(schema, bits)
    return result.indices, None, _work(result)


def _decode_expander(schema, bits):
    found, _, diag = expander.recover(schema, bits)
    return found, None, _work(diag)


def _decode_heavy_hitters(schema, bits):
    found, _, diags = heavy_hitters.decode(schema, bits)
    return found, None, sum(_work(d) for d in diags)


def _decode_pipeline(schema, bits):
    estimate, diag = recovery.decode(schema, bits)
    return estimate.indices, estimate.values, _work(diag)


@dataclass(frozen=True)
class Scheme:
    """One scheme's steps, shared by the harness, the CLI and bits files.

    ``build(config, n, seed)`` reads config.k, .delta, .b, .sigma and .mg.
    ``decode(schema, bits)`` returns (found, values or None, point queries
    plus bit reads); ``found`` lists parts when ``unit`` is "part", else
    coordinates.  ``judge(x, stats, config, schema, found, values)`` returns
    (success, err_sq).

    A scheme with a ``layout`` has bits files, which ``serialize`` writes for
    schemas of type ``schema_type``.  ``header(schema)`` gives the header
    fields and ``rebuild(header, constants)`` rebuilds the schema from them.
    An ``optional`` field may be absent from a file: earlier v2 files lack
    these layered-sketch constants.  ``layout(schema, take)`` calls
    ``take(leaf)`` for each block's partition-sketch or gaussian schema in
    file order and returns the bits built from what ``take`` returned.
    """

    build: Callable
    measure: Callable
    decode: Callable
    judge: Callable
    unit: str = "index"
    schema_type: type | None = None
    header: Callable | None = None
    rebuild: Callable | None = None
    layout: Callable | None = None
    optional: tuple[str, ...] = ()


def _ppcs_header(s: ps.PointQuerySchema) -> dict:
    if s.partition.width is None:
        raise ValueError("only interval partitions are serialized; a name partition "
                         "is schema-internal")
    return {"n": s.n, "parts": s.partition.size, "k": s.k, "delta": s.delta,
            "seed": s.seed, "reps": s.reps, "buckets": s.buckets,
            "constants": asdict(s.constants)}


def _hh_header(s: heavy_hitters.HeavyHitterSchema) -> dict:
    sub = s.sub_schemas[0]  # every bucket's layered sketch has the same degree
    return {"n": s.n, "k": s.k, "seed": s.seed, "buckets": s.buckets,
            "log_factor": expander.LOG_FACTOR, "bucket_factor": heavy_hitters.BUCKET_FACTOR,
            "degree": sub.degree, "error_fraction": expander.ERROR_FRACTION,
            "constants": asdict(s.constants)}


def _bucketed_k(h: dict, field: str) -> int:
    """The header's k, once its ``field`` holds the bucket count n and k give:
    a forged k is caught before a rebuild builds a layered sketch per bucket."""
    if h[field] != heavy_hitters.bucket_count(h["n"], h["k"]):
        raise ValueError(f"rebuilt schema does not match file header field {field!r}")
    return h["k"]


def _pipeline_header(s: recovery.PipelineSchema) -> dict:
    header = _hh_header(s.support_schema)
    header["hh_buckets"] = header.pop("buckets")
    return {**header, "delta": s.delta, "seed": s.seed,
            "gauss_rows": s.gauss_schema.rows, "noise_sigma": s.gauss_schema.noise_sigma}


def _layers(s: expander.ExpanderSchema, take) -> tuple:
    """Each layer's heavy, then check block."""
    return tuple(
        expander.LayerBits(heavy=take(layer.heavy_schema), check=take(layer.check_schema))
        for layer in s.layers
    )


def _buckets(s: heavy_hitters.HeavyHitterSchema, take) -> list:
    """Each bucket's layered-sketch blocks in turn."""
    return [_layers(sub, take) for sub in s.sub_schemas]


# a single point query on the heaviest coordinate's part (see _run_trial)
_PPQ = Scheme(
    build=lambda c, n, seed: ps.build_schema(
        ps.PartitionFamily.contiguous(n, min(n, PARTS_PER_SPARSITY * c.k)),
        c.k, c.delta, seed,
    ),
    measure=ps.measure, decode=_decode_ppcs, judge=_judge_parts, unit="part",
)

# builds and rebuilds read module attributes at call time, so a tracer that
# patches ``recovery.build_pipeline`` and its like sees them
SCHEMES = {
    "ppq": _PPQ,
    "ppcs": replace(
        _PPQ, schema_type=ps.PointQuerySchema, header=_ppcs_header,
        rebuild=lambda h, c: ps.build_schema(
            ps.PartitionFamily.contiguous(h["n"], h["parts"]), h["k"], h["delta"], h["seed"], c
        ),
        layout=lambda s, take: take(s),
    ),
    "btree": Scheme(
        build=lambda c, n, seed: btree.build_schema(n, c.k, c.b, c.delta, seed),
        measure=btree.measure, decode=_decode_btree, judge=_judge_coords,
        schema_type=btree.BTreeSchema,
        header=lambda s: {"n": s.n, "k": s.k, "b": s.b, "delta": s.delta, "seed": s.seed,
                          "levels": len(s.levels), "constants": asdict(s.constants),
                          "widths": [level.partition.width for level in s.levels]},
        rebuild=lambda h, c: btree.build_schema(h["n"], h["k"], h["b"], h["delta"], h["seed"], c),
        layout=lambda s, take: [take(level) for level in s.levels],
    ),
    "expander": Scheme(
        build=lambda c, n, seed: expander.build_schema(n, c.k, seed),
        measure=expander.measure, decode=_decode_expander, judge=_judge_coords,
        schema_type=expander.ExpanderSchema,
        header=lambda s: {"n": s.n, "k": s.k, "seed": s.seed, "layers": s.layers_count,
                          "degree": s.degree, "error_fraction": expander.ERROR_FRACTION,
                          "log_factor": expander.LOG_FACTOR, "constants": asdict(s.constants)},
        rebuild=lambda h, c: expander.build_schema(h["n"], h["k"], h["seed"], c),
        layout=_layers, optional=("degree", "log_factor"),
    ),
    "heavy-hitters": Scheme(
        build=lambda c, n, seed: heavy_hitters.build_schema(n, c.k, seed),
        measure=heavy_hitters.measure, decode=_decode_heavy_hitters, judge=_judge_coords,
        schema_type=heavy_hitters.HeavyHitterSchema, header=_hh_header,
        rebuild=lambda h, c: heavy_hitters.build_schema(h["n"], _bucketed_k(h, "buckets"),
                                                        h["seed"], c),
        layout=_buckets, optional=("degree", "error_fraction"),
    ),
    "pipeline": Scheme(
        build=lambda c, n, seed: recovery.build_pipeline(
            n, c.k, c.delta, seed, gauss_rows=c.mg or None, noise_sigma=c.sigma
        ),
        measure=recovery.measure, decode=_decode_pipeline, judge=_judge_estimate,
        schema_type=recovery.PipelineSchema, header=_pipeline_header,
        rebuild=lambda h, c: recovery.build_pipeline(
            h["n"], _bucketed_k(h, "hh_buckets"), h["delta"], h["seed"],
            gauss_rows=h["gauss_rows"], noise_sigma=h["noise_sigma"], constants=c,
        ),
        layout=lambda s, take: recovery.PipelineBits(
            support_bits=_buckets(s.support_schema, take), sign_bits=take(s.gauss_schema)
        ),
        optional=("degree", "error_fraction", "log_factor", "bucket_factor"),
    ),
}


def _run_trial(config: ExperimentConfig, trial: int) -> TrialRecord:
    src = RandomSource(config.seed).derive(1000, trial)
    schema_seed = int(derive_key(config.seed, 2000, trial))
    x = signals.gen_signal(config.model, config.n, config.k, src, config.tail)
    stats = tail_stats(x, config.k)
    scheme = SCHEMES[config.scheme]
    started = time.perf_counter()
    schema = scheme.build(config, config.n, schema_seed)
    bits = scheme.measure(schema, x)
    if config.scheme == "ppq":
        target = int(schema.partition.parts_of([int(np.argmax(np.abs(x)))])[0])
        success = ps.point_query(schema, bits, target) == 1
        err_sq = 0.0 if success else 1.0
        decode_ops = 1 + 3 * schema.reps * 2
    else:
        found, values, decode_ops = scheme.decode(schema, bits)
        success, err_sq = scheme.judge(x, stats, config, schema, found, values)
    wall_ms = (time.perf_counter() - started) * 1000.0 if config.timing else 0.0
    return TrialRecord(
        trial_id=trial, scheme=config.scheme, n=config.n, k=config.k,
        delta=config.delta, m_total=int(schema.total_rows), success=bool(success),
        err_sq=err_sq, tail_sq=stats.tail_sq, decode_ops=int(decode_ops),
        wall_ms=wall_ms, seed=config.seed,
    )


def run_experiment(config: ExperimentConfig) -> list[TrialRecord]:
    config = config.validate()
    return [_run_trial(config, t) for t in range(config.trials)]


@dataclass(frozen=True)
class ReportSummary:
    trials: int
    successes: int
    rate: float
    ci_halfwidth: float
    median_err_sq: float


def summarize(records: list[TrialRecord]) -> ReportSummary:
    if not records:
        raise ValueError("no trial records to summarize")
    n = len(records)
    wins = sum(r.success for r in records)
    p = wins / n
    half = 1.96 * math.sqrt(p * (1 - p) / n)
    return ReportSummary(
        trials=n, successes=wins, rate=p, ci_halfwidth=half,
        median_err_sq=float(np.median([r.err_sq for r in records])),
    )


def _config_comment(config: ExperimentConfig) -> str:
    pairs = " ".join(
        f"{f.name}={getattr(config, f.name)}"
        for f in fields(ExperimentConfig)
        if f.name != "out"  # the file knows where it lives
    )
    return f"# {pairs}"


def render_report(records: list[TrialRecord], config: ExperimentConfig | None = None) -> str:
    if not records:
        raise ValueError("no trial records to report")
    buf = io.StringIO()
    if config is not None:
        buf.write(_config_comment(config) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:  # floats print as repr, success as 0 or 1
        writer.writerow([int(v) if isinstance(v, bool) else v for v in astuple(r)])
    return buf.getvalue()


def emit_report(
    records: list[TrialRecord],
    path: str,
    config: ExperimentConfig | None = None,
) -> ReportSummary:
    """Write the CSV and return (and print) the aggregate summary."""
    text = render_report(records, config)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    summary = summarize(records)
    print(
        f"{len(records)} trials: success rate {summary.rate:.3f} "
        f"+/- {summary.ci_halfwidth:.3f} (95% CI), "
        f"median err_sq {summary.median_err_sq:.6g}"
    )
    return summary


def _parse(kind: str, text: str):
    """A config or CSV value from its text, by its field's type annotation."""
    if kind == "int":
        return int(text)
    if kind == "float":
        return float(text)
    if kind == "bool":
        return text.lower() in ("1", "true", "yes", "on")
    return text


def parse_report(path: str) -> list[TrialRecord]:
    with open(path, encoding="utf-8") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    return [
        TrialRecord(**{f.name: _parse(f.type, row[f.name]) for f in fields(TrialRecord)})
        for row in csv.DictReader(rows)
    ]


def read_config_file(path: str) -> dict[str, str]:
    """Line-oriented key=value config; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def config_from_mappings(*mappings: dict) -> ExperimentConfig:
    """Later mappings override earlier ones; values may arrive as strings."""
    config = ExperimentConfig()
    for mapping in mappings:
        clean = {}
        for key, value in mapping.items():
            if value is None:
                continue
            if key not in _FIELD_TYPES:
                raise ValueError(f"unknown config key {key!r}")
            clean[key] = _parse(_FIELD_TYPES[key], value) if isinstance(value, str) else value
        config = replace(config, **clean)
    return config
