"""Benchmark for onebitcs: closed-loop Monte Carlo trials, one client.

Each trial builds a schema, measures one generated signal and decodes it,
one trial at a time in this process.  Signals and success oracles are inputs,
generated from the workload seed and kept out of every timing.

    python3 perfbench/run.py --workload pipeline-tail --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import os

# must precede the numpy import: keeps BLAS on the one core the client uses
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

import onebitcs  # noqa: E402
from onebitcs import btree, recovery, serialize, signals  # noqa: E402
from onebitcs.model import tail_stats  # noqa: E402
from onebitcs.partition_sketch import AnalysisMarginWarning  # noqa: E402
from onebitcs.prf import RandomSource, derive_key  # noqa: E402

import spans  # noqa: E402

if Path(onebitcs.__file__).resolve().parent != SRC / "onebitcs":
    raise ImportError(f"onebitcs imported from {onebitcs.__file__}, not from {SRC}")

warnings.filterwarnings("ignore", category=AnalysisMarginWarning)

TAIL = 0.3  # l2 norm of the dense tail of sparse-plus-tail signals
MIN_TRIALS = 3  # timed trials per run, however short --seconds is


@dataclass(frozen=True)
class Workload:
    name: str
    scheme: str  # "pipeline" or "btree"
    model: str
    n: int
    k: int
    delta: float
    # (builds, measures, decodes) per timed trial: stages that take tens of
    # milliseconds repeat, so their medians pool enough samples per run
    repeats: tuple[int, int, int]
    via_file: bool = False  # measure writes a bits file, decode reads it back
    b: int = 16


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pipeline-tail", "pipeline", signals.SPARSE_PLUS_TAIL,
                 2**14, 8, 0.25, repeats=(9, 1, 1)),
        Workload("btree-tail", "btree", signals.SPARSE_PLUS_TAIL,
                 2**16, 8, 0.05, repeats=(12, 1, 5)),
        Workload("pipeline-sparse-file", "pipeline", signals.EXACT_SPARSE,
                 2**16, 32, 0.25, repeats=(3, 5, 1), via_file=True),
    )
}

# (name, unit) of every metric, in print order; BENCHMARK.json is the one list
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = tuple((m["name"], m["unit"]) for m in _SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in _SPEC["per_layer"])


@dataclass
class Trial:
    setup: list[float] = field(default_factory=list)  # seconds, one per repeat
    measure: list[float] = field(default_factory=list)
    decode: list[float] = field(default_factory=list)
    success: bool = False
    err_sq: float = 0.0
    bits: int = 0
    output: tuple = ()  # decoded result, compared between passes of one trial
    file_bytes: int = 0
    raised: bool = False

    @property
    def total_s(self) -> float:
        return sum(statistics.median(s) for s in (self.setup, self.measure, self.decode))


class CheckFailed(Exception):
    """A correctness check on the program's output failed."""


def _build(w: Workload, schema_seed: int):
    if w.scheme == "btree":
        return btree.build_schema(w.n, w.k, w.b, w.delta, schema_seed)
    return recovery.build_pipeline(w.n, w.k, w.delta, schema_seed)


def _measure(w: Workload, schema, x):
    return (btree if w.scheme == "btree" else recovery).measure(schema, x)


def _decode(w: Workload, schema, bits) -> tuple:
    """Decoded output as comparable arrays: (indices,) or (indices, values)."""
    if w.scheme == "btree":
        return (btree.decode(schema, bits).indices,)
    estimate, _ = recovery.decode(schema, bits)
    return estimate.indices, estimate.values


def _timed(repeats: int, samples: list[float], fn):
    """Call ``fn`` ``repeats`` times, appending each call's seconds; return
    the last call's result (None when ``repeats`` is 0)."""
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - t0)
    return result


def run_trial(w: Workload, seed: int, trial: int, workdir: Path,
              tracer: spans.Tracer | None = None,
              repeats: tuple[int, int, int] = (1, 1, 1)) -> Trial:
    """One closed-loop trial; raises CheckFailed on a wrong output."""
    x = signals.gen_signal(w.model, w.n, w.k, RandomSource(seed).derive(1000, trial), TAIL)
    stats = tail_stats(x, w.k)
    schema_seed = int(derive_key(seed, 2000, trial))
    path = workdir / "trial.bits"
    out = Trial()

    def measure():
        bits = _measure(w, schema, x)
        if w.via_file:
            serialize.save_pipeline(str(path), schema, bits)
        return bits

    def decode():
        if not w.via_file:
            return _decode(w, schema, bits)
        _, schema_read, bits_read = serialize.load_measurement(str(path))
        return _decode(w, schema_read, bits_read)

    builds, measures, decodes = repeats
    # builds are spread over the trial (before the measure, between measure and
    # decode, after the decode), so a slow spell of the host does not get them all
    slots = [builds // 3 + (i < builds % 3) for i in range(3)]
    build = lambda: _build(w, schema_seed)  # noqa: E731
    try:
        with tracer or nullcontext():
            schema = _timed(slots[0], out.setup, build)
            bits = _timed(measures, out.measure, measure)
            _timed(slots[1], out.setup, build)
            decoded = _timed(decodes, out.decode, decode)
            _timed(slots[2], out.setup, build)
    except Exception:  # a trial that raises counts as failed, the run goes on
        traceback.print_exc(file=sys.stderr)
        out.raised = True
        return out
    out.bits = int(schema.total_rows)
    out.output = decoded
    if w.via_file:
        out.file_bytes = path.stat().st_size
        if not _same(decoded, _decode(w, schema, bits)):
            raise CheckFailed(f"trial {trial}: decoding the bits file differs from "
                              "decoding the in-memory bits")
    if w.scheme == "btree":
        found = decoded[0]
        out.err_sq = float(np.sum(x**2) - np.sum(x[found] ** 2))
        out.success = bool(np.isin(stats.heavy, found).all())
    else:
        estimate = np.zeros(w.n)
        estimate[decoded[0]] = decoded[1]
        out.err_sq = float(np.sum((x - estimate) ** 2))
        out.success = out.err_sq <= 2 * stats.tail_sq + w.delta
    return out


def _same(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and all(np.array_equal(u, v) for u, v in zip(a, b))


def layer_metrics(w: Workload, tracer: spans.Tracer, trial: Trial) -> dict[str, float]:
    """Per-layer metrics of one traced trial (trace.overhead is added later)."""
    s, c = tracer.spans, tracer.counts
    self_s = spans.self_times(s)
    t = lambda name, under=None: spans.total_seconds(s, name, under)  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    rebuild = t("recovery.build_pipeline", under="serialize.load_measurement")
    m = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in spans.LAYERS}
    m.update({
        "prf.evals": c["prf.evals"],
        "prf.measure_evals_per_nnz": ratio(
            spans.total_words(s, "partition_sketch.measure"),
            c["partition_sketch.measured_nnz"]),
        "prf.normal_evals": c["prf.normal_evals"],
        "partition_sketch.measure_s": t("partition_sketch.measure"),
        "partition_sketch.query_s": t("partition_sketch.query_stats"),
        "partition_sketch.parts_queried": c["partition_sketch.parts_queried"],
        "partition_sketch.probe_s": t("partition_sketch.nonzero_candidates"),
        "partition_sketch.parts_probed": c["partition_sketch.parts_probed"],
        "partition_sketch.probe_keep_ratio": ratio(
            c["partition_sketch.probe_kept"], c["partition_sketch.parts_probed"]),
        "btree.build_s": t("btree.build_schema"),
        "btree.decode_s": t("btree.decode"),
        "btree.point_queries": c["btree.point_queries"],
        "btree.survivors": c["btree.survivors"],
        "expander.build_s": t("expander.build_schema"),
        "expander.layer_decode_s": t("expander.layer_decode"),
        "expander.point_queries": c["expander.point_queries"],
        "expander.queries_per_coord": ratio(
            c["expander.point_queries"], c["expander.coords"]),
        "expander.layer_survivors": c["expander.layer_survivors"],
        "expander.link_s": t("expander.link_cluster_decode"),
        "expander.components": c["expander.components"],
        "expander.link_yield": ratio(
            c["expander.linked_coords"], c["expander.components"]),
        "expander.decode_failures": c["expander.decode_failures"],
        "expander.verify_failures": c["expander.verify_failures"],
        "rscode.encode_s": t("rscode.ChunkCode.encode_many"),
        "rscode.decode_s": t("rscode.ChunkCode.decode"),
        "rscode.decodes": c["rscode.decodes"],
        "heavy_hitters.buckets": c["heavy_hitters.buckets"],
        "heavy_hitters.split_s": t("heavy_hitters.bucket_split"),
        "heavy_hitters.cap_dropped": c["expander.recovered"] - c["heavy_hitters.returned"]
        if c["heavy_hitters.buckets"] else 0,
        "recovery.sign_measure_s": t("recovery.sign_measure"),
        "recovery.gauss_entries": c["recovery.gauss_entries"],
        "recovery.correlation_s": t("recovery.correlation"),
        "recovery.solve_s": t("recovery.solve_l1l2"),
        "recovery.support_size": c["recovery.support_size"],
        "recovery.err_sq": trial.err_sq if w.scheme == "pipeline" else 0.0,
        "serialize.save_s": t("serialize.save_pipeline"),
        "serialize.load_s": t("serialize.load_measurement") - rebuild,
        "serialize.rebuild_s": rebuild,
        "serialize.file_bytes": trial.file_bytes,
    })
    return m


def host_probe() -> float:
    """Seconds for a fixed numpy-only job (no repo code): median of 5."""
    a = np.arange(1 << 21, dtype=np.uint64)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        b = a * np.uint64(0x9E3779B97F4A7C15)
        b ^= b >> np.uint64(31)
        np.sort(b)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import scipy

    return {
        "cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((SRC / "onebitcs").glob("*.py"))
        ),
    }


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Warm up once, then time trials until ``seconds`` pass (at least
    MIN_TRIALS); return the result object the last output line carries."""
    OUT.mkdir(exist_ok=True)
    probe_start = host_probe()
    correct = True
    trials: list[Trial] = []
    layers: list[dict] = []
    pairs: list[tuple[float, float]] = []  # (untraced, traced) trial seconds
    records = []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        try:
            run_trial(w, seed, 0, workdir, repeats=w.repeats)
            started = time.perf_counter()
            trial = 1
            while len(trials) < MIN_TRIALS or time.perf_counter() - started < seconds:
                if not trace:
                    trials.append(run_trial(w, seed, trial, workdir, repeats=w.repeats))
                else:
                    # alternate which pass goes first, so order effects cancel
                    tracer = spans.Tracer()
                    if trial % 2:
                        plain = run_trial(w, seed, trial, workdir)
                        traced = run_trial(w, seed, trial, workdir, tracer=tracer)
                    else:
                        traced = run_trial(w, seed, trial, workdir, tracer=tracer)
                        plain = run_trial(w, seed, trial, workdir)
                    if not plain.raised and not traced.raised:
                        if not _same(plain.output, traced.output):
                            raise CheckFailed(f"trial {trial}: traced output differs")
                        pairs.append((plain.total_s, traced.total_s))
                    layers.append(layer_metrics(w, tracer, traced))
                    records.append({"trial": trial, "spans": tracer.spans,
                                    "counts": dict(tracer.counts)})
                    trials.append(traced)
                trial += 1
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
    done = [t for t in trials if not t.raised]
    if not done:
        raise SystemExit("no trial completed; nothing to report")
    if len({t.bits for t in done}) != 1:
        print("check failed: measurement_bits differs between trials", file=sys.stderr)
        correct = False
    successes = sum(t.success for t in trials)
    if not trace:
        metrics = {
            "setup_s": _median([s for t in done for s in t.setup]),
            "measure_s": _median([s for t in done for s in t.measure]),
            "decode_s": _median([s for t in done for s in t.decode]),
            "trials_per_s": len(done) / sum(t.total_s for t in done),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": successes / len(trials),
            "err_sq": _median([t.err_sq for t in done]),
            "measurement_bits": done[0].bits,
        }
        units = dict(END_TO_END)
        notes = {"timed_trials": len(done), "repeats": w.repeats}
    else:
        metrics = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead":
                continue
            # times use every traced trial; counts only the first MIN_TRIALS,
            # so they repeat exactly for one seed however fast the host is
            pool = layers if unit == "s" else layers[:MIN_TRIALS]
            metrics[name] = _median([m[name] for m in pool])
        plain_s = _median([p for p, _ in pairs])
        traced_s = _median([q for _, q in pairs])
        metrics["trace.overhead"] = traced_s / plain_s - 1.0 if plain_s else 0.0
        units = dict(PER_LAYER)
        notes = {"traced_trials": len(done), "untraced_s": plain_s, "traced_s": traced_s}
        with open(OUT / f"trace-{w.name}-seed{seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": w.name, "seed": seed, "trials": records}, fh)
    meta = {"workload": w.name, "seed": seed, **notes,
            "host_probe_s": [probe_start, host_probe()], **machine_info()}
    for name, unit in (PER_LAYER if trace else END_TO_END):
        value = metrics[name]
        shown = str(int(value)) if float(value).is_integer() else f"{value:.6g}"
        print(f"{w.name:<22} {name:<36} {shown:>14} {unit}")
    print("meta " + json.dumps(meta))
    return {
        "correct": correct,
        "attempted": len(trials),
        "failed": len(trials) - successes,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name, _ in (PER_LAYER if trace else END_TO_END)},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in a fresh process of its own, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
        ok = result["correct"] and result["failed"] == 0
    else:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace))
        ok = result["correct"]
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
