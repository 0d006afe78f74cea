"""In-memory span tracer that wraps the public functions of onebitcs modules.

Spans are recorded from outside the program: each listed function is
replaced, for the duration of a ``with Tracer()`` block, by a wrapper that
records (name, start, end, parent, PRF words evaluated inside) and updates
work counters from the call's arguments and result.  Every module attribute
that refers to a wrapped function is patched too, because ``from .prf import
fold`` gives each consumer module its own reference; ``prf.mix64`` is counted
through the ``prf`` module global that every PRF helper calls.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter_ns

PACKAGE = "onebitcs"

# layer -> public functions (``Class.method`` for methods) to span
LAYERS = {
    "prf": ("fold", "derive_key", "uniform01", "standard_normal", "rademacher",
            "uniform_index"),
    "partition_sketch": ("build_schema", "measure", "query_stats", "point_query",
                         "select_passing", "nonzero_candidates",
                         "count_sketch_decode"),
    "btree": ("build_schema", "measure", "decode"),
    "rscode": ("ChunkCode.encode_many", "ChunkCode.decode"),
    "expander": ("build_schema", "make_name", "measure", "layer_decode",
                 "link_cluster_decode", "recover"),
    "heavy_hitters": ("build_schema", "bucket_split", "measure", "decode"),
    "recovery": ("GaussianSchema.entries", "sign_measure", "correlation",
                 "solve_l1l2", "build_pipeline", "measure", "decode"),
    "serialize": ("save_pipeline", "load_measurement", "load_pipeline",
                  "write_blocks", "read_blocks", "pack_bits", "unpack_bits",
                  "pack_sign_vector", "unpack_sign_vector"),
}


def _size(a) -> int:
    return int(getattr(a, "size", 1))


def _nnz(x) -> int:
    return int((x != 0).sum())


# span name -> counter update(counts, result, *args); missing attributes
# count as zero so a renamed field reads 0 rather than failing the run
COUNTERS = {
    "prf.standard_normal": lambda c, r, *a: c.update({"prf.normal_evals": _size(r)}),
    "partition_sketch.measure": lambda c, r, schema, x, *a: c.update(
        {"partition_sketch.measured_nnz": _nnz(x)}),
    "partition_sketch.query_stats": lambda c, r, *a: c.update(
        {"partition_sketch.parts_queried": _size(r.parts)}),
    "partition_sketch.nonzero_candidates": lambda c, r, schema, *a: c.update(
        {"partition_sketch.parts_probed": schema.partition.size,
         "partition_sketch.probe_kept": _size(r)}),
    "btree.decode": lambda c, r, *a: c.update(
        {"btree.point_queries": getattr(r, "point_queries", 0),
         "btree.survivors": sum(getattr(r, "per_level_survivors", ()))}),
    "rscode.ChunkCode.decode": lambda c, r, *a: c.update({"rscode.decodes": 1}),
    "expander.layer_decode": lambda c, r, *a: c.update(
        {"expander.point_queries": getattr(r, "point_queries", 0),
         "expander.layer_survivors": _size(r.parts)}),
    "expander.link_cluster_decode": lambda c, r, *a: c.update(
        {"expander.components": getattr(r[2], "components", 0),
         "expander.decode_failures": getattr(r[2], "decode_failures", 0),
         "expander.verify_failures": getattr(r[2], "verify_failures", 0),
         "expander.linked_coords": _size(r[0])}),
    "expander.recover": lambda c, r, schema, *a: c.update(
        {"expander.recovered": _size(r[0]), "expander.coords": schema.n}),
    "heavy_hitters.decode": lambda c, r, schema, bucket_bits, *a: c.update(
        {"heavy_hitters.buckets": len(bucket_bits),
         "heavy_hitters.returned": _size(r[0])}),
    "recovery.GaussianSchema.entries": lambda c, r, *a: c.update(
        {"recovery.gauss_entries": _size(r)}),
    "recovery.correlation": lambda c, r, *a: c.update(
        {"recovery.support_size": _size(r)}),
}


class Tracer:
    """Context manager: patches the package on entry, restores it on exit.

    ``spans`` holds (name, start_ns, end_ns, parent_index, prf_words) tuples
    in call order; parent_index is -1 for a span with no traced caller.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def __enter__(self) -> "Tracer":
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        prf = sys.modules[f"{PACKAGE}.prf"]
        self._patch(modules, prf, "mix64", self._count_words(prf.mix64))
        for layer, names in LAYERS.items():
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for dotted in names:
                owner, attr = module, dotted
                if "." in dotted:
                    cls, attr = dotted.split(".")
                    owner = getattr(module, cls, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:  # the program no longer has it: no span
                    continue
                wrapper = self._span(f"{layer}.{dotted}", original)
                if owner is module:
                    self._patch(modules, module, attr, wrapper)
                else:
                    self._restore.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def _patch(self, modules, home, attr, wrapper):
        """Replace ``home.attr`` and every other module's reference to it."""
        original = getattr(home, attr)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, name, original))
                    setattr(module, name, wrapper)

    def _count_words(self, mix64):
        counts = self.counts

        @functools.wraps(mix64)
        def counted(z):
            out = mix64(z)
            counts["prf.evals"] += out.size
            return out

        return counted

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            words = counts["prf.evals"]
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, counts["prf.evals"] - words)
            if counter is not None:
                counter(counts, result, *args, **kwargs)
            return result

        return traced


def self_times(spans) -> dict[str, float]:
    """Seconds of self time per layer: span duration minus its children's."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: Counter = Counter()
    for (name, start, end, _, _), covered in zip(spans, child_ns):
        out[name.split(".", 1)[0]] += (end - start - covered) * 1e-9
    return dict(out)


def total_seconds(spans, name: str, under: str | None = None) -> float:
    """Summed duration of spans called ``name`` (optionally only those below
    a span called ``under``); nested calls of the same name count once."""
    total = 0
    for name_i, start, end, parent, _ in spans:
        if name_i != name:
            continue
        ancestors = _ancestors(spans, parent)
        if name in ancestors:
            continue
        if under is not None and under not in ancestors:
            continue
        total += end - start
    return total * 1e-9


def total_words(spans, name: str) -> int:
    """PRF words evaluated inside spans called ``name`` (outermost ones)."""
    return sum(
        words for name_i, _, _, parent, words in spans
        if name_i == name and name not in _ancestors(spans, parent)
    )


def _ancestors(spans, parent: int) -> set[str]:
    names = set()
    while parent >= 0:
        names.add(spans[parent][0])
        parent = spans[parent][3]
    return names
