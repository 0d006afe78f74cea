"""Exact counts of the benchmark repeat across reruns of one seed.

    python3 -m pytest -q perfbench/test_repeat.py
    python3 perfbench/test_repeat.py btree-tail    # one traced trial's counts

Each workload's traced trial with seed 7 runs in two fresh processes, so
anything that differs between processes (hash or set order, state left over
from an earlier trial) shows.  The measurement bit count and every per-layer
count (every metric not timed in seconds) must come out identical in both,
every listed metric must be produced, and the counts README.md states must
read their stated values.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

SEED = 7
COUNTS = [name for name, unit in run.PER_LAYER if unit != "s" and name != "trace.overhead"]

# counts of seed 7's first trial, as README.md states them
STATED = {
    "pipeline-tail": {"measurement_bits": 1_065_728, "expander.point_queries": 65_568},
    "btree-tail": {"measurement_bits": 821_760, "btree.point_queries": 2_328},
    "pipeline-sparse-file": {"measurement_bits": 4_729_856},
}


def traced_trial(workload: str, workdir: Path) -> dict:
    """Counts of one traced trial, with its success and bit count."""
    w = run.WORKLOADS[workload]
    tracer = spans.Tracer()
    trial = run.run_trial(w, seed=SEED, trial=1, workdir=workdir, tracer=tracer)
    return {"raised": trial.raised, "success": trial.success,
            "measurement_bits": trial.bits, **run.layer_metrics(w, tracer, trial)}


def counts_in_fresh_process(workload: str) -> dict:
    proc = subprocess.run([sys.executable, __file__, workload], stdout=subprocess.PIPE,
                          text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(STATED))
def test_counts_repeat_for_one_seed(workload):
    first = counts_in_fresh_process(workload)
    second = counts_in_fresh_process(workload)
    assert not first["raised"] and first["success"]
    assert {n: first[n] for n in ["measurement_bits", *COUNTS]} == \
        {n: second[n] for n in ["measurement_bits", *COUNTS]}
    assert {n: first[n] for n in STATED[workload]} == STATED[workload]
    assert set(first) - {"raised", "success", "measurement_bits"} == \
        {name for name, _ in run.PER_LAYER} - {"trace.overhead"}


def test_tracer_restores_the_package(tmp_path):
    from onebitcs import partition_sketch, prf

    before = (prf.mix64, prf.fold, partition_sketch.fold, partition_sketch.measure)
    traced_trial("pipeline-sparse-file", tmp_path)
    assert (prf.mix64, prf.fold, partition_sketch.fold, partition_sketch.measure) == before


if __name__ == "__main__":
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        print(json.dumps(traced_trial(sys.argv[1], Path(tmp))))
