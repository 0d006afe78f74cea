"""Steadiness check: two sets of same-code runs, interleaved run by run.

    python3 perfbench/steady.py --seeds 10 --seconds 25
    python3 perfbench/steady.py --seeds 5 --workloads btree-tail

For each seed and workload, set A and set B each make one run of
``run.py --trace 0`` in a fresh process; the pair's order alternates
(A B, B A, A B, ...), so host drift lands on both sets alike instead of
separating two back-to-back blocks.  For every end-to-end metric the report
gives each set's median and quartile spread, (Q3 - Q1) / median, and how much
worse B's median reads than A's, each against the bound in BENCHMARK.json.
A spread above a third of its bound is marked ``*``.  Exits 1 when a run
fails, a trial misses its guarantee, or a spread or a median shift exceeds
its bound.  Every run is also written to ``.bench_out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
OUT = ROOT / ".bench_out" / "steady.json"
SETS = "AB"


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600, cwd=ROOT)
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "code": proc.returncode, "wall_s": wall}
    result = json.loads(lines[-1])
    meta = next((json.loads(ln[5:]) for ln in lines if ln.startswith("meta ")), {})
    return {"ok": result["correct"], "failed_trials": result["failed"], "wall_s": wall,
            "result": result, "host_probe_s": meta.get("host_probe_s")}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which ``second`` reads worse than ``first`` (negative: better)."""
    if not first:
        return 0.0
    return (second - first) / first if better == "lower" else (first - second) / first


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    runs: list[dict] = []
    for i in range(args.seeds):
        seed = 1 + i
        for w in workloads:
            order = SETS if (len(runs) // 2) % 2 == 0 else SETS[::-1]
            for label in order:
                run = {"set": label, "workload": w, "seed": seed,
                       **one_run(w, seed, args.seconds)}
                runs.append(run)
                print(f"{label} {w:<22} seed {seed:>3} ok={run['ok']} "
                      f"failed={run.get('failed_trials')} "
                      f"wall {run['wall_s']:.1f}s probe {run.get('host_probe_s')}",
                      flush=True)
    failed_runs = [r for r in runs if not r["ok"]]
    failed_trials = sum(r.get("failed_trials", 0) for r in runs)
    ok = not failed_runs and not failed_trials
    report = []
    print(f"\n{'workload':<22} {'metric':<18} {'set':>3} {'median':>12} "
          f"{'spread':>7} {'B worse':>8} {'bound':>6}")
    for w in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = {}
            for label in SETS:
                values = [r["result"]["metrics"][name]["value"]
                          for r in runs if r["set"] == label and r["workload"] == w and r["ok"]]
                if len(values) < 2:
                    continue
                medians[label] = statistics.median(values)
                sp = spread(values)
                shift = (worse_by(medians["A"], medians["B"], metric["better"])
                         if label == "B" else None)
                over = sp > bound or (shift is not None and shift > bound)
                ok &= not over
                report.append({"workload": w, "metric": name, "set": label,
                               "median": medians[label], "spread": sp,
                               "b_worse_by": shift, "bound": bound, "values": values})
                shown = "" if shift is None else f"{shift:+.3f}"
                mark = "*" if sp > bound / 3 else " "
                print(f"{w:<22} {name:<18} {label:>3} {medians[label]:>12.6g} "
                      f"{sp:>7.3f}{mark} {shown:>8} {bound:>6}{'  OVER' if over else ''}")
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps({"runs": runs, "report": report}, indent=1))
    if failed_runs or failed_trials:
        print(f"{len(failed_runs)} runs failed, {failed_trials} trials missed "
              "their guarantee", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
