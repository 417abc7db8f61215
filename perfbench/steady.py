"""Steadiness evidence: two sets of ten seeded runs of every workload.

    python3 perfbench/steady.py

Runs ``run.py --trace 0`` with seeds 1..10 on each workload, one run at a
time, and then does it all again.  For every set and end-to-end metric
it prints the median, the quartiles from ``statistics.quantiles(values,
n=4)`` and their distance as a share of the median, next to the metric's
bound; then how far each median moved from the first set to the second,
as a share of the first.  The values, the summaries and the environment
stamp are written to ``perfbench/STEADINESS.json``.  Exits 1 if any op
failed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
SETS = 2

sys.path.insert(0, str(HERE))
from report import run_once  # noqa: E402


def run_set(workloads: list[str], bounds: dict[str, float], env: dict) -> dict:
    summaries = {}
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in SEEDS:
            stamp, result = run_once(workload, seed, 0)
            env.update(stamp["env"])
            if not result["correct"]:
                raise SystemExit(1)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        summaries[workload] = summary = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med, "bound": bounds[name],
                             "values": vals}
            print(f"{workload:12s} {name:12s} median {med:10.5g}  q1 {q1:10.5g}  "
                  f"q3 {q3:10.5g}  spread {summary[name]['spread']:7.4f}  "
                  f"bound {bounds[name]}", flush=True)
    return summaries


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    env: dict = {}
    sets = []
    for number in range(1, SETS + 1):
        print(f"set {number}")
        sets.append(run_set(workloads, bounds, env))

    shifts = {w: {name: sets[1][w][name]["median"] / sets[0][w][name]["median"] - 1
                  for name in bounds} for w in workloads}
    for w, by_metric in shifts.items():
        for name, shift in by_metric.items():
            print(f"{w:12s} {name:12s} median shift {shift:+7.4f}  bound {bounds[name]}")
    spread_share = max(s[w][name]["spread"] / bounds[name]
                       for s in sets for w in workloads for name in bounds
                       if name != "setup_s")
    shift_share = max(shift / bounds[name]
                      for by_metric in shifts.values() for name, shift in by_metric.items())
    print(f"largest spread as a share of its bound (setup_s aside): {spread_share:.3f}")
    print(f"largest worsening of a median as a share of its bound: {shift_share:.3f}")
    report = {"run_seconds": bench["run_seconds"], "seeds": list(SEEDS), "env": env,
              "sets": sets, "median_shift": shifts}
    (HERE / "STEADINESS.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
