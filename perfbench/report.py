"""All workloads, every metric: one untraced and one traced run of each.

    python3 perfbench/report.py

Runs every workload with seed 1, once with ``--trace 0`` and once with
``--trace 1``, and prints one line per metric with workload, name, value
and unit, plus each run's op counts.  It then prints the share of the
traced pass wall that each workload's intended layers take on every
workload.  Everything printed, with the environment stamp, is also
written to ``perfbench/REPORT.json``.  Exits 1 if any op failed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1

# Layers each workload is meant to exercise: they should take most of its
# wall_s there and little of it elsewhere.
INTENDED = {
    "battery": ("operators.apply_s", "operators.compose_s"),
    "spectra": ("operators.assemble_s", "spectra.eig_s"),
    "variational": ("operators.apply_s",),
}


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One ``run.py`` run: (environment stamp line, result line)."""
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not json.loads(lines[-1])["correct"]:
        print(proc.stdout)
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    out = {"seed": SEED, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        out["workloads"][workload] = entry = {}
        for trace in (0, 1):
            stamp, result = run_once(workload, SEED, trace)
            out["env"] = stamp["env"]
            ok = ok and result["correct"]
            entry[f"trace{trace}"] = result
            if trace:
                entry["traced_pass_walls_s"] = stamp["traced_pass_walls_s"]
            print(f"{workload:12s} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"{workload:12s} {name:40s} {metric['value']:14.6g} {metric['unit']}")

    # Layer self times and the pass wall they are a share of come from the
    # same traced passes.
    print("share of the traced pass wall")
    out["shares_of_traced_wall"] = shares = {}
    for layers in dict.fromkeys(INTENDED.values()):
        key = "+".join(layers)
        shares[key] = {}
        for workload, entry in out["workloads"].items():
            layer = entry["trace1"]["metrics"]
            wall = statistics.median(entry["traced_pass_walls_s"])
            shares[key][workload] = sum(layer[n]["value"] for n in layers) / wall
            mark = "intended" if INTENDED[workload] == layers else ""
            print(f"{key:40s} {workload:12s} {shares[key][workload]:8.3f} {mark}")
    (HERE / "REPORT.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
