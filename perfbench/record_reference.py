"""Record ``reference.json``: the artifacts the benchmark's checks expect.

    python3 perfbench/record_reference.py

Runs every op of every workload once per formfactor variant (pass seed
0..VARIANTS-1) on the program in ``src/`` and stores the parsed
artifacts.  Ops that do not depend on the variant must agree across all
runs within the checks' tolerances, which also shows that seed-dependent
inputs (anticommutation samples, variational starts) stay inside them.
Record it only from a program whose outputs are known to be right.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import workloads  # noqa: E402
from darkpair import cli  # noqa: E402


def main() -> int:
    workdir = HERE.parent / ".perfbench_work" / "record"
    ops_ref: dict[str, dict] = {}
    disagreements = []
    for workload in workloads.WORKLOADS:
        for pass_seed in range(workloads.VARIANTS):
            shutil.rmtree(workdir, ignore_errors=True)
            for op in workloads.make_ops(workload, pass_seed, workdir):
                rc, stderr, _, _ = run.invoke(cli.main, op.argv)
                outdir = Path(op.argv[op.argv.index("--out") + 1])
                got = workloads.read_artifacts(op, outdir)
                got.pop("malformed", None)
                if op.name not in ops_ref:
                    ops_ref[op.name] = got
                problems = workloads.compare(op, rc, stderr, got,
                                             ops_ref[op.name])
                if problems:
                    disagreements.append(f"{op.name} seed {pass_seed}: {problems}")
                print(f"{workload} seed {pass_seed} {op.name}: rc={rc}", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    if disagreements:
        print("\n".join(disagreements))
        return 1
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE.parent,
                            capture_output=True, text=True).stdout.strip()
    payload = {"recorded_at": commit or "unknown", "ops": ops_ref}
    (HERE / "reference.json").write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
