"""darkpair benchmark: run one workload through ``darkpair.cli.main``.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 20 --trace 0

Run from the root of a source tree (``src/darkpair`` beside
``perfbench/``); nothing needs installing.  The workload's op list runs in
this process, one pass after another, while the time budget lasts (at
least one pass).  Every op's exit code and artifacts are checked against
``reference.json``.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median pass
wall), ``setup_s`` (median of fresh interpreters that import darkpair,
load the workload's configs and build their mode tables) and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced passes on
the same inputs and prints the per-layer metrics (medians over traced
passes), ``cpu_s`` and ``tracing_overhead``.  The last stdout line is one
JSON object: ``correct``, ``attempted`` and ``failed`` ops, ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 21

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

# Prints the monotonic clock when ready, so interpreter teardown is not timed.
SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
import darkpair
from darkpair.cli import bundled_config_path, load_config
from darkpair.lattice import build_mode_table
for arg in sys.argv[2:]:
    path = arg if arg.endswith(".json") else bundled_config_path(arg)
    build_mode_table(load_config(path)["lattice"])
print(time.monotonic())
"""


def blas_threads() -> dict[str, int]:
    """OpenBLAS thread counts of the libraries numpy and scipy loaded."""
    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[lib.name] = fn()
                    break
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def measure_setup(ops: list[workloads.Op]) -> float:
    """Median wall time of fresh interpreters getting ready for the ops."""
    configs = [c for op in ops for c in op.configs]
    argv = [sys.executable, "-c", SETUP_CHILD, str(SRC), *configs]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.run(argv, check=True, capture_output=True, text=True)
        times.append(float(proc.stdout) - t0)
    return statistics.median(times)


def invoke(main, argv: list[str]) -> tuple[int, str, float, float]:
    """Call a CLI main with captured output: (exit code, stderr, wall, cpu).

    Exits and uncaught errors give the exit code the command line would.
    """
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return rc, err.getvalue(), wall, cpu


class Runner:
    """Runs passes of one workload and checks every op."""

    def __init__(self, workload: str, workdir: Path, reference: dict):
        from darkpair import cli

        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.malformed = 0
        self.problems: list[str] = []

    def run_pass(self, pass_seed: int, tracer=None) -> tuple[float, float]:
        """One pass of the op list; returns (wall, cpu) summed over ops."""
        passdir = self.workdir / "pass"
        shutil.rmtree(passdir, ignore_errors=True)
        main = self.cli.main
        if tracer is not None:
            main = functools.partial(tracer.span, tracing.OP_SPAN, self.cli.main)
        wall = cpu = 0.0
        for op in workloads.make_ops(self.workload, pass_seed, passdir):
            rc, stderr, op_wall, op_cpu = invoke(main, op.argv)
            wall += op_wall
            cpu += op_cpu
            self.check(op, rc, stderr)
        return wall, cpu

    def check(self, op: workloads.Op, rc: int, stderr: str) -> None:
        self.attempted += 1
        outdir = Path(op.argv[op.argv.index("--out") + 1])
        try:
            got = workloads.read_artifacts(op, outdir)
        except (OSError, ValueError, KeyError, IndexError):
            got = None
        if got is not None:
            self.malformed += got.get("malformed", 0)
        ref = self.reference.get(op.name)
        if ref is None:
            problems = [f"no reference for {op.name}"]
        else:
            problems = workloads.compare(op, rc, stderr, got, ref)
        if problems:
            self.failed += 1
            self.problems.append(f"{op.name}: " + "; ".join(problems))


def pass_seeds(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(1 << 31)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    reference = json.loads((HERE / "reference.json").read_text())["ops"]
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    seeds = pass_seeds(workload, seed)
    try:
        first = next(seeds)
        setup_s = None
        if not trace:
            setup_s = measure_setup(workloads.make_ops(workload, first, workdir / "setup"))

        runner = Runner(workload, workdir, reference)
        walls, cpus, layers, traced_walls = [], [], [], []
        start = time.perf_counter()
        pass_seed = first
        while True:
            wall, cpu = runner.run_pass(pass_seed)
            walls.append(wall)
            cpus.append(cpu)
            if trace:
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    traced_wall, _ = runner.run_pass(pass_seed, tracer)
                finally:
                    tracer.uninstall()
                traced_walls.append(traced_wall)
                layers.append(tracing.layer_metrics(tracer))
            if time.perf_counter() - start >= seconds:
                break
            pass_seed = next(seeds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        WORK.mkdir(exist_ok=True)
        tracer.dump(WORK / f"spans-{workload}-{seed}.jsonl.gz")
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["cli.malformed_cells"] = runner.malformed / (2 * len(walls))
        metrics["cpu_s"] = statistics.median(cpus)
        metrics["tracing_overhead"] = statistics.median(
            t / w - 1.0 for t, w in zip(traced_walls, walls))
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return {
        "passes": len(walls),
        "walls": walls,
        "traced_walls": traced_walls,
        "cpu_s": statistics.median(cpus),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "malformed": runner.malformed,
        "problems": runner.problems,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "darkpair" / "__init__.py").is_file():
        sys.stderr.write(f"darkpair sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()
    over = {k: v for k, v in env["blas_threads"].items() if v > env["nproc"]}
    if over:
        sys.stderr.write(f"BLAS threads {over} exceed nproc {env['nproc']}\n")
        return 2

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in result["problems"]:
        print(f"FAIL {problem}")
    units = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"] for m in units["end_to_end"] + units["per_layer"]}
    stamp = {"env": env, "workload": args.workload, "seed": args.seed,
             "passes": result["passes"], "pass_walls_s": result["walls"],
             "cpu_s": result["cpu_s"],
             "fail_rate": result["failed"] / result["attempted"],
             "malformed_cells": result["malformed"]}
    if args.trace:
        stamp["traced_pass_walls_s"] = result["traced_walls"]
    print(json.dumps(stamp))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit_of[k]}
                    for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
