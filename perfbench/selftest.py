"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs three cheap real ops (a dense scan, a verify and the over-cap
spectrum), checks that each counts as a pass, then perturbs the
artifacts, exit codes and messages one at a time and checks that every
perturbation counts as a failure.  Exits 0 when all do.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import workloads  # noqa: E402


def _edit_csv_cell(path: Path, row: int, col: int, fn) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = fn(cells[col])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _flip_first_pass_flag(path: Path) -> None:
    report = json.loads(path.read_text())
    report["checks"][0]["passed"] = not report["checks"][0]["passed"]
    path.write_text(json.dumps(report))


def main() -> int:
    reference = json.loads((HERE / "reference.json").read_text())["ops"]
    workdir = run.WORK / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    runner = run.Runner("selftest", workdir, reference)
    wanted = {"scan_threepair@v0", "verify_minimal", "spectrum_shell6_paired"}
    ops = [op for wl in ("spectra", "battery")
           for op in workloads.make_ops(wl, 0, workdir) if op.name in wanted]
    results = {}
    for op in ops:
        rc, stderr, _, _ = run.invoke(runner.cli.main, op.argv)
        results[op.name] = (op, rc, stderr)
        runner.check(op, rc, stderr)
    failures = []
    if runner.failed:
        failures.append(f"unperturbed ops failed: {runner.problems}")

    def outdir(name):
        op = results[name][0]
        return Path(op.argv[op.argv.index("--out") + 1])

    scan_csv = outdir("scan_threepair@v0") / "scan.csv"
    original_csv = scan_csv.read_text()
    report = outdir("verify_minimal") / "report.json"
    original_report = report.read_text()

    def restore():
        scan_csv.write_text(original_csv)
        report.write_text(original_report)

    perturbations = [
        ("E_ground off by 1e-6", "scan_threepair@v0", None, lambda: _edit_csv_cell(
            scan_csv, 1, 3, lambda c: repr(float(c) + 1e-6))),
        ("E_NC changed in one row", "scan_threepair@v0", None, lambda: _edit_csv_cell(
            scan_csv, 2, 4, lambda c: repr(float(c) + 1.0))),
        ("residual_NC nonzero", "scan_threepair@v0", None, lambda: _edit_csv_cell(
            scan_csv, 1, 6, lambda c: "1e-15")),
        ("E_var not nan", "scan_threepair@v0", None, lambda: _edit_csv_cell(
            scan_csv, 1, 5, lambda c: "np.float64(-1.0)")),
        ("scan row dropped", "scan_threepair@v0", None, lambda: scan_csv.write_text(
            "\n".join(original_csv.splitlines()[:-1]) + "\n")),
        ("artifact missing", "scan_threepair@v0", None, lambda: scan_csv.unlink()),
        ("exit code 1 for 0", "scan_threepair@v0", 1, lambda: None),
        ("pass flag flipped", "verify_minimal", None,
         lambda: _flip_first_pass_flag(report)),
        ("report unreadable", "verify_minimal", None, lambda: report.write_text("{")),
        ("cap op exit 0", "spectrum_shell6_paired", 0, lambda: None),
        ("cap message changed", "spectrum_shell6_paired", "stderr", lambda: None),
    ]
    for label, name, override, perturb in perturbations:
        op, rc, stderr = results[name]
        perturb()
        if override == "stderr":
            stderr = "cap exceeded: something else\n"
        elif override is not None:
            rc = override
        before = runner.failed
        runner.check(op, rc, stderr)
        restore()
        caught = runner.failed == before + 1
        print(f"{'ok  ' if caught else 'MISS'} {label}")
        if not caught:
            failures.append(label)

    value, malformed = workloads.parse_cell("np.float64(-7.5)")
    if (value, malformed) != (-7.5, True) or workloads.parse_cell("-7.5") != (-7.5, False):
        failures.append("E_var parsing")
    shutil.rmtree(workdir, ignore_errors=True)
    print("selftest:", "FAIL " + "; ".join(failures) if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
