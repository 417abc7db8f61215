"""Byte-for-byte artifacts of every bundled config.

Each bundled config goes through ``verify``, ``scan --no-variational``,
``scan`` (with ``E_var``, pinned as ``scan_var.csv``) and
``spectrum --g=-1``; ``verify`` on a 40-mode shell (the stress lattice of
the ``battery`` benchmark, ``golden/shell10/config.json``), on the same
shell under the asymmetric weight ``asymmetric:5``, whose nonzero
residuals of checks (2) and (3) pin the closed forms' differences, and two
``continuum`` runs, the second at the ``battery`` benchmark's sizes up to
96, round it off.  The ``report.json`` and CSV bytes must
equal the files under ``tests/golden/<config>/``, which makes the
reproducible-artifact contract a test: a refactor that keeps results must
keep these bytes.

Rerecord after a deliberate output change with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import shutil
import tempfile
from pathlib import Path

import pytest

from darkpair.cli import EXIT_CHECK_FAILED, EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"

CONFIGS = ("minimal", "twopair", "threepair_core", "boosted", "broken_formfactor")

# (golden directory, argv without --out, artifact, golden file name,
#  expected exit code)
RUNS = [
    (name, [cmd, "--config", name, *extra], artifact, golden,
     EXIT_CHECK_FAILED if (name, cmd) == ("broken_formfactor", "verify") else EXIT_OK)
    for name in CONFIGS
    for cmd, extra, artifact, golden in (
        ("verify", [], "report.json", "report.json"),
        ("scan", ["--no-variational"], "scan.csv", "scan.csv"),
        ("scan", [], "scan.csv", "scan_var.csv"),
        ("spectrum", ["--g=-1"], "spectrum.csv", "spectrum.csv"),
    )
] + [
    ("shell10", ["verify", "--config", str(GOLDEN / "shell10" / "config.json")],
     "report.json", "report.json", EXIT_OK),
    ("shell10_asymmetric",
     ["verify", "--config", str(GOLDEN / "shell10_asymmetric" / "config.json")],
     "report.json", "report.json", EXIT_CHECK_FAILED),
    ("continuum", ["continuum", "--kf", "1.0", "--delta", "0.1",
                   "--sizes", "8,16,32"], "continuum.csv", "continuum.csv", EXIT_OK),
    ("continuum_wide", ["continuum", "--kf", "1.0", "--delta", "0.1",
                        "--sizes", "8,16,32,64,96"],
     "continuum.csv", "continuum.csv", EXIT_OK),
]
IDS = [f"{name}-{argv[0]}" if golden == artifact else f"{name}-{Path(golden).stem}"
       for name, argv, artifact, golden, _ in RUNS]


@pytest.mark.parametrize("name,argv,artifact,golden,code", RUNS, ids=IDS)
def test_artifact_matches_golden(tmp_path, name, argv, artifact, golden, code):
    assert main([*argv, "--out", str(tmp_path)]) == code
    got = (tmp_path / artifact).read_bytes()
    assert got == (GOLDEN / name / golden).read_bytes()


def record() -> None:
    for name, argv, artifact, golden, code in RUNS:
        with tempfile.TemporaryDirectory() as out:
            assert main([*argv, "--out", out]) == code
            shutil.copyfile(Path(out) / artifact, GOLDEN / name / golden)


if __name__ == "__main__":
    record()
