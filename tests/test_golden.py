"""Byte-for-byte artifacts of every bundled config.

Each bundled config goes through ``verify``, ``scan --no-variational``
and ``spectrum --g=-1``; ``verify`` on a 40-mode shell (the stress lattice
of the ``battery`` benchmark, ``golden/shell10/config.json``) and one
``continuum`` run round it off.  The ``report.json`` and CSV bytes must
equal the files under ``tests/golden/<config>/``, which makes the
reproducible-artifact contract a test: a refactor that keeps results must
keep these bytes.

Rerecord after a deliberate output change with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from pathlib import Path

import pytest

from darkpair.cli import EXIT_CHECK_FAILED, EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"

CONFIGS = ("minimal", "twopair", "threepair_core", "boosted", "broken_formfactor")

# (golden directory, argv without --out, artifact, expected exit code)
RUNS = [
    (name, [cmd, "--config", name, *extra], artifact,
     EXIT_CHECK_FAILED if (name, cmd) == ("broken_formfactor", "verify") else EXIT_OK)
    for name in CONFIGS
    for cmd, extra, artifact in (
        ("verify", [], "report.json"),
        ("scan", ["--no-variational"], "scan.csv"),
        ("spectrum", ["--g=-1"], "spectrum.csv"),
    )
] + [
    ("shell10", ["verify", "--config", str(GOLDEN / "shell10" / "config.json")],
     "report.json", EXIT_OK),
    ("continuum", ["continuum", "--kf", "1.0", "--delta", "0.1",
                   "--sizes", "8,16,32"], "continuum.csv", EXIT_OK),
]


@pytest.mark.parametrize(
    "name,argv,artifact,code", RUNS, ids=[f"{r[0]}-{r[1][0]}" for r in RUNS]
)
def test_artifact_matches_golden(tmp_path, name, argv, artifact, code):
    assert main([*argv, "--out", str(tmp_path)]) == code
    got = (tmp_path / artifact).read_bytes()
    assert got == (GOLDEN / name / artifact).read_bytes()


def record() -> None:
    for name, argv, artifact, code in RUNS:
        assert main([*argv, "--out", str(GOLDEN / name)]) == code
    for text_report in GOLDEN.glob("*/report.txt"):
        text_report.unlink()  # carries wall times, so it is not reproducible


if __name__ == "__main__":
    record()
