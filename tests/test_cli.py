"""Command-line behavior: exit codes, outputs, reproducibility."""

import json

import numpy as np
import pytest

from darkpair.cli import (
    EXIT_CAP,
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    bundled_config_path,
    load_config,
    main,
    write_csv,
)


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "lattice": {
            "kf": 1.2,
            "delta": 0.5,
            "frozen_core": True,
            "shell_points": [[0, 0, 1], [0, 0, -1]],
            "volume": 1,
        },
        "couplings": [-1, -0.5, 0.5, 1],
        "lambda_values": [-1, 0, 1, 2, "7/3"],
        "formfactor": "unit",
        "seed": 7,
        "output_dir": str(tmp_path / "out"),
    }
    for key, val in overrides.items():
        if key == "lattice":
            cfg["lattice"].update(val)
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_verify_bundled_minimal_passes(tmp_path):
    out = tmp_path / "out"
    code = main(["verify", "--config", "minimal", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["all_passed"] is True
    assert len(report["checks"]) == 10
    assert (out / "report.txt").exists()


def test_verify_outputs_byte_identical_across_runs(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["verify", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_verify_invalid_lattice_names_invariant(tmp_path, capsys):
    cfg = write_config(tmp_path, lattice={"delta": 1.3, "shell_points": None})
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "kf must exceed delta" in err


def test_verify_broken_formfactor_fails_dark_state(tmp_path):
    cfg = write_config(tmp_path, formfactor="asymmetric:3")
    out = tmp_path / "out"
    code = main(["verify", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_CHECK_FAILED
    report = json.loads((out / "report.json").read_text())
    by_id = {c["check_id"]: c for c in report["checks"]}
    assert by_id["dark_state"]["passed"] is False
    assert by_id["dark_state"]["residual"] > 1e-12


def test_missing_config_file(tmp_path, capsys):
    code = main(["verify", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "not found" in capsys.readouterr().err


def test_malformed_json_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["verify", "--config", str(path), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "not valid JSON" in capsys.readouterr().err


MALFORMED = {
    "unknown formfactor": {"formfactor": "bogus"},
    "formfactor seed not an integer": {"formfactor": "random:x"},
    "formfactor not a string": {"formfactor": 5},
    "coupling divides by zero": {"couplings": ["1/0"]},
    "lambda not a number": {"lambda_values": [None]},
    "kf not finite": {"lattice": {"kf": "inf"}},
    "delta not a number": {"lattice": {"delta": "abc"}},
    "mu not finite": {"lattice": {"mu": float("nan")}},
    "volume zero": {"lattice": {"volume": 0}},
    "seed not an integer": {"seed": "abc"},
    "seed negative": {"seed": -1},
    "boost of two components": {"lattice": {"boost": [0, 0]}},
    "shell point of two components": {"lattice": {"shell_points": [[0, 0], [0, 0]]}},
    "negative basis cap": {"caps": {"basis": -1}},
    "zero dense cutoff": {"caps": {"dense": 0}},
}


@pytest.mark.parametrize("overrides", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_config_exits_2_with_one_line(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path, **overrides)
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_scan_csv_constant_paired_column(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(["scan", "--config", str(cfg), "--g-list=-1,-0.5,0,0.5,1",
                 "--no-variational", "--out", str(out)])
    assert code == EXIT_OK
    lines = (out / "scan.csv").read_text().splitlines()
    assert lines[0] == "g,sector,dim,E_ground,E_NC,E_var,residual_NC"
    assert len(lines) == 6
    nc_col = {line.split(",")[4] for line in lines[1:]}
    assert nc_col == {"2.0"}


def test_scan_byte_identical_across_runs(tmp_path):
    cfg = write_config(tmp_path)
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        code = main(["scan", "--config", str(cfg), "--g-list=-1,1",
                     "--no-variational", "--out", str(out)])
        assert code == EXIT_OK
        outs.append((out / "scan.csv").read_bytes())
    assert outs[0] == outs[1]


def test_write_csv_spells_numpy_floats_as_plain_literals():
    rows = [{"g": -1.0, "dim": 70, "E_var": np.float64(-1.6484598681661078),
             "nan": np.float64("nan")}]
    assert write_csv(("g", "dim", "E_var", "nan"), rows) == (
        "g,dim,E_var,nan\n-1.0,70,-1.6484598681661078,nan\n"
    )


def test_spectrum_four_pair_sector(tmp_path):
    # sixteen shell modes; the four-particle sector has C(16,4) = 1820 states
    cfg = write_config(
        tmp_path,
        lattice={
            "shell_points": [
                [0, 0, 1], [0, 0, -1], [0, 1, 0], [0, -1, 0],
                [1, 0, 0], [-1, 0, 0], [1, 1, 0], [-1, -1, 0],
            ]
        },
    )
    out = tmp_path / "out"
    code = main(["spectrum", "--config", str(cfg), "--g", "-1",
                 "--sector", "4", "--out", str(out)])
    assert code == EXIT_OK
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert len(lines) == 1821
    assert lines[1].split(",")[2] == "1820"


def test_spectrum_cap_exit(tmp_path):
    cfg = write_config(tmp_path, caps={"basis": 5})
    code = main(["spectrum", "--config", str(cfg), "--g", "-1",
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_CAP


def test_continuum_cli(tmp_path):
    out = tmp_path / "cont"
    code = main(["continuum", "--kf", "1.0", "--delta", "0.1",
                 "--sizes", "8,16", "--out", str(out)])
    assert code == EXIT_OK
    lines = (out / "continuum.csv").read_text().splitlines()
    assert len(lines) == 3


def test_bundled_configs_parse():
    for name in ("minimal", "twopair", "threepair_core", "boosted",
                 "broken_formfactor"):
        path = bundled_config_path(name)
        assert path.exists()
        cfg = load_config(path)
        assert cfg["lattice"].kf > 0


def test_couplings_accept_rational_strings(tmp_path):
    from fractions import Fraction

    cfg_path = write_config(tmp_path, couplings=["-2/3", 1])
    cfg = load_config(cfg_path)
    assert cfg["couplings"] == [Fraction(-2, 3), Fraction(1)]


def test_seed_flag_overrides_config(tmp_path):
    # bare "random" takes its seed from the master seed
    cfg = write_config(tmp_path, formfactor="random", seed=7)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["verify", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["verify", "--config", str(cfg), "--seed", "21",
                 "--out", str(out2)]) == EXIT_OK
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r1["seed"] == 7 and r2["seed"] == 21
