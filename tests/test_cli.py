"""Command-line behavior: exit codes, outputs, reproducibility."""

import contextlib
import io
import json
import math
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkpair.cli import (
    EXIT_CAP,
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    build_parser,
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
        if key == "lattice" and isinstance(val, dict):
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
    "config not an object": "5",
    "lattice not an object": {"lattice": 5},
    "caps not an object": {"caps": 5},
    "couplings not a list": {"couplings": 5},
    "couplings empty": {"couplings": []},
    "lambda values empty": {"lambda_values": []},
    "shell points not a list": {"lattice": {"shell_points": 5}},
    "unknown top-level key": {"coupling": [-1]},
    "unknown lattice key": {"lattice": {"frozen-core": False}},
    "unknown caps key": {"caps": {"basis_cap": 10}},
    "output dir not a string": {"output_dir": 5},
    "frozen core not a boolean": {"lattice": {"frozen_core": "no"}},
    # integer fields take no fraction and no boolean: int() would truncate
    "boost not integral": {"lattice": {"boost": [0, 0, 0.9]}},
    "shell point not integral": {"lattice": {"shell_points": [[0, 0, 1.4], [0, 0, -1]]}},
    "seed not integral": {"seed": 7.9},
    "seed a boolean": {"seed": True},
    "basis cap not integral": {"caps": {"basis": 100.5}},
    "dense cutoff a boolean": {"caps": {"dense": True}},
    # number fields take no boolean either: float() and Fraction() read 1 or 0
    "kf a boolean": {"lattice": {"kf": True}},
    "delta a boolean": {"lattice": {"delta": True}},
    "L a boolean": {"lattice": {"L": True}},
    "c a boolean": {"lattice": {"c": False}},
    "mu a boolean": {"lattice": {"mu": False}},
    "volume a boolean": {"lattice": {"volume": True}},
    "coupling a boolean": {"couplings": [True, -1]},
    "lambda a boolean": {"lambda_values": [0, False]},
    # the negative control's nonzero dark residual is relative to a norm of W
    "coupling past float range": {"couplings": ["1e400"], "formfactor": "asymmetric:3"},
}


@pytest.mark.parametrize("overrides", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_config_exits_2_with_one_line(tmp_path, capsys, overrides):
    if isinstance(overrides, str):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(overrides)
    else:
        cfg = write_config(tmp_path, **overrides)
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["couplings", "lambda_values"])
def test_scan_with_an_empty_list_writes_nothing(tmp_path, capsys, key):
    cfg = write_config(tmp_path, **{key: []})
    out = tmp_path / "o"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


def test_unknown_key_is_named(tmp_path, capsys):
    cfg = write_config(tmp_path, lattice={"frozen-core": True})
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "'frozen-core'" in capsys.readouterr().err


BAD_FLAGS = {
    "negative seed override": ["verify", "--config", "minimal", "--seed", "-1"],
    "negative scan seed": ["scan", "--config", "minimal", "--seed", "-1"],
    "size not an integer": ["continuum", "--kf", "1", "--delta", "0.1",
                            "--sizes", "x"],
    "zero size": ["continuum", "--kf", "1", "--delta", "0.1", "--sizes", "8,0"],
    "negative size": ["continuum", "--kf", "1", "--delta", "0.1", "--sizes=-4"],
    "kf not finite": ["continuum", "--kf", "nan", "--delta", "0.1", "--sizes", "8"],
    "delta above kf": ["continuum", "--kf", "1", "--delta", "2", "--sizes", "8"],
    "zero dispersion scale": ["continuum", "--kf", "1", "--delta", "0.1",
                              "--sizes", "8", "--c", "0"],
    # minimal has 4 table modes: sectors 0..4
    "sector below 0": ["spectrum", "--config", "minimal", "--g=-1", "--sector=-1"],
    "sector above the table modes": ["spectrum", "--config", "minimal", "--g=-1",
                                     "--sector", "5"],
    "empty coupling list": ["scan", "--config", "minimal", "--g-list", ""],
    "continuum seed, which it does not read": ["continuum", "--kf", "1", "--delta",
                                               "0.1", "--sizes", "8", "--seed", "3"],
    # values past float range: a coupling, and sector-matrix entries of a
    # finite coupling times a random weight
    "coupling past float range": ["scan", "--config", "minimal", "--g-list", "1e400"],
    "scan entry past float range": ["scan", "--config", "twopair", "--no-variational",
                                    "--g-list", "1e308"],
    "spectrum entry past float range": ["spectrum", "--config", "twopair",
                                        "--g", "1.7e308"],
    # usage errors argparse finds itself
    "missing config": ["scan", "--g-list", "1"],
    "sector not an integer": ["spectrum", "--config", "minimal", "--g", "1",
                              "--sector", "x"],
    "unknown command": ["bogus"],
}


@pytest.mark.parametrize("argv", BAD_FLAGS.values(), ids=BAD_FLAGS.keys())
def test_bad_command_line_value_exits_2_with_one_line(tmp_path, capsys, argv):
    code = main([*argv, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_usage_error_leaves_the_shared_parser_usable(tmp_path, capsys):
    assert main(["scan", "--g-list", "1"]) == EXIT_CONFIG
    assert main(["scan", "--config", "minimal", "--no-variational",
                 "--out", str(tmp_path)]) == EXIT_OK
    assert capsys.readouterr().err.count("\n") == 1
    assert (tmp_path / "scan.csv").exists()


@pytest.mark.parametrize("command", [["scan"], ["spectrum", "--g=-1"]])
def test_volume_past_float_range_exits_2_with_one_line(tmp_path, capsys, command):
    # g / volume is exact, but no float holds it
    cfg = write_config(tmp_path, lattice={"volume": "1e-400"})
    code = main([*command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_verify_keeps_a_coupling_past_float_range_exact(tmp_path):
    # the battery's residuals are exactly 0, so nothing has to become a float
    cfg = write_config(tmp_path, couplings=["1e400"])
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK


@pytest.mark.parametrize("sector", [0, 4])
def test_spectrum_accepts_the_sector_bounds(tmp_path, sector):
    out = tmp_path / "o"
    assert main(["spectrum", "--config", "minimal", "--g=-1", "--sector", str(sector),
                 "--out", str(out)]) == EXIT_OK
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].split(",")[2] == "1"  # one state


def test_oversized_continuum_grid_exits_3_before_allocating(tmp_path, capsys):
    # size 10**5 at kf + delta = 1.1 would need about 1e16 grid points
    start = time.perf_counter()
    code = main(["continuum", "--kf", "1", "--delta", "0.1", "--sizes", "8,100000",
                 "--out", str(tmp_path / "o")])
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert code == EXIT_CAP
    assert err.startswith("cap exceeded: continuum grid at size 100000")
    assert err.count("\n") == 1 and not (tmp_path / "o").exists()


def test_huge_lattice_exits_2_fast(tmp_path, capsys):
    # the kf = 400 band would fill about 2.7e8 grid points of the ball
    cfg = write_config(tmp_path, lattice={"kf": 400, "shell_points": None})
    start = time.perf_counter()
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_CONFIG
    assert "more than 64 modes" in capsys.readouterr().err


def test_core_past_exact_sums_exits_2_fast(tmp_path, capsys):
    # the kf = 1e5 ball is past lattice.BAND_MAX; nothing is walked
    cfg = write_config(tmp_path, lattice={"kf": 1e5, "shell_points": [
        [100000, 0, 0], [-100000, 0, 0]]})
    start = time.perf_counter()
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "the largest walked in about a second" in err and err.count("\n") == 1


def test_thin_band_past_exact_sums_exits_2_fast(tmp_path, capsys):
    # the band |n|^2 ~ 1e10 lies in a ball past BAND_MAX; nothing is walked
    cfg = write_config(tmp_path, lattice={"kf": 100000.5, "delta": 1e-9,
                                          "shell_points": None})
    start = time.perf_counter()
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "the largest walked in about a second" in err and err.count("\n") == 1


@pytest.mark.parametrize("kf", [8192, 32768, math.sqrt(2**30 - 1)])
def test_thin_band_past_the_walk_cap_exits_2_fast(tmp_path, capsys, kf):
    # the band lies in a ball past BAND_MAX = 2**24; nothing is walked
    cfg = write_config(tmp_path, lattice={"kf": kf, "delta": 1e-9,
                                          "shell_points": None})
    start = time.perf_counter()
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "exceeds 16777216" in err and err.count("\n") == 1


FAR_CORES = {
    "4 table modes over 66 core modes": {"kf": 2.5, "delta": 0.3,
                                         "shell_points": [[1, 2, 0], [-1, -2, 0]]},
    "kf 100": {"kf": 100, "delta": 0.5, "shell_points": [[100, 0, 0], [-100, 0, 0]]},
}


@pytest.mark.parametrize("lattice", FAR_CORES.values(), ids=FAR_CORES.keys())
def test_small_shell_over_a_deep_core_verifies_fast(tmp_path, lattice):
    # check (5) reads the table's own operators, so a frozen core of any
    # depth adds no modes: every check runs, and the report counts the core
    cfg = write_config(tmp_path, lattice=lattice)
    table = load_config(cfg)["table"]
    assert table.n_modes + table.core_particles > 64  # past the word with its core
    start = time.perf_counter()
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK
    checks = json.loads((tmp_path / "o" / "report.json").read_text())["checks"]
    core = next(c for c in checks if c["check_id"] == "core_commutators")
    assert core["residual"] == 0.0
    assert core["params"]["inner_points"] == table.core_particles // 2


OUTPUT_COMMANDS = {
    "verify": ["verify", "--config", "minimal"],
    "scan": ["scan", "--config", "minimal", "--no-variational"],
    "spectrum": ["spectrum", "--config", "minimal", "--g=-1"],
    "continuum": ["continuum", "--kf", "1.0", "--delta", "0.1", "--sizes", "8"],
}


@pytest.mark.parametrize("under", [False, True], ids=["a file", "under a file"])
@pytest.mark.parametrize("command", OUTPUT_COMMANDS.values(), ids=OUTPUT_COMMANDS.keys())
def test_output_path_that_is_not_a_directory_exits_2_with_one_line(
        tmp_path, capsys, command, under):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "sub" if under else taken
    code = main([*command, "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot make output directory {out}: ")
    assert err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert taken.read_text() == "kept\n"


# Valid lattices: radial threepair, one pair, a live core with a chemical
# potential, a drifting pair.  A radial band around a live core is left
# out: its paired sector of 3003 states costs seconds per coupling.
FUZZ_LATTICES = [
    {"kf": 1.0, "delta": 0.25, "frozen_core": True},
    {"kf": 1.2, "delta": 0.5, "frozen_core": True, "volume": 1,
     "shell_points": [[0, 0, 1], [0, 0, -1]]},
    {"kf": 1.2, "delta": 0.5, "mu": 1.5, "volume": "1/2",
     "shell_points": [[0, 0, 1], [0, 0, -1], [0, 1, 0], [0, -1, 0]]},
    {"kf": 1.2, "delta": 0.5, "boost": [0, 0, 1], "frozen_core": True,
     "shell_points": [[0, 0, 2], [0, 0, 0]], "volume": 1},
]
FUZZ_OPTIONAL = {
    "couplings": [[-1], [-1, "1/2"], [0], []],
    "lambda_values": [[0, 1], []],
    "formfactor": ["unit", "random:3", "random", "asymmetric:2"],
    "seed": [0, 3],
    "caps": [{"basis": 4}, {"dense": 1}, {}],
}
# (section, key, value); section None replaces the whole config.
FUZZ_BREAKS = [
    ("lattice", "kf", "x"), ("lattice", "kf", 400), ("lattice", "kf", 0.3),
    ("lattice", "delta", 0), ("lattice", "delta", "1e400"),
    ("lattice", "shell_points", 5), ("lattice", "shell_points", [[0, 0, 1]]),
    ("lattice", "shell_points", [[0, 0]]), ("lattice", "boost", [0, 0]),
    ("lattice", "volume", 0), ("lattice", "volume", "1e-400"), ("lattice", "mu", "nan"),
    ("lattice", "frozen-core", True), ("config", "lattice", 5),
    ("config", "lattice", []), ("config", "couplings", 5),
    ("config", "couplings", ["1/0"]), ("config", "couplings", ["1e400"]),
    ("config", "lambda_values", [None]),
    ("config", "formfactor", "bogus"), ("config", "formfactor", 5),
    ("config", "seed", -1), ("config", "seed", "a"), ("config", "seed", 7.9),
    ("config", "caps", 5),
    ("config", "caps", {"x": 1}), ("config", "extra", 1),
    (None, None, 5), (None, None, []), (None, None, "x"),
]


@st.composite
def fuzz_configs(draw):
    cfg = {"lattice": dict(draw(st.sampled_from(FUZZ_LATTICES)))}
    for key, values in FUZZ_OPTIONAL.items():
        if draw(st.booleans()):
            cfg[key] = draw(st.sampled_from(values))
    for section, key, value in draw(st.lists(st.sampled_from(FUZZ_BREAKS), max_size=2)):
        if section is None:
            return value
        target = cfg["lattice"] if section == "lattice" else cfg
        if isinstance(target, dict):
            target[key] = value
    return cfg


@settings(max_examples=120, deadline=None)
@given(config=fuzz_configs(),
       command=st.sampled_from([["verify"], ["scan"], ["spectrum", "--g=-1"]]))
def test_fuzzed_config_keeps_exit_code_contract(config, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([*command, "--config", str(path), "--out", tmp])
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_CAP)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_CHECK_FAILED:
        assert config["formfactor"].startswith("asymmetric:")


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


def test_spectrum_without_krylov_convergence_exits_3_with_one_line(
        tmp_path, capsys, arpack_gives_up):
    # the two-pair sector of 70 states goes to Krylov under a dense cap of 1
    cfg = write_config(tmp_path, lattice={"shell_points": [
        [0, 0, 1], [0, 0, -1], [0, 1, 0], [0, -1, 0]]}, caps={"dense": 1})
    arpack_gives_up([-1.5])
    code = main(["spectrum", "--config", str(cfg), "--g", "-1",
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_CAP
    assert err.startswith("eigensolver did not converge: Krylov solver hit the "
                          "iteration limit; best value -1.5")
    assert err.count("\n") == 1 and not (tmp_path / "o").exists()


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


def _scipy_modules_after(*argvs) -> str:
    """The scipy modules in ``sys.modules``, as a printed sorted list, after
    one fresh interpreter has run each of ``argvs`` through ``main``, each
    exiting 0."""
    import os
    import subprocess
    import sys

    import darkpair

    code = "import sys\nfrom darkpair.cli import main\n"
    code += "".join(f"assert main({argv!r}) == 0\n" for argv in argvs)
    code += "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    src = str(Path(darkpair.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return run.stdout.splitlines()[-1]


def test_dense_scan_imports_no_scipy(tmp_path):
    """A scan whose sectors are all dense-size (here with E_var) runs on
    numpy alone: importing scipy.sparse and csgraph costs about 33 MB of
    peak memory."""
    argv = ["scan", "--config", "threepair_core", "--out", str(tmp_path)]
    assert _scipy_modules_after(argv) == "[]"
    assert (tmp_path / "scan.csv").exists()


def test_verify_and_continuum_import_no_scipy(tmp_path):
    """The battery and the continuum's Gauss-Kronrod oracle run on numpy
    alone: importing scipy.integrate costs about 49 MB of peak memory."""
    config = Path(__file__).parent / "golden" / "shell10" / "config.json"
    verify_argv = ["verify", "--config", str(config), "--out", str(tmp_path / "v")]
    continuum_argv = ["continuum", "--kf", "1.0", "--delta", "0.1", "--sizes", "8,16",
                      "--out", str(tmp_path / "c")]
    assert _scipy_modules_after(verify_argv, continuum_argv) == "[]"
    assert (tmp_path / "v" / "report.json").exists()
    assert (tmp_path / "c" / "continuum.csv").exists()


def test_scan_with_a_dense_cutoff_above_the_sector_solves_its_components(tmp_path):
    """The 16-mode |n|^2 = 3 shell's sector 8 (dim 12,870) under a dense
    cutoff of 20,000 goes through the dense route, component by component,
    and agrees with the default block route; a dim x dim matrix would be
    1.33 GB."""
    import tracemalloc

    lattice = {"kf": 3 ** 0.5, "delta": 0.05, "frozen_core": True, "volume": 1}
    grounds = []
    for name, caps in (("dense", {"dense": 20000}), ("blocks", {})):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"lattice": lattice, "couplings": [-1, "1/2"],
                                   "formfactor": "unit", "caps": caps}))
        out = tmp_path / name
        tracemalloc.start()
        try:
            code = main(["scan", "--config", str(cfg), "--no-variational",
                         "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < 200e6, (name, peak)
        rows = (out / "scan.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["12870", "12870"]
        grounds.append([float(row.split(",")[3]) for row in rows])
    assert np.allclose(grounds[0], grounds[1], rtol=0, atol=1e-10)
