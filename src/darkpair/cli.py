"""Config-driven command line: verify / spectrum / scan / continuum.

Exit codes: 0 success, 1 failed verification check, 2 config error
(including a value that passes float range), 3 size cap exceeded (sector
dimension or continuum grid) or eigensolver convergence failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import formfactors
from .fock import BASIS_CAP, BasisSizeError
from .lattice import LatticeConfig, LatticeError, build_mode_table
from .spectra import (
    DENSE_CUTOFF,
    SCAN_FIELDS,
    SPECTRUM_FIELDS,
    ConvergenceError,
    scan_g,
    spectrum_rows,
)
from .verify import (
    CONTINUUM_FIELDS,
    GridSizeError,
    continuum_energy_check,
    run_battery,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_CAP = 3


class ConfigError(ValueError):
    pass


def _parse(kind, value):
    """``kind(value)`` as a config error on failure; ``Fraction`` takes JSON
    numbers or "p/q" strings and keeps them exact.  A JSON boolean is an
    error, not read as 1 or 0."""
    if isinstance(value, bool):
        raise ConfigError(f"cannot interpret {value!r} as {kind.__name__}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot interpret {value!r} as {kind.__name__}") from exc


def _int(value, what: str) -> int:
    """``value`` as an int; a JSON boolean (see ``_parse``) or a number
    with a fractional part is a config error, not truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return _parse(int, value)


def _ivec(value, what: str) -> tuple[int, int, int]:
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"{what} must hold 3 integers, got {value!r}")
    return tuple(_int(x, f"every component of {what}") for x in value)


def _seed(value) -> int:
    seed = _int(value, "seed")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return seed


def _object(value, what: str, keys) -> dict:
    """``value`` if it is a JSON object holding only ``keys``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {value!r}")
    for key in value:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in {what}")
    return value


def _list(value, what: str, nonempty: bool = False) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    if nonempty and not value:
        raise ConfigError(f"{what} is empty; give at least one value")
    return value


CONFIG_KEYS = ("lattice", "couplings", "lambda_values", "formfactor", "seed",
               "output_dir", "caps")
LATTICE_KEYS = tuple(f.name for f in fields(LatticeConfig))
CAPS_KEYS = ("basis", "dense")


def load_config(path: str | Path) -> dict:
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    raw = _object(raw, "the config", CONFIG_KEYS)
    if "lattice" not in raw:
        raise ConfigError("config is missing the 'lattice' section")
    lat = _object(raw["lattice"], "the lattice section", LATTICE_KEYS)
    try:
        kwargs = {
            "kf": _parse(float, lat["kf"]),
            "delta": _parse(float, lat["delta"]),
        }
    except KeyError as exc:
        raise ConfigError(f"lattice section is missing {exc}") from exc
    for key in ("L", "c", "mu"):
        if lat.get(key) is not None:
            kwargs[key] = _parse(float, lat[key])
    if "boost" in lat and lat["boost"] is not None:
        kwargs["boost"] = _ivec(lat["boost"], "boost")
    frozen = lat.get("frozen_core")
    if frozen is not None and not isinstance(frozen, bool):
        raise ConfigError(f"frozen_core must be true or false, got {frozen!r}")
    kwargs["frozen_core"] = bool(frozen)
    if lat.get("shell_points") is not None:
        points = _list(lat["shell_points"], "shell_points")
        kwargs["shell_points"] = tuple(_ivec(p, "each shell point") for p in points)
    if lat.get("volume") is not None:
        kwargs["volume"] = _parse(Fraction, lat["volume"])
    config = LatticeConfig(**kwargs)
    try:
        table = build_mode_table(config)
    except LatticeError as exc:
        raise ConfigError(f"invalid lattice: {exc}") from exc

    caps = _object(raw.get("caps", {}), "the caps section", CAPS_KEYS)
    if not isinstance(raw.get("output_dir", "out"), str):
        raise ConfigError(f"output_dir must be a string, got {raw['output_dir']!r}")
    couplings = _list(raw.get("couplings", [-1, -0.5, 0.5, 1]), "couplings", True)
    lambdas = _list(raw.get("lambda_values", [-1, 0, 1, 2, "7/3"]), "lambda_values", True)
    cfg = {
        "lattice": config,
        "table": table,
        "couplings": [_parse(Fraction, g) for g in couplings],
        "lambda_values": [_parse(Fraction, l) for l in lambdas],
        "formfactor": raw.get("formfactor", "unit"),
        "seed": _seed(raw.get("seed", 0)),
        "output_dir": raw.get("output_dir", "out"),
        "basis_cap": _int(caps.get("basis", BASIS_CAP), "caps.basis"),
        "dense_cutoff": _int(caps.get("dense", DENSE_CUTOFF), "caps.dense"),
    }
    if cfg["basis_cap"] <= 0 or cfg["dense_cutoff"] <= 0:
        raise ConfigError(f"caps must be positive, got {caps!r}")
    try:
        formfactors.from_spec(table, cfg["formfactor"], cfg["seed"])
    except ValueError as exc:
        raise ConfigError(f"invalid formfactor: {exc}") from exc
    return cfg


def write_csv(fields, rows: list[dict]) -> str:
    """CSV text with a header line; floats, numpy scalars included, as
    plain ``repr(float)`` literals."""
    lines = [",".join(fields)]
    for row in rows:
        lines.append(
            ",".join(
                repr(float(row[f])) if isinstance(row[f], float) else str(row[f])
                for f in fields
            )
        )
    return "\n".join(lines) + "\n"


def bundled_config_path(name: str) -> Path:
    """Path of a config shipped with the package (e.g. "minimal")."""
    ref = resources.files("darkpair").joinpath("configs", f"{name}.json")
    return Path(str(ref))


def _resolve_config_arg(value: str) -> Path:
    p = Path(value)
    if p.exists():
        return p
    candidate = bundled_config_path(value.removesuffix(".json"))
    if candidate.exists():
        return candidate
    raise ConfigError(f"config file not found: {value}")


def _outdir(path: str) -> Path:
    """The output directory ``path``, made with its parents if missing,
    once a command's work has succeeded; a path that is a file or lies
    under one is a config error."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out}: {exc.strerror}") from exc
    return out


def cmd_verify(args) -> int:
    cfg = load_config(_resolve_config_arg(args.config))
    seed = cfg["seed"] if args.seed is None else _seed(args.seed)
    report = run_battery(
        cfg["table"],
        cfg["couplings"],
        cfg["lambda_values"],
        formfactor=cfg["formfactor"],
        seed=seed,
    )
    out = _outdir(args.out or cfg["output_dir"])
    (out / "report.json").write_text(report.to_json())
    (out / "report.txt").write_text(report.to_text())
    sys.stdout.write(report.to_text())
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def cmd_spectrum(args) -> int:
    cfg = load_config(_resolve_config_arg(args.config))
    seed = cfg["seed"] if args.seed is None else _seed(args.seed)
    n_modes = cfg["table"].n_modes
    if args.sector is not None and not 0 <= args.sector <= n_modes:
        raise ConfigError(
            f"--sector must be a particle number from 0 to {n_modes}, got {args.sector}"
        )
    rows = spectrum_rows(
        cfg["table"],
        _parse(Fraction, args.g),
        formfactor=cfg["formfactor"],
        seed=seed,
        sector=args.sector,
        dense_cutoff=cfg["dense_cutoff"],
        basis_cap=cfg["basis_cap"],
    )
    out = _outdir(args.out or cfg["output_dir"])
    (out / "spectrum.csv").write_text(write_csv(SPECTRUM_FIELDS, rows))
    sys.stdout.write(f"wrote {len(rows)} eigenvalues to {out / 'spectrum.csv'}\n")
    return EXIT_OK


def cmd_scan(args) -> int:
    cfg = load_config(_resolve_config_arg(args.config))
    seed = cfg["seed"] if args.seed is None else _seed(args.seed)
    if args.g_list is None:
        g_values = cfg["couplings"]
    elif not args.g_list.strip():
        raise ConfigError("--g-list is empty; give at least one coupling")
    else:
        g_values = [_parse(Fraction, x) for x in args.g_list.split(",")]
    rows = scan_g(
        cfg["table"],
        g_values,
        formfactor=cfg["formfactor"],
        seed=seed,
        with_variational=not args.no_variational,
        dense_cutoff=cfg["dense_cutoff"],
        basis_cap=cfg["basis_cap"],
    )
    out = _outdir(args.out or cfg["output_dir"])
    (out / "scan.csv").write_text(write_csv(SCAN_FIELDS, rows))
    sys.stdout.write(f"wrote {len(rows)} rows to {out / 'scan.csv'}\n")
    return EXIT_OK


def cmd_continuum(args) -> int:
    LatticeConfig(kf=args.kf, delta=args.delta, c=args.c).validate()
    sizes = [_parse(int, s) for s in args.sizes.split(",")]
    if min(sizes) <= 0:
        raise ConfigError(f"sizes must be positive, got {args.sizes!r}")
    rows = continuum_energy_check(args.kf, args.delta, sizes, c=args.c)
    out = _outdir(args.out or "out")
    (out / "continuum.csv").write_text(write_csv(CONTINUUM_FIELDS, rows))
    sys.stdout.write(f"wrote {len(rows)} rows to {out / 'continuum.csv'}\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A usage error is a ``ConfigError``, reported on one line like any
    other; subcommand parsers are built from this class too."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache  # parsing leaves no state behind, so one parser serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="darkpair",
        description="Exact engine for pairing-interaction dark states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True,
                           help="config JSON path or bundled name")
            p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("verify", help="run the identity battery")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectrum", help="eigenvalues in one sector")
    common(p)
    p.add_argument("--g", required=True, help="coupling (number or p/q)")
    p.add_argument("--sector", type=int, default=None,
                   help="particle number (table modes); default: paired sector")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("scan", help="sweep couplings")
    common(p)
    p.add_argument("--g-list", default=None, help="comma-separated couplings")
    p.add_argument("--no-variational", action="store_true",
                   help="skip the variational column")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("continuum", help="counting vs closed forms on large grids")
    common(p, needs_config=False)
    p.add_argument("--kf", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--sizes", required=True, help="comma-separated refinements")
    p.add_argument("--c", type=float, default=1.0, help="dispersion scale")
    p.set_defaults(func=cmd_continuum)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except OverflowError as exc:  # a coupling, volume or entry past float range
        sys.stderr.write(f"config error: a value passes float range: {exc}\n")
        return EXIT_CONFIG
    except LatticeError as exc:
        sys.stderr.write(f"lattice error: {exc}\n")
        return EXIT_CONFIG
    except (BasisSizeError, GridSizeError) as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return EXIT_CAP
    except ConvergenceError as exc:
        sys.stderr.write(
            f"eigensolver did not converge: {exc} "
            f"(best {exc.best_value}, residual {exc.residual})\n"
        )
        return EXIT_CAP


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
