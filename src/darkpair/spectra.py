"""Exact spectra in particle-number sectors and the variational pair ansatz.

Places the paired eigenstate's energy inside the exact spectrum of
H = H0 + W as the coupling varies.  All reported energies are absolute:
the analytic frozen-core energy is added back so columns are comparable
across lattices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import formfactors
from .fock import BASIS_CAP, StateVector, sector_basis
from .lattice import ModeTable
from .operators import (
    OperatorExpr,
    apply_operator,
    build_h0,
    build_w,
    eigen_residual,
    matrix_in_sector,
)
from .states import (
    bcs_state,
    nc_energy,
    nc_state,
    pair_coefficients_from_angles,
)

DENSE_CUTOFF = 4096


class ConvergenceError(RuntimeError):
    """Iterative eigensolver stopped before reaching tolerance."""

    def __init__(self, message: str, best_value: float, residual: float):
        super().__init__(message)
        self.best_value = best_value
        self.residual = residual


@dataclass
class SectorSpectrum:
    sector: int
    dim: int
    method: str
    eigenvalues: np.ndarray  # ascending, absolute (core energy included)
    eigenvectors: np.ndarray | None = None

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])


def build_hamiltonian(
    table: ModeTable, g, formfactor: str = "unit", seed: int = 0
) -> OperatorExpr:
    g_fun, _ = formfactors.from_spec(table, formfactor, seed)
    return build_h0(table) + build_w(table, g, g_fun)


def diagonalize_sector(
    hamiltonian: OperatorExpr,
    table: ModeTable,
    n_particles: int,
    n_lowest: int = 6,
    dense_cutoff: int = DENSE_CUTOFF,
    basis_cap: int = BASIS_CAP,
    want_vectors: bool = False,
    seed: int = 0,
    maxiter: int | None = None,
) -> SectorSpectrum:
    """Eigenvalues of the Hamiltonian restricted to one number sector.

    Dense full spectrum up to ``dense_cutoff``; above that, the lowest
    ``n_lowest`` eigenpairs from a Krylov solver with a seeded start
    vector (so repeated runs agree bit for bit).
    """
    basis = sector_basis(table.n_modes, n_particles, basis_cap)
    dim = len(basis)
    shift = float(table.core_energy)
    if dim == 0:
        return SectorSpectrum(n_particles, 0, "empty", np.empty(0))
    if dim <= dense_cutoff:
        mat = matrix_in_sector(hamiltonian, basis, table.n_modes)
        if want_vectors:
            vals, vecs = np.linalg.eigh(mat)
            return SectorSpectrum(n_particles, dim, "dense", vals + shift, vecs)
        vals = np.linalg.eigvalsh(mat)
        return SectorSpectrum(n_particles, dim, "dense", vals + shift)

    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    mat = matrix_in_sector(hamiltonian, basis, table.n_modes, sparse=True)
    k = min(n_lowest, dim - 1)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(dim)
    try:
        vals, vecs = eigsh(mat, k=k, which="SA", v0=v0, maxiter=maxiter)
    except ArpackNoConvergence as exc:
        if len(exc.eigenvalues):
            vals = np.sort(exc.eigenvalues.real)
            best = float(vals[0])
            vec = exc.eigenvectors[:, 0]
            resid = float(np.linalg.norm(mat @ vec - best * vec))
            raise ConvergenceError(
                f"Krylov solver hit the iteration limit; best value {best + shift}",
                best + shift,
                resid,
            ) from exc
        raise ConvergenceError(
            "Krylov solver produced no converged eigenvalues", math.nan, math.inf
        ) from exc
    order = np.argsort(vals)
    vals = vals[order].real + shift
    if want_vectors:
        return SectorSpectrum(n_particles, dim, "krylov", vals, vecs[:, order])
    return SectorSpectrum(n_particles, dim, "krylov", vals)


def nc_in_spectrum(
    table: ModeTable,
    g,
    formfactor: str = "unit",
    seed: int = 0,
    dense_cutoff: int = DENSE_CUTOFF,
    basis_cap: int = BASIS_CAP,
) -> dict:
    """Locate the paired state's energy within its number sector.

    Returns the eigen-residual of H on the paired state, the exact sector
    ground energy, and the (signed) gap ground - E_paired.
    """
    h = build_hamiltonian(table, g, formfactor, seed)
    state = nc_state(table)
    e_total = nc_energy(table)
    residual = eigen_residual(h, state, e_total - table.core_energy)

    sector = table.total_particles_nc() - table.core_particles
    spec = diagonalize_sector(
        h, table, sector, dense_cutoff=dense_cutoff, basis_cap=basis_cap, seed=seed
    )
    ground = spec.ground_energy
    gap = ground - float(e_total)
    return {
        "g": float(g),
        "sector": sector + table.core_particles,
        "dim": spec.dim,
        "E_nc": float(e_total),
        "E_ground": ground,
        "gap": gap,
        "gap_sign": int(np.sign(gap)) if abs(gap) > 1e-12 else 0,
        "residual": residual,
        "method": spec.method,
    }


def rayleigh_quotient(h: OperatorExpr, state: StateVector) -> float:
    image = apply_operator(h, state)
    num = state.inner(image)
    den = state.norm2()
    value = complex(num).real / float(den)
    return value


def bcs_variational_energy(
    table: ModeTable,
    g,
    formfactor: str = "unit",
    seed: int = 0,
    n_starts: int = 8,
    tol: float = 1e-10,
    max_sweeps: int = 60,
) -> tuple[float, dict]:
    """Minimize the Rayleigh quotient of the pair-product ansatz.

    Coordinate descent over one mixing angle per shell point (u = cos,
    v = sin), multi-start with a seeded generator.  Returns the best
    absolute energy (core included) and the coefficient map.
    """
    from scipy.optimize import minimize_scalar

    h = build_hamiltonian(table, g, formfactor, seed)
    points = list(table.shell_all)
    rng = np.random.default_rng(seed)
    shift = float(table.core_energy)

    def energy(theta: np.ndarray) -> float:
        coeffs = pair_coefficients_from_angles(
            table, {p: float(t) for p, t in zip(points, theta)}
        )
        return rayleigh_quotient(h, bcs_state(table, coeffs))

    best_val = math.inf
    best_theta = None
    starts = [np.zeros(len(points))]
    starts += [rng.uniform(0.0, math.pi, len(points)) for _ in range(n_starts - 1)]
    for theta in starts:
        theta = theta.copy()
        current = energy(theta)
        for _ in range(max_sweeps):
            previous = current
            for idx in range(len(points)):
                def line(t, idx=idx):
                    trial = theta.copy()
                    trial[idx] = t
                    return energy(trial)

                opt = minimize_scalar(
                    line, bounds=(0.0, math.pi), method="bounded",
                    options={"xatol": 1e-9},
                )
                if opt.fun < current:
                    theta[idx] = opt.x
                    current = opt.fun
            if previous - current < tol:
                break
        if current < best_val:
            best_val = current
            best_theta = theta.copy()

    coeffs = pair_coefficients_from_angles(
        table, {p: float(t) for p, t in zip(points, best_theta)}
    )
    return best_val + shift, coeffs


SCAN_FIELDS = ("g", "sector", "dim", "E_ground", "E_NC", "E_var", "residual_NC")


def scan_g(
    table: ModeTable,
    g_values: Sequence,
    formfactor: str = "unit",
    seed: int = 0,
    with_variational: bool = True,
    dense_cutoff: int = DENSE_CUTOFF,
    basis_cap: int = BASIS_CAP,
) -> list[dict]:
    """One row per coupling, sorted by g; E_NC must come out constant."""

    def one(g) -> dict:
        rec = nc_in_spectrum(
            table, g, formfactor, seed, dense_cutoff=dense_cutoff, basis_cap=basis_cap
        )
        if with_variational:
            e_var, _ = bcs_variational_energy(table, g, formfactor, seed)
        else:
            e_var = math.nan
        return {
            "g": float(g),
            "sector": rec["sector"],
            "dim": rec["dim"],
            "E_ground": rec["E_ground"],
            "E_NC": rec["E_nc"],
            "E_var": e_var,
            "residual_NC": rec["residual"],
        }

    return [one(g) for g in sorted(g_values, key=float)]


SPECTRUM_FIELDS = ("g", "sector", "dim", "index", "eigenvalue")


def spectrum_rows(
    table: ModeTable,
    g,
    formfactor: str = "unit",
    seed: int = 0,
    sector: int | None = None,
    dense_cutoff: int = DENSE_CUTOFF,
    basis_cap: int = BASIS_CAP,
) -> list[dict]:
    """Eigenvalue listing for one coupling in one sector (default: the
    paired state's sector)."""
    h = build_hamiltonian(table, g, formfactor, seed)
    if sector is None:
        sector = table.total_particles_nc() - table.core_particles
    spec = diagonalize_sector(
        h, table, sector, dense_cutoff=dense_cutoff, basis_cap=basis_cap, seed=seed
    )
    return [
        {
            "g": float(g),
            "sector": sector + table.core_particles,
            "dim": spec.dim,
            "index": i,
            "eigenvalue": float(v),
        }
        for i, v in enumerate(spec.eigenvalues)
    ]
