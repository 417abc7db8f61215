"""Exact spectra in particle-number sectors and the variational pair ansatz.

Places the paired eigenstate's energy inside the exact spectrum of
H = H0 + W as the coupling varies.  All reported energies are absolute:
the analytic frozen-core energy is added back so columns are comparable
across lattices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import formfactors
from .fock import BASIS_CAP, StateVector, sector_basis
from .lattice import ModeTable
from .operators import (
    OperatorExpr,
    build_h0,
    build_w,
    eigen_residual,
    matrix_in_sector,
)
from .states import nc_energy, nc_state, phi_core_energy

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
    # ascending, absolute (core energy included); the ground alone for "blocks"
    eigenvalues: np.ndarray

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
    seed: int = 0,
    maxiter: int | None = None,
) -> SectorSpectrum:
    """Eigenvalues of the Hamiltonian restricted to one number sector.

    Dense full spectrum up to ``dense_cutoff``.  Above that:

    - ``n_lowest == 1`` (the ground energy alone, as ``nc_in_spectrum``
      asks): when every connected component of the sector matrix fits
      ``dense_cutoff``, method ``"blocks"`` gives the least real part of
      the components' eigenvalues, the quantity the Krylov route reports.
      The pairing term moves only time-reversed pairs, so the sector
      splits into many small components.
    - Otherwise the lowest ``n_lowest`` eigenvalues from a Krylov solver
      with a seeded start vector (so repeated runs agree bit for bit).
      Krylov can return fewer copies of a degenerate eigenvalue than it
      has and then a higher one, so its i-th value need not be the i-th
      eigenvalue.

    A sector too small for the Krylov solver (which needs
    dim > n_lowest + 1) is dense too.
    """
    basis = sector_basis(table.n_modes, n_particles, basis_cap)
    dim = len(basis)
    shift = float(table.core_energy)
    if dim == 0:
        return SectorSpectrum(n_particles, 0, "empty", np.empty(0))
    if dim <= max(dense_cutoff, n_lowest + 1):
        mat = matrix_in_sector(hamiltonian, basis, table.n_modes)
        vals = np.linalg.eigvalsh(mat)
        return SectorSpectrum(n_particles, dim, "dense", vals + shift)

    mat = matrix_in_sector(hamiltonian, basis, table.n_modes, sparse=True)
    if n_lowest == 1:
        ground = _block_ground(mat, dense_cutoff)
        if ground is not None:
            return SectorSpectrum(n_particles, dim, "blocks", np.array([ground + shift]))

    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    # random:<s> makes H non-Hermitian, so Krylov stays on scipy's complex route;
    # cast in place so no real copy of the matrix lives through the solve
    mat.data = mat.data.astype(np.complex128)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(dim)
    try:
        vals, _ = eigsh(mat, k=n_lowest, which="SA", v0=v0, maxiter=maxiter)
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
    return SectorSpectrum(n_particles, dim, "krylov", np.sort(vals).real + shift)


def _components(mat) -> np.ndarray:
    """Connected-component label of each row of the square CSR ``mat``.

    Labelled on the sparsity pattern, explicit zeros included, so no
    stored entry joins two components."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    pattern = csr_matrix((np.ones(mat.nnz, dtype=np.int8), mat.indices, mat.indptr),
                         shape=mat.shape)
    return connected_components(pattern, directed=False)[1]


def _block_ground(mat, cutoff: int) -> float | None:
    """Least real part of the eigenvalues of the CSR matrix ``mat``, from
    dense solves of its connected components stacked by size; ``None``
    when a component is larger than ``cutoff``."""
    labels = _components(mat)
    sizes = np.bincount(labels)
    if sizes.max() > cutoff:
        return None
    # each state's place in its component, each component's in its size class
    order = np.argsort(labels, kind="stable")
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    pos = np.empty_like(labels)
    pos[order] = np.arange(len(labels)) - starts[labels[order]]
    slot = np.empty_like(sizes)
    coo = mat.tocoo()
    comp = labels[coo.row]
    ground = np.inf
    for d in np.unique(sizes):
        members = sizes == d
        slot[members] = np.arange(np.count_nonzero(members))
        take = members[comp]
        stack = np.zeros((np.count_nonzero(members), d, d), dtype=mat.dtype)
        stack[slot[comp[take]], pos[coo.row[take]], pos[coo.col[take]]] = coo.data[take]
        ground = min(ground, float(np.linalg.eigvals(stack).real.min()))
    return ground


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
    ground energy, and the (signed) gap ground - E_paired.  The ground
    energy is the least eigenvalue of the dense sector matrix up to
    ``dense_cutoff``; above it, of the matrix's connected components
    (``method`` "blocks") when each fits ``dense_cutoff``, else of a
    Krylov solve (see ``diagonalize_sector``).
    """
    h = build_hamiltonian(table, g, formfactor, seed)
    state = nc_state(table)
    e_total = nc_energy(table)
    residual = eigen_residual(h, state, e_total - table.core_energy)

    sector = table.total_particles_nc() - table.core_particles
    spec = diagonalize_sector(
        h, table, sector, n_lowest=1, dense_cutoff=dense_cutoff, basis_cap=basis_cap,
        seed=seed,
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
    """<psi|H|psi> / <psi|psi>, with H's exact matrix on the occupations
    the state holds, so float amplitudes (``bcs_state``) need no exact
    kernel."""
    occs = sorted(state.amp)
    mat = matrix_in_sector(h, occs, state.n_modes, sparse=True)
    psi = np.array([state.amp[occ] for occ in occs], dtype=np.float64)
    return float(psi @ (mat @ psi) / (psi @ psi))


def pair_energy_form(
    table: ModeTable, g, formfactor: str = "unit", seed: int = 0
) -> tuple[np.ndarray, np.ndarray, float]:
    """Coefficients (L, S, C) of the pair-product energy in closed form.

    With one mixing angle t per shell point (u = cos t, v = sin t) and
    hard-core pairs,

        E(t) = sum_k L_k sin^2 t_k + sum_{k != k'} S_kk' x_k x_k' + C,

    x = sin(2t)/2, where W = (g/volume) G over ``table.shell_all``, L_k =
    eps(k) + eps(2K-k) + W_kk, S is the symmetric part of W with its
    diagonal zeroed, and C is the absolute core energy.
    """
    g_fun, _ = formfactors.from_spec(table, formfactor, seed)
    points = table.shell_all
    pref = Fraction(g) / table.config.volume_fraction
    w = np.array([[float(pref * g_fun(k1, k2)) for k2 in points] for k1 in points])
    pair_eps = [float(table.epsilon(k) + table.epsilon(table.partner(k))) for k in points]
    sym = (w + w.T) / 2
    np.fill_diagonal(sym, 0.0)
    return np.array(pair_eps) + np.diag(w), sym, float(phi_core_energy(table))


def pair_energy(form: tuple[np.ndarray, np.ndarray, float], theta: np.ndarray) -> float:
    """E(theta) of ``pair_energy_form``'s closed form."""
    lin, sym, const = form
    x = np.sin(2 * theta) / 2
    return float(lin @ np.sin(theta) ** 2 + x @ sym @ x) + const


def bcs_variational_energy(
    table: ModeTable, g, formfactor: str = "unit", seed: int = 0
) -> tuple[float, dict]:
    """Minimum of the pair-product energy, with no number constraint.

    Coordinate descent sets each angle to its exact one-angle minimum
    2t_i = atan2(-h_i, L_i/2), h_i = S_i . x (see ``pair_energy_form``),
    until a sweep gains less than 1e-10 or 60 sweeps have run.  It starts
    from t = 0 and seven seeded uniform draws and keeps the best: t = 0 is
    stationary, and gradient descent from the same starts stops in local
    minima that the rotations leave.  Returns the absolute energy and the
    coefficient map.
    """
    form = pair_energy_form(table, g, formfactor, seed)
    lin, sym, _ = form
    points = table.shell_all
    rng = np.random.default_rng(seed)
    starts = [np.zeros(len(points))]
    starts += [rng.uniform(0.0, math.pi, len(points)) for _ in range(7)]
    best_val, best_theta = math.inf, None
    for theta in starts:
        x = np.sin(2 * theta) / 2
        current = pair_energy(form, theta)
        for _ in range(60):
            previous = current
            for i in range(len(points)):
                theta[i] = (math.atan2(-(sym[i] @ x), lin[i] / 2) % (2 * math.pi)) / 2
                x[i] = math.sin(2 * theta[i]) / 2
            current = pair_energy(form, theta)
            if previous - current < 1e-10:
                break
        if current < best_val:
            best_val, best_theta = current, theta

    coeffs = {k: (math.cos(t), math.sin(t)) for k, t in zip(points, best_theta)}
    return best_val, coeffs


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
