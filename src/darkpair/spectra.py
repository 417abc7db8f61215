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
    SectorCOO,
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
    # ascending, absolute (core energy included): every eigenvalue for "dense",
    # the ground alone for "blocks", the lowest n_lowest for "krylov"
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

    The pairing term moves only time-reversed pairs, so the sector matrix
    splits into many small connected components (``_components``), which
    are solved as stacks of dense blocks (``_component_stacks``):

    - Up to ``dense_cutoff`` (method ``"dense"``): ``eigvalsh`` on every
      block, whatever ``n_lowest``; the sorted union is the full spectrum,
      equal to ``eigvalsh`` of the whole matrix up to rounding (each block
      keeps basis order, so it reads the same lower triangle when H is not
      Hermitian), and no dim x dim array is built.
    - Above it, with ``n_lowest == 1`` (the ground energy alone, as
      ``nc_in_spectrum`` asks) and every component within ``dense_cutoff``
      (method ``"blocks"``): the least real part of the blocks'
      eigenvalues, the quantity the Krylov route reports.
    - Otherwise the lowest ``n_lowest`` eigenvalues from a Krylov solver
      on the sector matrix converted to CSR, with a seeded start vector
      (so repeated runs agree bit for bit).  Krylov can return fewer
      copies of a degenerate eigenvalue than it has and then a higher one,
      so its i-th value need not be the i-th eigenvalue.

    A sector too small for the Krylov solver (which needs
    dim > n_lowest + 1) is dense too.
    """
    basis = sector_basis(table.n_modes, n_particles, basis_cap)
    dim = len(basis)
    shift = float(table.core_energy)
    if dim == 0:
        return SectorSpectrum(n_particles, 0, "empty", np.empty(0))
    coo = matrix_in_sector(hamiltonian, basis, table.n_modes)
    dense = dim <= max(dense_cutoff, n_lowest + 1)
    if dense or n_lowest == 1:
        labels = _components(coo.rows, coo.cols, dim)
        if dense:
            vals = np.concatenate([np.linalg.eigvalsh(stack).ravel()
                                   for stack in _component_stacks(coo, labels)])
            return SectorSpectrum(n_particles, dim, "dense", np.sort(vals) + shift)
        if np.bincount(labels).max() <= dense_cutoff:
            ground = min(float(np.linalg.eigvals(stack).real.min())
                         for stack in _component_stacks(coo, labels))
            return SectorSpectrum(n_particles, dim, "blocks", np.array([ground + shift]))
    mat = coo.tocsr()
    del coo  # the unsummed entries do not live through the solve

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


def _components(rows: np.ndarray, cols: np.ndarray, dim: int) -> np.ndarray:
    """Connected-component label of each of ``dim`` states joined by the
    entries at ``(rows, cols)``: the least state index in its component.

    Labelled on the entries' positions, so an entry whose terms cancel
    still joins its states.  Min-label propagation: every root hooks onto
    the least root it shares an entry with, then pointer jumping points
    every state at its root; each round with an entry across two roots
    removes a root, so the loop ends.
    """
    parent = np.arange(dim)
    while True:
        head, tail = parent[rows], parent[cols]
        if np.array_equal(head, tail):
            return parent
        np.minimum.at(parent, np.maximum(head, tail), np.minimum(head, tail))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand


def _component_stacks(coo: SectorCOO, labels: np.ndarray) -> list[np.ndarray]:
    """The sector matrix's connected components as dense blocks stacked by
    size: one ``(count, d, d)`` float64 array per block size d, ascending,
    its blocks in the order of their least state.

    Each block keeps its states in basis order (a stable sort by label), so
    it is the principal submatrix of ``coo.toarray()`` on those states,
    lower triangle included.  Each block entry sums its integer numerators
    with ``np.add.at`` and is divided by ``den`` once, so it equals that
    matrix's entry bit for bit.
    """
    dim = coo.dim
    sizes = np.bincount(labels, minlength=dim)  # at each root; 0 elsewhere
    roots = np.flatnonzero(sizes)
    roots = roots[np.argsort(sizes[roots], kind="stable")]
    area = sizes[roots] ** 2
    offset = np.zeros(dim, dtype=np.int64)  # of each root's block in ``flat``
    offset[roots] = np.cumsum(area) - area
    order = np.argsort(labels, kind="stable")
    pos = np.empty(dim, dtype=np.int64)  # each state's place in its block
    pos[order] = np.arange(dim) - (np.cumsum(sizes) - sizes)[labels[order]]
    lab = labels[coo.rows]
    flat = np.zeros(int(area.sum()))
    np.add.at(flat, offset[lab] + pos[coo.rows] * sizes[lab] + pos[coo.cols], coo.nums)
    flat /= coo.den
    widths, counts = np.unique(sizes[roots], return_counts=True)
    ends = np.cumsum(counts * widths**2)
    return [flat[end - k * d * d:end].reshape(k, d, d)
            for d, k, end in zip(widths.tolist(), counts.tolist(), ends.tolist())]


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
    energy is the least eigenvalue of the sector matrix's components,
    solved with ``eigvalsh`` up to ``dense_cutoff`` (``method`` "dense")
    and as the least real part of their eigenvalues above it ("blocks")
    when each fits ``dense_cutoff``, else of a Krylov solve (see
    ``diagonalize_sector``).
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
    mat = matrix_in_sector(h, occs, state.n_modes).tocsr()
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
