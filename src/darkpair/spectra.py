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
    matrix_in_sector,
    residual_squares,
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
    weights, _ = formfactors.from_spec(table, formfactor, seed)
    return build_h0(table) + build_w(table, g, weights)


def diagonalize_sector(
    hamiltonian: OperatorExpr | SectorCOO,
    table: ModeTable,
    n_particles: int,
    n_lowest: int = 6,
    dense_cutoff: int = DENSE_CUTOFF,
    basis_cap: int = BASIS_CAP,
    seed: int = 0,
) -> SectorSpectrum:
    """Eigenvalues of the Hamiltonian restricted to one number sector.

    ``hamiltonian`` is an ``OperatorExpr``, assembled here on
    ``sector_basis`` (``spectrum``), or its matrix on that basis, a
    ``SectorCOO`` assembled by the caller (``scan``, which forms each
    coupling's matrix from entries it assembled once); either way the
    route below is chosen here alone.

    The pairing term moves only time-reversed pairs, so the sector matrix
    splits into many small connected components (``_components``), which
    are solved as stacks of dense blocks (``_component_stacks``):

    - Up to ``dense_cutoff`` (method ``"dense"``): ``eigvalsh`` on every
      block, whatever ``n_lowest``; the sorted union is the full spectrum,
      equal to ``eigvalsh`` of the whole matrix up to rounding (each block
      keeps basis order, so it reads the same lower triangle when H is not
      Hermitian), and no dim x dim array is built.
    - Above it, with ``n_lowest == 1`` (the ground energy alone, as a
      scan asks) and every component within ``dense_cutoff`` (method
      ``"blocks"``): the least real part of the blocks' eigenvalues, the
      quantity the Krylov route reports.
    - Otherwise the lowest ``n_lowest`` eigenvalues, without their
      vectors, from a Krylov solver on the sector matrix converted to CSR,
      with a seeded start vector (so repeated runs agree bit for bit).
      Krylov can return fewer copies of a degenerate eigenvalue than it
      has and then a higher one, so its i-th value need not be the i-th
      eigenvalue.

    A sector too small for the Krylov solver (which needs
    dim > n_lowest + 1) is dense too.
    """
    shift = float(table.core_energy)
    coo = hamiltonian
    if isinstance(hamiltonian, OperatorExpr):
        basis = sector_basis(table.n_modes, n_particles, basis_cap)
        if not len(basis):
            return SectorSpectrum(n_particles, 0, "empty", np.empty(0))
        coo = matrix_in_sector(hamiltonian, basis, table.n_modes)
    dim = coo.dim
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
    del coo, hamiltonian  # unless the caller holds them, the unsummed entries die here

    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    # random:<s> makes H non-Hermitian, so Krylov stays on scipy's complex route;
    # cast in place so no real copy of the matrix lives through the solve
    mat.data = mat.data.astype(np.complex128)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(dim)
    try:
        vals = eigsh(mat, k=n_lowest, which="SA", v0=v0, return_eigenvectors=False)
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
    (``SectorCOO.rounded``'s) with ``np.add.at`` and is divided by ``den``
    once, so it equals that matrix's entry bit for bit.
    """
    coo = coo.rounded()
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


def _matrix_at(h0: SectorCOO, w1: SectorCOO, sums: tuple[Fraction, Fraction],
               g: Fraction) -> SectorCOO:
    """The sector matrix of ``H0 + g W1``: the two unit matrices' numerators
    concatenated over one common denominator, int64 below 2**53 and Python
    ints past it, as ``matrix_in_sector`` keeps them, so every entry is
    the exact rational correctly rounded, as from ``build_hamiltonian(g)``.
    ``sums`` bound each operator's partial sums (see ``scan_g``).
    ``W(0)`` has no terms, so ``g = 0`` gives ``H0``'s entries alone.  New
    arrays each time: the unit matrices are shared by every coupling.
    """
    if g == 0:
        return h0
    den = math.lcm(h0.den, g.denominator * w1.den)
    f0, f1 = den // h0.den, g.numerator * den // (g.denominator * w1.den)
    s0, s1 = sums
    # never below a unit matrix's own bound: one with Python ints stays on them
    wide = max(den, den * (s0 + abs(g) * s1)) >= 1 << 53
    n0, n1 = (n.astype(object) if wide else n for n in (h0.nums, w1.nums))
    return SectorCOO(np.concatenate((h0.rows, w1.rows)),
                     np.concatenate((h0.cols, w1.cols)),
                     np.concatenate((n0 * f0, n1 * f1)), den, h0.dim)


def rayleigh_quotient(h: OperatorExpr, state: StateVector) -> float:
    """<psi|H|psi> / <psi|psi> in float64: H's exact matrix on the
    occupations the state holds, against the amplitudes rounded once
    (each ``num / den`` a correctly rounded Python-int quotient).

    A second route to the exact quotient of ``<psi|H psi>`` and
    ``state.norm2()``: the matrix is assembled on unit amplitudes and the
    sums run in float64, so it checks that quotient, and stays cheap when
    the amplitudes of a ``bcs_state`` built from floats carry large
    denominators."""
    mat = matrix_in_sector(h, state.occs, state.n_modes).tocsr()
    psi = np.array([n / state.den for n in state.nums.tolist()])
    return float(psi @ (mat @ psi) / (psi @ psi))


def pair_energy_form(
    table: ModeTable, g, weights: formfactors.Weights | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Coefficients (L, S, C) of the pair-product energy in closed form.

    With one mixing angle t per shell point (u = cos t, v = sin t) and
    hard-core pairs,

        E(t) = sum_k L_k sin^2 t_k + sum_{k != k'} S_kk' x_k x_k' + C,

    x = sin(2t)/2, where W = (g/volume) G over ``table.shell_all``, each
    entry the exact rational rounded once, L_k = eps(k) + eps(2K-k) + W_kk,
    S is the symmetric part of W with its diagonal zeroed, and C is the
    absolute core energy.  ``weights`` is the G of ``formfactors.from_spec``;
    ``None`` is the unit weight, as in ``operators.build_w``.
    """
    if weights is None:
        weights = formfactors.from_spec(table, "unit")[0]
    pref = Fraction(g) / table.config.volume_fraction
    w = np.array([[float(pref * x) for x in row] for row in weights])
    sym = (w + w.T) / 2
    np.fill_diagonal(sym, 0.0)
    pair_eps = [float(table.epsilon(k) + table.epsilon(table.partner(k)))
                for k in table.shell_all]
    return np.array(pair_eps) + np.diag(w), sym, float(phi_core_energy(table))


def pair_energy(form: tuple[np.ndarray, np.ndarray, float], theta: np.ndarray) -> float:
    """E(theta) of ``pair_energy_form``'s closed form."""
    lin, sym, const = form
    x = np.sin(2 * theta) / 2
    return float(lin @ np.sin(theta) ** 2 + x @ sym @ x) + const


def bcs_variational_energy(
    table: ModeTable, form: tuple[np.ndarray, np.ndarray, float], seed: int = 0
) -> tuple[float, dict]:
    """Minimum of the pair-product energy ``form`` (``pair_energy_form``'s
    coefficients), with no number constraint.

    Coordinate descent sets each angle to its exact one-angle minimum
    2t_i = atan2(-h_i, L_i/2), h_i = S_i . x (see ``pair_energy_form``),
    until a sweep gains less than 1e-10 or 60 sweeps have run.  It starts
    from t = 0 and seven draws seeded by ``seed`` and keeps the best: t = 0
    is stationary, and gradient descent from the same starts stops in
    local minima that the rotations leave.  Returns the absolute energy
    and the coefficient map over ``table.shell_all``.
    """
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
    """One ``SCAN_FIELDS`` row per coupling, sorted by g; E_NC must come out
    constant.

    On a fixed basis ``H(g) = H0 + g W1`` is affine in the coupling, with
    ``W1 = W(g = 1)``, so everything but each coupling's own combination
    and solve is built once per scan: the weight matrix, ``H0`` and
    ``W1``, the paired state ``|NC>`` and its energy, the sector basis (an
    over-cap sector raises ``BasisSizeError`` here, before any solve), the
    sector matrices of ``H0`` and ``W1`` on it and each operator's sum of
    |coefficients| (which bounds every partial sum of an entry), and every
    coupling's ``residual_NC`` from one image each of ``H0 - E_NC`` and
    ``W1`` (``residual_squares``).  Each coupling then forms the matrix of
    ``H0 + g W1`` (``_matrix_at``), solves it with ``diagonalize_sector``
    for the ground energy alone (the least eigenvalue of its connected
    components, see there), and with ``E_var`` minimizes
    ``pair_energy_form`` at ``g`` on the same weight matrix, so every row
    equals the from-scratch route bit for bit.
    """
    weights, _ = formfactors.from_spec(table, formfactor, seed)
    h0, w1 = build_h0(table), build_w(table, 1, weights)
    state = nc_state(table)
    e_nc = nc_energy(table)
    sector = table.total_particles_nc() - table.core_particles
    basis = sector_basis(table.n_modes, sector, basis_cap)
    h0_coo = matrix_in_sector(h0, basis, table.n_modes)
    w1_coo = matrix_in_sector(w1, basis, table.n_modes)
    sums = (h0.one_norm(), w1.one_norm())
    # sorted by float value, then exact: equal floats keep their input order
    couplings = [Fraction(g) for g in sorted(g_values, key=float)]
    a = h0 - OperatorExpr.identity(e_nc - table.core_energy)
    squares = residual_squares(a, w1, state, couplings)
    rows = []
    for g, square in zip(couplings, squares):
        spec = diagonalize_sector(
            _matrix_at(h0_coo, w1_coo, sums, g), table, sector, n_lowest=1,
            dense_cutoff=dense_cutoff, seed=seed)
        rows.append({
            "g": float(g),
            "sector": sector + table.core_particles,
            "dim": spec.dim,
            "E_ground": spec.ground_energy,
            "E_NC": float(e_nc),
            "E_var": (bcs_variational_energy(
                table, pair_energy_form(table, g, weights), seed)[0]
                if with_variational else math.nan),
            "residual_NC": math.sqrt(float(square)) / state.norm() if square else 0.0,
        })
    return rows


def nc_in_spectrum(
    table: ModeTable,
    g,
    formfactor: str = "unit",
    seed: int = 0,
    dense_cutoff: int = DENSE_CUTOFF,
    basis_cap: int = BASIS_CAP,
) -> dict:
    """Locate the paired state's energy within its number sector: the
    ``scan_g`` row of the one coupling ``g``, without ``E_var`` (NaN).

    ``E_ground - E_NC`` is the signed gap; ``residual_NC`` is the
    eigen-residual of H on the paired state.  An over-cap sector raises
    ``BasisSizeError`` before any solve.
    """
    return scan_g(table, [g], formfactor, seed, False, dense_cutoff, basis_cap)[0]


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
