"""Sector diagonalization, spectral placement, variational ansatz, scans."""

import math
import sys
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkpair import formfactors
from darkpair.cli import bundled_config_path, load_config, write_csv
from darkpair.fock import BasisSizeError, StateVector, sector_basis
from darkpair.lattice import LatticeConfig, build_mode_table
from darkpair.operators import (SectorCOO, apply_operator, build_w, eigen_residual,
                                matrix_in_sector)
from darkpair.spectra import (
    DENSE_CUTOFF,
    SCAN_FIELDS,
    _component_stacks,
    _components,
    bcs_variational_energy,
    build_hamiltonian,
    diagonalize_sector,
    nc_in_spectrum,
    pair_energy,
    pair_energy_form,
    rayleigh_quotient,
    scan_g,
    spectrum_rows,
)
from darkpair.states import bcs_state, nc_energy, nc_state
from state_oracle import DictState, eigen_residual_dict


def test_free_spectrum_is_degenerate_diagonal(minimal_table):
    h = build_hamiltonian(minimal_table, 0)
    spec = diagonalize_sector(h, minimal_table, 2)
    assert spec.method == "dense"
    assert np.allclose(spec.eigenvalues, 2.0)
    assert spec.dim == 6


def test_pairing_block_splitting(minimal_table):
    for g in (Fraction(-1), Fraction(-1, 2), Fraction(3, 4)):
        h = build_hamiltonian(minimal_table, g)
        spec = diagonalize_sector(h, minimal_table, 2)
        expected = sorted([2.0, 2.0, 2.0, 2.0, 2.0, 2.0 + 2.0 * float(g)])
        assert np.allclose(spec.eigenvalues, expected, atol=1e-12)


def test_dense_eigenpair_residuals(minimal_table):
    h = build_hamiltonian(minimal_table, Fraction(-1))
    spec = diagonalize_sector(h, minimal_table, 2)
    mat = matrix_in_sector(h, sector_basis(4, 2), 4).toarray()
    vals, vecs = np.linalg.eigh(mat)
    assert np.allclose(vals + float(minimal_table.core_energy), spec.eigenvalues,
                       atol=1e-12)
    for idx in range(spec.dim):
        v = vecs[:, idx]
        lam = spec.eigenvalues[idx] - float(minimal_table.core_energy)
        assert np.linalg.norm(mat @ v - lam * v) <= 1e-10


def test_dense_and_krylov_agree(threepair_table):
    h = build_hamiltonian(threepair_table, Fraction(-1))
    dense = diagonalize_sector(h, threepair_table, 6)
    krylov = diagonalize_sector(h, threepair_table, 6, dense_cutoff=1, n_lowest=4,
                                seed=5)
    assert dense.method == "dense" and krylov.method == "krylov"
    assert dense.dim == math.comb(12, 6) == 924
    rel = abs(dense.eigenvalues[0] - krylov.eigenvalues[0]) / abs(
        dense.eigenvalues[0]
    )
    assert rel <= 1e-9


def test_sector_too_small_for_krylov_is_dense(minimal_table):
    h = build_hamiltonian(minimal_table, Fraction(-1))
    spec = diagonalize_sector(h, minimal_table, 2, dense_cutoff=1)
    assert spec.method == "dense" and spec.dim == 6
    assert np.allclose(spec.eigenvalues, [0.0, 2.0, 2.0, 2.0, 2.0, 2.0])


def test_krylov_nonconvergence_reports_best_value(threepair_table, arpack_gives_up):
    from darkpair.spectra import ConvergenceError

    h = build_hamiltonian(threepair_table, Fraction(-1))
    core = float(threepair_table.core_energy)
    # one partial eigenpair: its value, shifted by the core, and its residual
    matrices = arpack_gives_up([-1.5])
    with pytest.raises(ConvergenceError) as err:
        diagonalize_sector(h, threepair_table, 6, dense_cutoff=1, n_lowest=4, seed=5)
    (mat,) = matrices
    vec = np.full(mat.shape[0], mat.shape[0] ** -0.5)
    assert err.value.best_value == -1.5 + core
    assert err.value.residual == np.linalg.norm(mat @ vec + 1.5 * vec) > 0.0
    # none: no best value, an infinite residual
    arpack_gives_up([])
    with pytest.raises(ConvergenceError, match="no converged eigenvalues") as err:
        diagonalize_sector(h, threepair_table, 6, dense_cutoff=1, n_lowest=4, seed=5)
    assert math.isnan(err.value.best_value) and err.value.residual == math.inf


# The threepair sector 6 (dim 924) splits into its seniority blocks: the
# unbroken-pair block of C(6,3) = 20 states, 60 of 6, 240 of 2 and 64 of 1.
# A cutoff of 20 sends the ground energy through the block route.
THREEPAIR_BLOCK_SIZES = {20: 1, 6: 60, 2: 240, 1: 64}


@pytest.mark.parametrize("formfactor", ["unit", "random:13", "asymmetric:2"])
def test_block_ground_equals_the_dense_ground(threepair_table, formfactor):
    h = build_hamiltonian(threepair_table, Fraction(-1), formfactor, seed=3)
    blocks = diagonalize_sector(h, threepair_table, 6, n_lowest=1, dense_cutoff=20)
    assert blocks.method == "blocks" and blocks.dim == 924
    assert len(blocks.eigenvalues) == 1
    mat = matrix_in_sector(h, sector_basis(12, 6), 12).toarray()
    core = float(threepair_table.core_energy)
    # random and asymmetric weights make H non-Hermitian; the ground energy
    # is then the least real part of its eigenvalues, as Krylov reports it
    want = np.linalg.eigvals(mat).real.min() + core
    assert abs(blocks.ground_energy - want) <= 1e-10
    if formfactor == "unit":
        dense = diagonalize_sector(h, threepair_table, 6)
        assert dense.method == "dense"
        assert abs(blocks.ground_energy - dense.ground_energy) <= 1e-10


def test_components_are_the_seniority_blocks(threepair_table):
    h = build_hamiltonian(threepair_table, Fraction(-1), "random:13")
    coo = matrix_in_sector(h, sector_basis(12, 6), 12)
    labels = _components(coo.rows, coo.cols, coo.dim)
    assert np.array_equal(labels[coo.rows], labels[coo.cols])
    sizes, counts = np.unique(np.unique(labels, return_counts=True)[1],
                              return_counts=True)
    assert dict(zip(sizes.tolist(), counts.tolist())) == THREEPAIR_BLOCK_SIZES


def test_an_explicit_zero_joins_its_rows_into_one_component():
    # rows 0 and 1 share only an entry whose two terms cancel; row 2 stands alone
    coo = SectorCOO(np.array([0, 0, 0, 1, 2]), np.array([0, 1, 1, 1, 2]),
                    np.array([1, 1, -1, 2, 3]), 1, 3)
    assert coo.nnz == 4 and coo.toarray()[0, 1] == 0.0
    labels = _components(coo.rows, coo.cols, coo.dim)
    assert labels[0] == labels[1] != labels[2]


@st.composite
def entry_patterns(draw):
    """A state count and the rows, columns and numerators of entries on it:
    few enough that some rows stay isolated, each entry stored twice with
    opposite numerators when ``cancel`` is drawn, and optionally a chain
    through every state in shuffled order, its links listed shuffled too."""
    dim = draw(st.integers(1, 40))
    state = st.integers(0, dim - 1)
    pairs = draw(st.lists(st.tuples(state, state), max_size=dim))
    if draw(st.booleans()):
        path = draw(st.permutations(range(dim)))
        pairs += list(zip(path, path[1:]))
    pairs = draw(st.permutations(pairs))
    nums = [1] * len(pairs)
    if draw(st.booleans()):  # cancel
        pairs, nums = pairs + pairs, nums + [-1] * len(pairs)
    rows = np.array([r for r, _ in pairs], dtype=np.int32)
    cols = np.array([c for _, c in pairs], dtype=np.int32)
    return SectorCOO(rows, cols, np.array(nums, dtype=np.int64), 1, dim)


@given(entry_patterns())
@settings(max_examples=300, deadline=None)
def test_components_equal_scipy_connected_components(coo):
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    labels = _components(coo.rows, coo.cols, coo.dim)
    pattern = coo_matrix((np.ones(len(coo.rows)), (coo.rows, coo.cols)),
                         shape=(coo.dim, coo.dim))
    want = connected_components(pattern, directed=False)[1]
    least = np.array([np.flatnonzero(want == w).min() for w in want])
    assert np.array_equal(labels, least)


def _shell16():
    # the 16-mode |n|^2 = 3 shell: sector 8 (dim 12,870) has blocks of at
    # most 70 states
    return build_mode_table(LatticeConfig(kf=math.sqrt(3), delta=0.05,
                                          frozen_core=True, volume=1))


def test_block_ground_equals_krylov_on_the_16_mode_shell():
    table = _shell16()
    h = build_hamiltonian(table, Fraction(-1, 2), "random:106", seed=5)
    blocks = diagonalize_sector(h, table, 8, n_lowest=1, seed=5)
    krylov = diagonalize_sector(h, table, 8, seed=5)
    assert blocks.method == "blocks" and krylov.method == "krylov"
    assert blocks.dim == krylov.dim == 12870
    assert abs(blocks.ground_energy - krylov.ground_energy) <= 1e-9


@pytest.mark.parametrize("formfactor", ["unit", "random:13", "asymmetric:2"])
def test_block_route_falls_back_to_krylov_above_the_cutoff(threepair_table, formfactor):
    # the 20-state block exceeds a cutoff of 19; the fallback asks Krylov
    # for the one lowest value, which on a non-Hermitian H is again the
    # least real part of the eigenvalues
    h = build_hamiltonian(threepair_table, Fraction(-1), formfactor, seed=3)
    spec = diagonalize_sector(h, threepair_table, 6, n_lowest=1, dense_cutoff=19,
                              seed=5)
    assert spec.method == "krylov" and len(spec.eigenvalues) == 1
    mat = matrix_in_sector(h, sector_basis(12, 6), 12).toarray()
    want = np.linalg.eigvals(mat).real.min() + float(threepair_table.core_energy)
    assert abs(spec.ground_energy - want) <= 1e-9


def test_over_cap_spectrum_raises_inside_diagonalize_sector(threepair_table):
    # spectrum assembles its one matrix inside diagonalize_sector, so an
    # over-cap sector fails there, where the benchmark tracer counts it
    with pytest.raises(BasisSizeError) as err:
        spectrum_rows(threepair_table, Fraction(-1), basis_cap=923)
    assert "diagonalize_sector" in [entry.name for entry in err.traceback]


def test_over_cap_scan_raises_in_its_setup_before_any_solve(threepair_table,
                                                            monkeypatch):
    # a scan builds its sector basis once, before its first coupling
    solves = count_calls(monkeypatch, "diagonalize_sector")
    for place in (lambda: nc_in_spectrum(threepair_table, Fraction(-1), basis_cap=923),
                  lambda: scan_g(threepair_table, [-1, 1], basis_cap=923)):
        with pytest.raises(BasisSizeError) as err:
            place()
        assert "scan_g" in [entry.name for entry in err.traceback]
    assert solves == []


# ---------------------------------------------------------------------------
# the real float64 routes against the complex ones they replaced
# ---------------------------------------------------------------------------

BUNDLED = ("minimal", "twopair", "threepair_core", "boosted", "broken_formfactor")


@pytest.mark.parametrize("csr", [False, True])
def test_sector_matrix_is_real(threepair_table, csr):
    h = build_hamiltonian(threepair_table, Fraction(-1, 3), "random:13", seed=13)
    coo = matrix_in_sector(h, sector_basis(12, 6), 12)
    mat = coo.tocsr() if csr else coo.toarray()
    assert mat.dtype == np.float64


@pytest.mark.parametrize("name", BUNDLED)
def test_dense_spectrum_equals_complex_eigvalsh(name):
    cfg = load_config(bundled_config_path(name))
    table = cfg["table"]
    core = float(table.core_energy)
    for g in cfg["couplings"]:
        h = build_hamiltonian(table, g, cfg["formfactor"], cfg["seed"])
        for n in range(table.n_modes + 1):
            spec = diagonalize_sector(h, table, n)
            assert spec.method == "dense"
            mat = matrix_in_sector(h, sector_basis(table.n_modes, n),
                                   table.n_modes).toarray()
            want = np.linalg.eigvalsh(mat.astype(np.complex128)) + core
            scale = np.maximum(1.0, np.abs(want))
            assert np.all(np.abs(spec.eigenvalues - want) <= 1e-12 * scale), (g, n)


@pytest.mark.parametrize("lattice, sector, cutoff, formfactor", [
    ("threepair", 6, 20, "unit"),
    ("threepair", 6, 20, "random:13"),
    ("threepair", 6, 20, "asymmetric:2"),
    ("shell16", 8, 70, "random:106"),
])
def test_block_ground_equals_complex_stacks(threepair_table, lattice, sector, cutoff,
                                            formfactor):
    table = threepair_table if lattice == "threepair" else _shell16()
    h = build_hamiltonian(table, Fraction(-1, 2), formfactor, seed=5)
    spec = diagonalize_sector(h, table, sector, n_lowest=1, dense_cutoff=cutoff)
    assert spec.method == "blocks"
    coo = matrix_in_sector(h, sector_basis(table.n_modes, sector), table.n_modes)
    stacks = _component_stacks(coo, _components(coo.rows, coo.cols, coo.dim))
    want = min(np.linalg.eigvals(s.astype(np.complex128)).real.min() for s in stacks)
    assert abs(spec.ground_energy - float(table.core_energy) - want) <= 1e-10


@pytest.mark.parametrize("name", BUNDLED)
def test_dense_ground_equals_the_full_eigvalsh_minimum(name):
    """The ground-only dense route, solved component by component, against
    ``eigvalsh`` of the whole sector matrix."""
    cfg = load_config(bundled_config_path(name))
    table = cfg["table"]
    for g in cfg["couplings"]:
        h = build_hamiltonian(table, g, cfg["formfactor"], cfg["seed"])
        for n in range(table.n_modes + 1):
            spec = diagonalize_sector(h, table, n, n_lowest=1)
            assert spec.method == "dense"
            mat = matrix_in_sector(h, sector_basis(table.n_modes, n),
                                   table.n_modes).toarray()
            want = np.linalg.eigvalsh(mat).min() + float(table.core_energy)
            assert abs(spec.ground_energy - want) <= 1e-12 * max(1.0, abs(want)), (g, n)


def test_component_stacks_are_the_dense_blocks_bit_for_bit(threepair_table):
    h = build_hamiltonian(threepair_table, Fraction(-1, 3), "random:13", seed=13)
    coo = matrix_in_sector(h, sector_basis(12, 6), 12)
    labels = _components(coo.rows, coo.cols, coo.dim)
    dense = coo.toarray()
    sizes = np.bincount(labels, minlength=coo.dim)
    roots = np.flatnonzero(sizes)
    roots = roots[np.argsort(sizes[roots], kind="stable")]
    blocks = [dense[np.ix_(labels == r, labels == r)] for r in roots]
    got = np.concatenate([s.ravel() for s in _component_stacks(coo, labels)])
    want = np.concatenate([b.ravel() for b in blocks])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("formfactor", ["unit", "random:13"])
def test_krylov_equals_complex_eigsh_bit_for_bit(threepair_table, formfactor):
    from scipy.sparse.linalg import eigsh

    h = build_hamiltonian(threepair_table, Fraction(-1), formfactor, seed=13)
    spec = diagonalize_sector(h, threepair_table, 6, dense_cutoff=1, n_lowest=4,
                              seed=5)
    assert spec.method == "krylov"
    mat = matrix_in_sector(h, sector_basis(12, 6), 12).tocsr()
    v0 = np.random.default_rng(5).standard_normal(mat.shape[0])
    vals = eigsh(mat.astype(np.complex128), k=4, which="SA", v0=v0,
                 return_eigenvectors=False)
    want = np.sort(vals).real + float(threepair_table.core_energy)
    assert spec.eigenvalues.tobytes() == want.tobytes()


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="Python 3.10 keeps call arguments on the caller's stack")
def test_krylov_route_frees_a_passed_matrix_before_the_solve(threepair_table, monkeypatch):
    import scipy.sparse.linalg

    h = build_hamiltonian(threepair_table, Fraction(-1))
    eigsh, made, alive = scipy.sparse.linalg.eigsh, [], []

    def matrix():
        coo = matrix_in_sector(h, sector_basis(12, 6), 12)
        made.append(weakref.ref(coo))
        return coo

    def solve(*args, **kwargs):
        alive.append(made[0]() is not None)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", solve)
    spec = diagonalize_sector(matrix(), threepair_table, 6, dense_cutoff=1, n_lowest=4,
                              seed=5)
    assert spec.method == "krylov" and alive == [False]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: random:<s> is not Hermitian")
@pytest.mark.parametrize("name", ["twopair", "threepair_core"])
def test_ground_energy_does_not_depend_on_the_dense_cutoff(name):
    """Dense eigvalsh reads one triangle of the sector matrix; the block
    route takes the least real part of H's eigenvalues.  The two agree
    only when H is Hermitian."""
    cfg = load_config(bundled_config_path(name))
    table, couplings = cfg["table"], cfg["couplings"]
    dense = scan_g(table, couplings, cfg["formfactor"], cfg["seed"],
                   with_variational=False)
    blocks = scan_g(table, couplings, cfg["formfactor"], cfg["seed"],
                    with_variational=False, dense_cutoff=20)
    for d, b in zip(dense, blocks, strict=True):
        assert abs(d["E_ground"] - b["E_ground"]) <= 1e-9, d["g"]


def test_nc_in_spectrum_minimal(minimal_table):
    for g in (Fraction(-1), Fraction(-1, 2)):
        rec = nc_in_spectrum(minimal_table, g)
        assert rec["residual_NC"] <= 1e-12
        assert rec["E_NC"] == 2.0
        # exact 2x2 block: ground sits 2|g|/volume below the paired level
        assert math.isclose(rec["E_ground"], 2.0 + 2.0 * float(g), abs_tol=1e-10)
        assert rec["E_ground"] - rec["E_NC"] < -1e-12
    rec = nc_in_spectrum(minimal_table, Fraction(1))
    # paired level ties the ground level at g > 0
    assert abs(rec["E_ground"] - rec["E_NC"]) <= 1e-12
    assert rec["residual_NC"] <= 1e-12


def test_nc_strictly_above_ground_for_attraction(twopair_table):
    for g in (Fraction(-1), Fraction(-1, 2)):
        rec = nc_in_spectrum(twopair_table, g)
        assert rec["E_ground"] < rec["E_NC"] - 1e-10
        assert rec["residual_NC"] <= 1e-12


def test_nc_in_spectrum_reports_sign_without_asserting_for_repulsion(
    twopair_table,
):
    rec = nc_in_spectrum(twopair_table, Fraction(1))
    assert math.isfinite(rec["E_ground"] - rec["E_NC"])
    assert rec["residual_NC"] <= 1e-12


def test_rayleigh_quotient_of_fermi_state(minimal_table):
    h = build_hamiltonian(minimal_table, Fraction(-1))
    full = StateVector(4, {0b1111: 1})  # both shell points inside kf = 1.2
    value = rayleigh_quotient(h, full)
    # 4 particles at eps=1 plus the four diagonal pairing terms at g=-1
    assert math.isclose(value, 4.0 - 2.0, abs_tol=1e-12)


@pytest.mark.parametrize("name", BUNDLED)
def test_rayleigh_quotient_equals_exact_expectation(name):
    """The sector-matrix quotient against <psi|H|psi> / <psi|psi> summed
    exactly by the operator kernel, on the paired state, the filled shell
    and a pair product that mixes number sectors."""
    cfg = load_config(bundled_config_path(name))
    table = build_mode_table(cfg["lattice"])
    filled = StateVector(table.n_modes, {(1 << table.n_modes) - 1: 1})
    mixed = bcs_state(table, {k: (Fraction(3, 5), Fraction(4, 5))
                              for k in table.shell_all})
    for g in cfg["couplings"]:
        h = build_hamiltonian(table, g, cfg["formfactor"], cfg["seed"])
        for state in (nc_state(table), filled, mixed):
            psi = DictState.of(state)
            want = float(psi.inner(DictState.of(apply_operator(h, state))) / state.norm2())
            assert rayleigh_quotient(h, state) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_variational_free_limit(minimal_table):
    energy, coeffs = bcs_variational_energy(
        minimal_table, pair_energy_form(minimal_table, 0), seed=1)
    # with eps > 0 and no chemical potential the family minimum is empty
    assert math.isclose(energy, 0.0, abs_tol=1e-8)
    for u, v in coeffs.values():
        assert abs(v) < 1e-4


def test_variational_is_feasible_point_bound(minimal_table):
    g = Fraction(-3)
    energy, _ = bcs_variational_energy(
        minimal_table, pair_energy_form(minimal_table, g), seed=2)
    h = build_hamiltonian(minimal_table, g)
    paired = bcs_state(minimal_table, {k: (0.0, 1.0) for k in minimal_table.shell_all})
    assert energy <= rayleigh_quotient(h, paired) + 1e-9


def test_variational_above_global_ground(minimal_table):
    g = Fraction(-3)
    energy, _ = bcs_variational_energy(
        minimal_table, pair_energy_form(minimal_table, g), seed=2)
    h = build_hamiltonian(minimal_table, g)
    global_ground = min(
        diagonalize_sector(h, minimal_table, n).ground_energy
        for n in range(0, minimal_table.n_modes + 1)
    )
    assert energy >= global_ground - 1e-9


def test_variational_nonincreasing_with_attraction(minimal_table):
    values = [
        bcs_variational_energy(minimal_table, pair_energy_form(minimal_table, g),
                               seed=3)[0]
        for g in (Fraction(-1), Fraction(-2), Fraction(-4))
    ]
    assert values[0] >= values[1] - 1e-8 >= values[2] - 2e-8


BUNDLED = ("minimal", "twopair", "threepair_core", "boosted", "broken_formfactor")
# A live inner point and a chemical potential, so C and L both shift.
UNFROZEN_MU = LatticeConfig(
    kf=1.2, delta=0.5, mu=1.5, volume=1,
    shell_points=((0, 0, 1), (0, 0, -1), (0, 1, 0), (0, -1, 0)),
)


def _variational_cases():
    """(name, table, couplings, formfactor, seed) for every bundled config
    and the unfrozen lattice with a chemical potential."""
    cases = []
    for name in BUNDLED:
        cfg = load_config(bundled_config_path(name))
        cases.append((name, build_mode_table(cfg["lattice"]), cfg["couplings"],
                      cfg["formfactor"], cfg["seed"]))
    cases.append(("unfrozen_mu", build_mode_table(UNFROZEN_MU),
                  [Fraction(-1), Fraction(1, 2)], "random:5", 4))
    return cases


def _form(table, g, formfactor, seed):
    """``pair_energy_form`` on the weight matrix of ``formfactor``."""
    return pair_energy_form(table, g, formfactors.from_spec(table, formfactor, seed)[0])


def _symbolic_energy(table, g, formfactor, seed, coeffs):
    """Absolute energy of the pair product through the symbolic path."""
    h = build_hamiltonian(table, g, formfactor, seed)
    return rayleigh_quotient(h, bcs_state(table, coeffs)) + float(table.core_energy)


def test_closed_form_equals_symbolic_rayleigh_quotient():
    rng = np.random.default_rng(0)
    for name, table, couplings, formfactor, seed in _variational_cases():
        for g in [*couplings, Fraction(-3)]:
            form = _form(table, g, formfactor, seed)
            for _ in range(3):
                theta = rng.uniform(0.0, math.pi, len(table.shell_all))
                coeffs = {k: (math.cos(t), math.sin(t))
                          for k, t in zip(table.shell_all, theta)}
                expected = _symbolic_energy(table, g, formfactor, seed, coeffs)
                assert pair_energy(form, theta) == pytest.approx(
                    expected, rel=0, abs=1e-12), (name, g)


def test_variational_coeffs_reproduce_energy():
    for name, table, couplings, formfactor, seed in _variational_cases():
        for g in [*couplings, Fraction(-3)]:
            energy, coeffs = bcs_variational_energy(
                table, _form(table, g, formfactor, seed), seed)
            expected = _symbolic_energy(table, g, formfactor, seed, coeffs)
            assert energy == pytest.approx(expected, rel=0, abs=1e-12), (name, g)


# bcs_variational_energy of _form(table, g, formfactor, seed) as the Brent
# line search over the symbolic Rayleigh quotient computed it,
# before the closed form replaced that path.
RECORDED_E_VAR = {
    ("minimal", Fraction(-1)): 0.0,
    ("minimal", Fraction(-1, 2)): 0.0,
    ("minimal", Fraction(1, 2)): 0.0,
    ("minimal", Fraction(1)): 0.0,
    ("minimal", Fraction(-3)): -2.666666666666667,
    ("twopair", Fraction(-1)): -1.6484598681661078,
    ("twopair", Fraction(-1, 2)): -0.022258742107410842,
    ("twopair", Fraction(1, 2)): 0.0,
    ("twopair", Fraction(1)): 0.0,
    ("twopair", Fraction(-3)): -12.030450394499763,
    ("threepair_core", Fraction(-1)): -8.88220773518243,
    ("threepair_core", Fraction(-1, 2)): -2.2305614603210917,
    ("threepair_core", Fraction(1, 2)): 0.0,
    ("threepair_core", Fraction(1)): 0.0,
    ("threepair_core", Fraction(-3)): -38.10584308935407,
    ("boosted", Fraction(-1)): 2.0,
    ("boosted", Fraction(-1, 2)): 2.0,
    ("boosted", Fraction(1, 2)): 2.0,
    ("boosted", Fraction(1)): 2.0,
    ("boosted", Fraction(-3)): 1.3333333333333335,
    ("broken_formfactor", Fraction(-1)): -0.8389194990763604,
    ("broken_formfactor", Fraction(1)): 0.0,
    ("broken_formfactor", Fraction(-3)): -7.675215534470751,
    ("unfrozen_mu", Fraction(-1)): -13.872931008777066,
    ("unfrozen_mu", Fraction(1, 2)): -4.241611996251172,
    ("unfrozen_mu", Fraction(-3)): -29.257489890254078,
}


def test_variational_energy_matches_recorded_values():
    seen = set()
    for name, table, couplings, formfactor, seed in _variational_cases():
        for g in [*couplings, Fraction(-3)]:
            energy, _ = bcs_variational_energy(
                table, _form(table, g, formfactor, seed), seed)
            assert energy == pytest.approx(
                RECORDED_E_VAR[name, g], rel=0, abs=1e-9), (name, g)
            seen.add((name, g))
    assert seen == set(RECORDED_E_VAR)


def test_scan_g_constant_nc_column(minimal_table):
    rows = scan_g(
        minimal_table,
        [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)],
        with_variational=False,
    )
    assert [row["g"] for row in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert len({row["E_NC"] for row in rows}) == 1
    for row in rows:
        assert math.isclose(
            row["E_ground"], 2.0 + min(0.0, 2.0 * row["g"]), abs_tol=1e-10
        )
        assert row["residual_NC"] <= 1e-12
    g0 = next(row for row in rows if row["g"] == 0.0)
    assert math.isclose(g0["E_ground"], 2.0, abs_tol=1e-12)


def count_calls(monkeypatch, name: str) -> list:
    """Replace ``darkpair.spectra.<name>`` by a wrapper that records each
    call's ``(args, kwargs)`` in the returned list."""
    import darkpair.spectra as spectra

    calls, original = [], getattr(spectra, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(spectra, name, counted)
    return calls


# past 2**53 once over a common denominator with any unit matrix
WIDE_G = Fraction(3**34 + 1, 3**34)
ORACLE_COUPLINGS = [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2),
                    Fraction(1), WIDE_G]


def default_volume_twopair() -> dict:
    """The twopair geometry in the default box: the volume (2 pi)**3 is a
    float cubed as a Fraction, so even the unit-coupling matrices take the
    Python-int route."""
    table = build_mode_table(LatticeConfig(
        kf=1.2, delta=0.5, frozen_core=True,
        shell_points=((0, 0, 1), (0, 0, -1), (0, 1, 0), (0, -1, 0))))
    return {"table": table, "formfactor": "random:11", "seed": 11,
            "dense_cutoff": DENSE_CUTOFF}


@pytest.mark.parametrize("name", [*BUNDLED, "default_volume_twopair"])
def test_scan_rows_equal_the_from_scratch_route_bit_for_bit(name, monkeypatch):
    """Each scan row against ``build_hamiltonian(g)`` assembled and solved
    on its own, each coupling's matrix (as the scan hands it to
    ``diagonalize_sector``) against its dense form, and each
    ``nc_in_spectrum`` record against its scan row."""
    if name == "default_volume_twopair":
        cfg = default_volume_twopair()
    else:
        cfg = load_config(bundled_config_path(name))
    table, formfactor, seed = cfg["table"], cfg["formfactor"], cfg["seed"]
    sector = table.total_particles_nc() - table.core_particles
    basis = sector_basis(table.n_modes, sector)
    state, e_nc = nc_state(table), nc_energy(table)
    weights, _ = formfactors.from_spec(table, formfactor, seed)
    w1 = matrix_in_sector(build_w(table, 1, weights), basis, table.n_modes)
    solves = count_calls(monkeypatch, "diagonalize_sector")
    rows = scan_g(table, ORACLE_COUPLINGS, formfactor, seed)
    assert [row["g"] for row in rows] == [float(g) for g in ORACLE_COUPLINGS]
    wide = []
    for g, row, (args, _) in zip(ORACLE_COUPLINGS, rows, list(solves), strict=True):
        h = build_hamiltonian(table, g, formfactor, seed)
        coo = args[0]
        wide.append(coo.nums.dtype == object)
        got, want = coo.toarray(), matrix_in_sector(h, basis, table.n_modes).toarray()
        assert got.tobytes() == want.tobytes(), g
        spec = diagonalize_sector(h, table, sector, n_lowest=1,
                                  dense_cutoff=cfg["dense_cutoff"], seed=seed)
        assert row["E_ground"].hex() == spec.ground_energy.hex(), g
        residual = eigen_residual(h, state, e_nc - table.core_energy)
        assert row["residual_NC"].hex() == residual.hex(), g
        oracle = eigen_residual_dict(h, DictState.of(state), e_nc - table.core_energy)
        assert residual.hex() == oracle.hex(), g
        e_var, _ = bcs_variational_energy(
            table, pair_energy_form(table, g, weights), seed)
        assert row["E_var"].hex() == e_var.hex(), g
        rec = nc_in_spectrum(table, g, formfactor, seed)
        assert math.isnan(rec.pop("E_var"))
        assert rec == {key: row[key] for key in SCAN_FIELDS if key != "E_var"}, g
        assert row["E_NC"] == float(e_nc) and row["dim"] == len(basis)
        if name == "broken_formfactor":  # W does not leave |NC> dark
            assert row["residual_NC"] == pytest.approx(float(abs(g)) / 3, rel=1e-15)
        else:
            assert row["residual_NC"] == 0.0
    # the wide coupling, and with a float volume W1 itself, take the Python-int route
    assert wide[-1] and wide[0] == (w1.nums.dtype == object)
    assert (w1.nums.dtype == object) == (name == "default_volume_twopair")


# E_var of scan_g on default_volume_twopair, recorded as hex: the volume
# (2 pi)**3 is a float cubed, so every W entry is rounded from a rational
# with a large denominator.  The oracle couplings leave the empty product
# best; the strong ones pair.
FLOAT_VOLUME_E_VAR = {
    **{g: "0x0.0p+0" for g in ORACLE_COUPLINGS},
    Fraction(-250): "-0x1.aee52580c15b4p+0",
    Fraction(-1000, 3): "-0x1.a229945dc50cep+1",
    Fraction(-1000): "-0x1.1b0defc221b2fp+4",
}


def test_float_volume_e_var_bytes_are_pinned():
    cfg = default_volume_twopair()
    couplings = sorted(FLOAT_VOLUME_E_VAR)
    rows = scan_g(cfg["table"], couplings, cfg["formfactor"], cfg["seed"])
    assert [row["E_var"].hex() for row in rows] == [
        FLOAT_VOLUME_E_VAR[g] for g in couplings]


def test_scan_reuses_no_coupling_s_arrays(threepair_table):
    # g = -1 flips the sign of W1's numerators; an in-place scaling of the
    # shared unit matrices would carry into both g = 1 rows
    rows = scan_g(threepair_table, [1, -1, 1], "random:13", 13)
    assert [row["g"] for row in rows] == [-1.0, 1.0, 1.0]
    assert rows[1] == rows[2] == scan_g(threepair_table, [1], "random:13", 13)[0]


def test_scan_assembles_twice_and_solves_once_per_coupling(threepair_table,
                                                            monkeypatch):
    solves = count_calls(monkeypatch, "diagonalize_sector")
    assemblies = count_calls(monkeypatch, "matrix_in_sector")
    couplings = [Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1)]
    scan_g(threepair_table, couplings, "random:13", 13, with_variational=False)
    assert len(solves) == len(couplings) and len(assemblies) == 2
    assert all(isinstance(args[0], SectorCOO) for args, _ in solves)


def test_scan_csv_shape(minimal_table):
    rows = scan_g(minimal_table, [Fraction(-1)], with_variational=False)
    text = write_csv(SCAN_FIELDS, rows)
    lines = text.splitlines()
    assert lines[0] == "g,sector,dim,E_ground,E_NC,E_var,residual_NC"
    assert len(lines) == 2


def test_spectrum_rows_listing(twopair_table):
    rows = spectrum_rows(twopair_table, Fraction(-1))
    assert len(rows) == math.comb(8, 4)
    vals = [row["eigenvalue"] for row in rows]
    assert vals == sorted(vals)
    assert rows[0]["sector"] == 6  # 4 table particles + 2 frozen core


def test_frozen_core_energy_shift():
    # boosted single pair: core carries 2 particles of energy 1 each
    table = build_mode_table(
        LatticeConfig(kf=1.2, delta=0.5, boost=(0, 0, 1), frozen_core=True,
                      shell_points=((0, 0, 2), (0, 0, 0)), volume=1)
    )
    rec = nc_in_spectrum(table, Fraction(-1))
    # pair energy eps(0,0,2) + eps(0,0,0) = 4, core adds 2
    assert rec["E_NC"] == float(nc_energy(table)) == 6.0
    assert rec["residual_NC"] <= 1e-12
    spec = diagonalize_sector(build_hamiltonian(table, Fraction(-1)), table, 2)
    # sector ground is both particles parked on the zero-energy drift point
    # (not an interaction pair), shifted by the core energy 2
    assert math.isclose(spec.ground_energy, 2.0, abs_tol=1e-10)
    # table-space spectrum: {0, 4+2g, 4, 4, 4, 8} plus the core shift
    assert np.allclose(spec.eigenvalues, [2.0, 4.0, 6.0, 6.0, 6.0, 10.0])
