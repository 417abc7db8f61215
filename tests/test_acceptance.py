"""Acceptance battery: the exit criteria for this engine, one test per
criterion, each printing a pass/fail line (run with -s to see them live).

Tolerances are pinned here and nowhere else: symbolic identities are
exact (tolerance zero on rational arithmetic), state-vector residuals
are 1e-12 relative, the hand-derived two-level splitting is 1e-10.
"""

import json
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np

from darkpair.fock import StateVector
from darkpair.formfactors import from_spec
from darkpair.lattice import LatticeConfig, build_mode_table
from darkpair.operators import (
    ANNIHILATE,
    CREATE,
    OperatorExpr,
    apply_operator,
    build_gamma,
    build_momentum_op,
    build_number_op,
    build_pair,
    build_w,
    commutator,
    pair_commutator_rhs,
)
from darkpair.spectra import build_hamiltonian, nc_in_spectrum
from darkpair.states import nc_energy, nc_momentum, nc_state
from darkpair.verify import (
    continuum_energy_check,
    counting_energy,
    quadrature_energy_per_particle,
    run_battery,
)
from normal_order import normal_ordered
from scalar_signs import apply_raw_factors
from state_oracle import DictState

G_VALUES = [Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1)]
LAMBDA_VALUES = [Fraction(-1), Fraction(0), Fraction(1), Fraction(2), Fraction(7, 3)]
FORMFACTORS = ["unit", "random:1", "random:2", "random:3"]

LATTICES = {
    "one-pair": LatticeConfig(
        kf=1.2, delta=0.5, frozen_core=True,
        shell_points=((0, 0, 1), (0, 0, -1)), volume=1,
    ),
    "two-pair": LatticeConfig(
        kf=1.2, delta=0.5, frozen_core=True,
        shell_points=((0, 0, 1), (0, 0, -1), (0, 1, 0), (0, -1, 0)), volume=1,
    ),
    "three-pair-core": LatticeConfig(kf=1.0, delta=0.25, frozen_core=True, volume=1),
    "one-pair-boosted": LatticeConfig(
        kf=1.2, delta=0.5, boost=(0, 0, 1), frozen_core=True,
        shell_points=((0, 0, 2), (0, 0, 0)), volume=1,
    ),
}


def announce(number, passed, text):
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {number}: {text}")
    assert passed, f"criterion {number} failed: {text}"


def test_criterion_1_dark_state_identity():
    """Interaction annihilates the paired state on every lattice, coupling,
    and symmetric weight; exactly zero on the rational path; < 10 s."""
    start = time.perf_counter()
    worst = 0.0
    exact_everywhere = True
    for name, cfg in LATTICES.items():
        table = build_mode_table(cfg)
        state = nc_state(table)
        for ff in FORMFACTORS:
            weights, _ = from_spec(table, ff)
            for g in G_VALUES:
                w = build_w(table, g, weights)
                image = apply_operator(w, state)
                exact_everywhere &= len(image) == 0
                resid = (
                    0.0 if len(image) == 0
                    else image.norm() / (float(w.one_norm()) * state.norm())
                )
                worst = max(worst, resid)
    elapsed = time.perf_counter() - start
    announce(
        1,
        worst <= 1e-12 and exact_everywhere and elapsed < 10.0,
        f"dark-state residual max {worst:.1e} (exact zero: {exact_everywhere}) "
        f"on {len(LATTICES)} lattices x {len(G_VALUES)} couplings x "
        f"{len(FORMFACTORS)} weights in {elapsed:.2f}s",
    )


def test_criterion_2_symbolic_commutators():
    """Pair commutators match their closed forms as exact term maps; the
    antisymmetric pair creators anticommute-negate and commute; core
    commutators vanish.  Zero tolerance, < 5 s."""
    start = time.perf_counter()
    ok = True
    for name in ("one-pair", "two-pair", "three-pair-core"):
        table = build_mode_table(LATTICES[name])
        weights, _ = from_spec(table, "random:5")
        w = build_w(table, Fraction(-2, 3), weights)
        for k in table.shell_plus:
            for lam in LAMBDA_VALUES:
                lhs = commutator(w, build_pair(table, k, lam))
                rhs = pair_commutator_rhs(table, k, lam, Fraction(-2, 3), weights)
                ok &= lhs == rhs
            gamma_form = pair_commutator_rhs(
                table, k, Fraction(-1), Fraction(-2, 3), weights
            )
            ok &= commutator(w, build_gamma(table, k)) == gamma_form
            ok &= build_gamma(table, table.partner(k)) == -build_gamma(table, k)
            for kp in table.shell_plus:
                ok &= commutator(
                    build_gamma(table, k), build_gamma(table, kp)
                ).is_zero()

    # core commutators on the thawed one-pair lattice
    table = build_mode_table(replace(LATTICES["one-pair"], frozen_core=False))
    phi = OperatorExpr.from_monomial(
        Fraction(1),
        ((CREATE, table.mode_index(0, (0, 0, 0))),
         (CREATE, table.mode_index(1, (0, 0, 0)))),
    )
    w = build_w(table, Fraction(1))
    ok &= commutator(w, phi).is_zero()
    for k in table.shell_plus:
        ok &= commutator(commutator(w, build_gamma(table, k)), phi).is_zero()

    elapsed = time.perf_counter() - start
    announce(
        2,
        ok and elapsed < 5.0,
        f"all symbolic commutator identities exact in {elapsed:.2f}s",
    )


def test_criterion_3_eigenvalue_properties():
    """Particle number, momentum (at rest and boosted), and the full
    Hamiltonian for every coupling, all with residual <= 1e-12."""
    worst = 0.0
    for name, cfg in LATTICES.items():
        table = build_mode_table(cfg)
        state = nc_state(table)
        norm = state.norm()

        def residual(op, value):
            """``|| op|NC> - value |NC> ||`` summed on the dictionary oracle."""
            diff = DictState.of(apply_operator(op, state)) - DictState.of(state).scaled(value)
            return diff.norm() / norm

        n_table = table.total_particles_nc() - table.core_particles
        worst = max(worst, residual(build_number_op(table), n_table))

        p_ops = build_momentum_op(table)
        p_expect = nc_momentum(table)
        for axis in range(3):
            p_table = p_expect[axis] - table.core_momentum[axis]
            worst = max(worst, residual(p_ops[axis], p_table))

        e_table = nc_energy(table) - table.core_energy
        for g in G_VALUES:
            worst = max(worst, residual(build_hamiltonian(table, g), e_table))
    announce(3, worst <= 1e-12, f"eigenvalue residual max {worst:.1e}")


def test_criterion_4_spectral_placement():
    """Minimal lattice: exact two-level splitting to 1e-10, paired level
    strictly above ground for attraction (gap 2|g|/volume); two-pair
    lattice: strict inequality; repulsion: sign reported, not asserted."""
    ok = True
    table = build_mode_table(LATTICES["one-pair"])
    for g in G_VALUES:
        rec = nc_in_spectrum(table, g)
        expected_ground = 2.0 + min(0.0, 2.0 * float(g))
        ok &= abs(rec["E_ground"] - expected_ground) <= 1e-10
        if g < 0:
            ok &= abs((rec["E_NC"] - rec["E_ground"]) - 2.0 * abs(float(g))) <= 1e-10

    two = build_mode_table(LATTICES["two-pair"])
    for g in (Fraction(-1), Fraction(-1, 2)):
        rec = nc_in_spectrum(two, g)
        ok &= rec["E_ground"] < rec["E_NC"] - 1e-10

    gaps = {}
    for g in (Fraction(1, 2), Fraction(1)):
        rec = nc_in_spectrum(two, g)
        gaps[float(g)] = rec["E_ground"] - rec["E_NC"]
    announce(
        4,
        ok,
        f"two-level splitting exact to 1e-10; repulsive E_ground - E_NC {gaps} "
        "(reported, not asserted)",
    )


def test_criterion_5_continuum_energy():
    """Counting converges to the quadrature oracle with order >= 1; at
    delta/kf = 0.1 the closed form deviates from the oracle by the
    archived margin; ~1e6-point grids stay under 60 s."""
    start = time.perf_counter()

    oracle = quadrature_energy_per_particle(1.0, 0.1)
    assert abs(oracle - 0.6410679611650485) < 1e-14  # archived oracle value

    sizes = [4, 6, 8, 12, 16, 24, 32, 48, 64]
    errs = [
        abs(counting_energy(1.0, 0.1, s)["energy_per_particle"] - oracle) / oracle
        for s in sizes
    ]
    order = -np.polyfit(np.log(sizes), np.log(errs), 1)[0]

    # delta -> 0: counting approaches the filled-sphere value 0.6 * Ef
    tiny = counting_energy(1.0, 0.02, 48)["energy_per_particle"]
    small_delta_ok = abs(tiny - 0.6) / 0.6 < 6e-3

    rows = continuum_energy_check(1.0, 0.1, [56, 64])
    big = rows[-1]
    reading_gap = abs(big["closed_form"] - big["quadrature_oracle"]) / big[
        "quadrature_oracle"
    ]
    elapsed = time.perf_counter() - start
    announce(
        5,
        order >= 1.0 and small_delta_ok and big["grid_points"] > 1_000_000
        and elapsed < 60.0 and 0.025 < reading_gap < 0.035,
        f"convergence order {order:.2f}, closed-form vs oracle gap "
        f"{reading_gap:.4f} at delta/kf=0.1, {big['grid_points']} points "
        f"in {elapsed:.1f}s",
    )


def test_criterion_6_infrastructure():
    """>= 1000 randomized anticommutation and normal-ordering equivalence
    cases on M <= 6; byte-identical repeated runs."""
    rng = np.random.default_rng(2024)
    n_modes = 6

    anticommutation_cases = 0
    for _ in range(1000):
        occ = int(rng.integers(0, 1 << n_modes))
        i = int(rng.integers(0, n_modes))
        j = int(rng.integers(0, n_modes))
        s = StateVector(n_modes, {occ: 1})
        a_i = OperatorExpr.from_monomial(1, [(ANNIHILATE, i)])
        c_j = OperatorExpr.from_monomial(1, [(CREATE, j)])
        anti = (DictState.of(apply_operator(a_i, apply_operator(c_j, s)))
                + DictState.of(apply_operator(c_j, apply_operator(a_i, s))))
        assert anti.amp == ({occ: 1} if i == j else {})
        anticommutation_cases += 1

    normal_order_cases = 0
    for _ in range(1000):
        degree = int(rng.integers(0, 6))
        factors = tuple(
            (CREATE if rng.integers(0, 2) else ANNIHILATE,
             int(rng.integers(0, n_modes)))
            for _ in range(degree)
        )
        # the raw product is compose of one-factor operators
        expr = OperatorExpr.identity()
        for factor in factors:
            expr = expr.compose(OperatorExpr.from_monomial(1, [factor]))
        assert expr == normal_ordered([(Fraction(1), factors)])
        for occ in (int(x) for x in rng.integers(0, 1 << n_modes, size=8)):
            raw = apply_raw_factors(n_modes, factors, occ)
            expected = {} if raw is None else {raw[1]: raw[0]}
            got = apply_operator(expr, StateVector(n_modes, {occ: 1}))
            assert got.amp == expected
        normal_order_cases += 1

    # determinism: identical seeds, identical bytes
    table = build_mode_table(LATTICES["one-pair"])
    j1 = run_battery(table, G_VALUES, LAMBDA_VALUES, formfactor="random:9",
                     seed=9).to_json()
    j2 = run_battery(table, G_VALUES, LAMBDA_VALUES, formfactor="random:9",
                     seed=9).to_json()
    assert j1 == j2 and json.loads(j1)["all_passed"]

    announce(
        6,
        anticommutation_cases >= 1000 and normal_order_cases >= 1000,
        f"{anticommutation_cases} anticommutation + {normal_order_cases} "
        "normal-ordering cases, reruns byte-identical",
    )
