"""Named state constructions and their eigen-properties."""

import math
from fractions import Fraction

import pytest

from darkpair.formfactors import from_spec
from darkpair.lattice import SPIN_DOWN, SPIN_UP, LatticeConfig, build_mode_table
from darkpair.operators import (
    CREATE,
    OperatorExpr,
    apply_operator,
    build_gamma,
    build_h0,
    build_momentum_op,
    build_number_op,
    build_w,
)
from darkpair.states import (
    bcs_state,
    nc_energy,
    nc_momentum,
    nc_state,
    phi_core,
)
from scalar_signs import apply_create


def test_phi_core_unfrozen(minimal_unfrozen_table):
    core = phi_core(minimal_unfrozen_table)
    assert core.amp == {0b110000: 1}


def test_phi_core_frozen(minimal_table):
    assert phi_core(minimal_table).amp == {0: 1}
    assert minimal_table.core_particles == 2
    assert minimal_table.core_energy == 0


def test_nc_state_single_pair(minimal_table):
    nc = nc_state(minimal_table)
    assert nc.amp == {0b1001: 1, 0b0110: 1}
    assert nc.norm2() == 2


def hand_built_two_pair_expectation(table):
    """Expand the two commuting pair creators from first principles."""
    n = table.n_modes
    plus = table.shell_plus
    terms = {0: 1}
    for k in plus:
        pk = table.partner(k)
        branches = [
            (1, (table.mode_index(1, pk), table.mode_index(0, k))),
            (-1, (table.mode_index(1, k), table.mode_index(0, pk))),
        ]
        new_terms = {}
        for occ, amp in terms.items():
            for branch_sign, modes in branches:
                cur, sign, dead = occ, 1, False
                for mode in modes:  # rightmost factor first
                    step = apply_create(n, mode, cur)
                    if step is None:
                        dead = True
                        break
                    s, cur = step
                    sign *= s
                if not dead:
                    new_terms[cur] = new_terms.get(cur, 0) + amp * branch_sign * sign
        terms = {k2: v for k2, v in new_terms.items() if v != 0}
    return terms


def test_nc_state_two_pairs_matches_hand_expansion(twopair_table):
    nc = nc_state(twopair_table)
    assert nc.norm2() == 4
    assert all(abs(a) == 1 for a in nc.amp.values())
    assert nc.amp == hand_built_two_pair_expectation(twopair_table)
    # frozen expected occupations for this mode order
    expected = dict.fromkeys([0b10100101, 0b01100110, 0b10011001, 0b01011010], 1)
    assert nc.amp == expected


def test_nc_state_three_pairs_norm(threepair_table):
    nc = nc_state(threepair_table)
    assert nc.norm2() == 8
    assert len(nc) == 8


def gamma_product(table, points):
    """Antisymmetric pair creators of ``points`` on the filled core, the
    last point's applied first."""
    state = phi_core(table)
    for k in reversed(points):
        state = apply_operator(build_gamma(table, k), state)
    return state


def test_nc_state_order_independent(twopair_table):
    plus = twopair_table.shell_plus
    assert gamma_product(twopair_table, plus) == nc_state(twopair_table)
    assert gamma_product(twopair_table, plus[::-1]) == nc_state(twopair_table)


def test_nc_state_partial_shell_is_still_dark(twopair_table):
    partial = gamma_product(twopair_table, twopair_table.shell_plus[:1])
    assert len(partial) == 2
    for g in (Fraction(-1), Fraction(1, 2)):
        w = build_w(twopair_table, g)
        assert len(apply_operator(w, partial)) == 0


def test_nc_dark_for_all_couplings_and_symmetric_weights(threepair_table):
    nc = nc_state(threepair_table)
    for seed in (1, 2, 3):
        weights, _ = from_spec(threepair_table, f"random:{seed}")
        for g in (Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1)):
            w = build_w(threepair_table, g, weights)
            image = apply_operator(w, nc)
            assert len(image) == 0
            assert nc.inner(image) == 0  # expectation value vanishes too


def test_nc_h0_eigenstate_exact(threepair_table):
    nc = nc_state(threepair_table)
    h0 = build_h0(threepair_table)
    e_table = nc_energy(threepair_table) - threepair_table.core_energy
    diff = apply_operator(h0, nc) - nc.scaled(e_table)
    assert len(diff) == 0
    assert nc_energy(threepair_table) == 6  # 3 pairs at |n|^2 = 1, core at 0


def test_nc_number_eigenstate(twopair_table):
    nc = nc_state(twopair_table)
    n_op = build_number_op(twopair_table)
    diff = apply_operator(n_op, nc) - nc.scaled(4)
    assert len(diff) == 0
    assert twopair_table.total_particles_nc() == 6  # 4 paired + 2 frozen core


def test_nc_zero_momentum_at_rest(threepair_table):
    nc = nc_state(threepair_table)
    for p in build_momentum_op(threepair_table):
        assert len(apply_operator(p, nc)) == 0
    assert nc_momentum(threepair_table) == (0, 0, 0)


def test_boosted_nc_momentum(boosted_table):
    nc = nc_state(boosted_table)
    _, _, pz = build_momentum_op(boosted_table)
    # table modes carry total particles minus the frozen core
    table_pz = nc_momentum(boosted_table)[2] - boosted_table.core_momentum[2]
    assert table_pz == 2
    diff = apply_operator(pz, nc) - nc.scaled(table_pz)
    assert len(diff) == 0
    n_op = build_number_op(boosted_table)
    diff = apply_operator(n_op, nc) - nc.scaled(2)
    assert len(diff) == 0
    assert boosted_table.total_particles_nc() == 4
    assert nc_momentum(boosted_table) == (0, 0, 4)


def test_boosted_nc_dark(boosted_table):
    nc = nc_state(boosted_table)
    for g in (Fraction(-1), Fraction(1)):
        assert len(apply_operator(build_w(boosted_table, g), nc)) == 0


def test_bcs_identity_coefficients(minimal_table):
    coeffs = {k: (1.0, 0.0) for k in minimal_table.shell_all}
    assert bcs_state(minimal_table, coeffs) == phi_core(minimal_table)


def test_bcs_fully_paired(minimal_table):
    coeffs = {k: (0.0, 1.0) for k in minimal_table.shell_all}
    state = bcs_state(minimal_table, coeffs)
    assert set(state.amp) == {0b1111}
    assert abs(state.amp[0b1111]) == 1


def test_bcs_equal_mixture_signs(minimal_table):
    r = 1 / math.sqrt(2)
    coeffs = {k: (r, r) for k in minimal_table.shell_all}
    state = bcs_state(minimal_table, coeffs)
    assert set(state.amp) == {0b0000, 0b1001, 0b0110, 0b1111}
    half = 0.5
    assert math.isclose(state.amp[0b0000], half)
    assert math.isclose(state.amp[0b1001], half)
    assert math.isclose(state.amp[0b0110], -half)
    assert math.isclose(state.amp[0b1111], -half)
    assert {occ.bit_count() for occ in state.amp} == {0, 2, 4}


EXACT_PAIR_COEFFS = [(Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5)),
                     (Fraction(5, 13), Fraction(-12, 13)),
                     (math.cos(0.7), math.sin(0.7))]


@pytest.mark.parametrize("table_name", ["minimal_table", "twopair_table"])
def test_bcs_state_equals_exact_pair_product(request, table_name):
    """The pair product is the exact Prod_k (u_k + v_k a+_up,k a+_dn,pk)|core>
    built with the operator kernels, float coefficients taken as the exact
    binary rationals they hold."""
    table = request.getfixturevalue(table_name)
    for shift in range(len(EXACT_PAIR_COEFFS)):
        coeffs = {k: EXACT_PAIR_COEFFS[(i + shift) % len(EXACT_PAIR_COEFFS)]
                  for i, k in enumerate(table.shell_all)}
        want = phi_core(table)
        for k in table.shell_all:
            u, v = map(Fraction, coeffs[k])
            pair = OperatorExpr.from_monomial(v, (
                (CREATE, table.mode_index(SPIN_UP, k)),
                (CREATE, table.mode_index(SPIN_DOWN, table.partner(k)))))
            want = apply_operator(OperatorExpr.identity(u) + pair, want)
        got = bcs_state(table, coeffs)
        assert got == want
        assert len(got) == 2 ** len(table.shell_all)
        assert all(type(a) is Fraction for a in got.amp.values())


def test_bcs_rejects_unnormalized(minimal_table):
    coeffs = {k: (1.0, 1.0) for k in minimal_table.shell_all}
    with pytest.raises(ValueError):
        bcs_state(minimal_table, coeffs)


def test_bcs_requires_full_shell_coverage(minimal_table):
    coeffs = {(0, 0, 1): (1.0, 0.0)}
    with pytest.raises(ValueError):
        bcs_state(minimal_table, coeffs)
