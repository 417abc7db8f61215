"""Fermionic sign bookkeeping and sparse state vectors."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkpair.fock import BasisSizeError, StateVector, mode_bit, sector_basis
from darkpair.operators import ANNIHILATE, CREATE, OperatorExpr, apply_operator


def factor(kind, i):
    return OperatorExpr.from_monomial(1, [(kind, i)])


def fire(n_modes, kind, i, occ):
    """One factor through the operator engine: ``(sign, occ)``, or None
    where it kills the state."""
    out = apply_operator(factor(kind, i), StateVector(n_modes, {occ: 1}))
    return next(((a, res) for res, a in out.amp.items()), None)


def create(n_modes, i, occ):
    return fire(n_modes, CREATE, i, occ)


def annihilate(n_modes, i, occ):
    return fire(n_modes, ANNIHILATE, i, occ)


def test_create_examples():
    assert create(4, 3, 0b0000) == (1, 0b0001)
    assert create(4, 0, 0b0001) == (1, 0b1001)
    assert create(4, 2, 0b0100) == (-1, 0b0110)
    assert create(4, 3, 0b0001) is None


def test_annihilate_examples():
    assert annihilate(4, 3, 0b1001) == (-1, 0b1000)
    assert annihilate(4, 0, 0b1001) == (1, 0b0001)
    assert annihilate(4, 2, 0b1001) is None


def test_create_then_annihilate_is_identity():
    for occ in range(16):
        for i in range(4):
            created = create(4, i, occ)
            if created is None:
                continue
            s1, mid = created
            s2, back = annihilate(4, i, mid)
            assert back == occ and s1 * s2 == 1


def test_creation_order_antisymmetry():
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            si, a = create(4, i, 0)
            sj, ab = create(4, j, a)
            sj2, b = create(4, j, 0)
            si2, ba = create(4, i, b)
            assert ab == ba
            assert si * sj == -sj2 * si2


@settings(max_examples=300, deadline=None)
@given(
    n_modes=st.integers(2, 6),
    i=st.integers(0, 5),
    j=st.integers(0, 5),
    occ=st.integers(0, 63),
)
def test_anticommutation_property(n_modes, i, j, occ):
    """{a_i, a+_j} acting on any state equals delta_ij times the state."""
    i %= n_modes
    j %= n_modes
    occ &= (1 << n_modes) - 1
    s = StateVector(n_modes, {occ: 1})
    a_i, c_j = factor(ANNIHILATE, i), factor(CREATE, j)
    anti = (apply_operator(a_i, apply_operator(c_j, s))
            + apply_operator(c_j, apply_operator(a_i, s)))
    assert anti.amp == ({occ: 1} if i == j else {})


def test_sector_basis_enumeration():
    for n_modes, n, want in ((4, 2, [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]),
                             (4, 0, [0]), (4, 5, []), (4, -1, [])):
        basis = sector_basis(n_modes, n)
        assert basis.dtype == np.uint64 and basis.tolist() == want
    assert len(sector_basis(16, 8)) == 12870


def test_sector_basis_sorted_and_correct_popcount():
    basis = sector_basis(6, 3)
    assert basis.dtype == np.uint64
    occs = basis.tolist()
    assert occs == sorted(occs)
    assert all(occ.bit_count() == 3 for occ in occs)
    assert len(occs) == math.comb(6, 3)


def test_sector_basis_equals_brute_force():
    for m in range(9):
        for n in range(-1, m + 2):
            basis = sector_basis(m, n)
            assert basis.dtype == np.uint64
            assert basis.tolist() == [occ for occ in range(1 << m) if occ.bit_count() == n]
    top = sector_basis(64, 2)  # the highest bit of the uint64 word
    assert top.dtype == np.uint64
    top = top.tolist()
    assert len(top) == math.comb(64, 2) and top == sorted(set(top))
    assert top[-1] == 3 << 62


def test_sector_basis_rejects_more_than_64_modes():
    # past the uint64 word the top bits would wrap: (65, 1) ended in the
    # vacuum and (66, 2) repeated states
    for n_modes, n in ((65, 1), (66, 2), (65, 70)):
        with pytest.raises(ValueError, match="exceeds 64"):
            sector_basis(n_modes, n, cap=10**6)


def test_sector_basis_cap():
    with pytest.raises(BasisSizeError):
        sector_basis(30, 15, cap=1000)


def test_inner_product_examples():
    vac = StateVector.vacuum(4)
    assert vac.inner(vac) == 1
    a = StateVector(4, {0b1001: 1, 0b0110: 1})
    b = StateVector(4, {0b1001: 1, 0b0110: -1})
    assert a.inner(b) == 0
    assert a.inner(a) == 2


def test_inner_product_conjugate_symmetric():
    a = StateVector(3, {0b100: Fraction(1, 2), 0b010: -3})
    b = StateVector(3, {0b100: Fraction(-2, 7), 0b010: Fraction(5, 3), 0b001: 4})
    assert a.inner(b) == b.inner(a) == Fraction(-1, 7) - 5


def test_inner_product_positive_definite():
    a = StateVector(3, {0b101: Fraction(1, 3), 0b010: -2})
    assert a.norm2() > 0
    assert StateVector(3).norm2() == 0


def test_mode_count_mismatch_raises():
    with pytest.raises(ValueError):
        StateVector(3).inner(StateVector(4))


def test_exact_zero_amplitudes_are_dropped():
    v = StateVector(4)
    v.add_term(0b1001, Fraction(1))
    v.add_term(0b1001, Fraction(-1))
    assert len(v) == 0
    assert v == StateVector(4)
    # tiny amplitudes are not zeros: they stay stored
    assert len(StateVector(4, {0b1000: 1e-16, 0b0001: 1.0})) == 2


def test_norm_independent_of_insertion_order():
    terms = [(0b1100, 0.1), (0b0011, 0.7), (0b1001, -0.3)]
    v1 = StateVector(4)
    v2 = StateVector(4)
    for occ, a in terms:
        v1.add_term(occ, a)
    for occ, a in reversed(terms):
        v2.add_term(occ, a)
    assert v1.norm2() == v2.norm2()
    assert v1 == v2


def test_bitstring_conventions():
    # mode 0 is the leftmost character, of the packed int and of the repr
    occ = 0b1000
    assert occ == mode_bit(4, 0)
    assert repr(StateVector(4, {occ: 1})) == "StateVector(1|1000>)"
    s, res = create(4, 1, occ)
    assert f"{res:04b}" == "1100"
    assert s == -1
