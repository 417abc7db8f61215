"""Normal ordering, commutators, model operator builders, sector matrices."""

import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkpair import formfactors, operators
from darkpair.cli import bundled_config_path, load_config
from darkpair.fock import StateVector, sector_basis
from darkpair.lattice import LatticeConfig, build_mode_table
from darkpair.operators import (
    ANNIHILATE,
    CREATE,
    DEGREE_CAP,
    DegreeCapError,
    OperatorExpr,
    ShellDomainError,
    _compile,
    _values,
    apply_operator,
    build_gamma,
    build_h0,
    build_momentum_op,
    build_number_op,
    build_pair,
    build_w,
    commutator,
    eigen_residual,
    image_norm,
    matrix_in_sector,
    pair_commutator_rhs,
)
from darkpair.states import nc_state, phi_core
from darkpair.verify import relative_dark_residual
from normal_order import factors, key, normal_ordered
from pair_closed_form import pair_commutator_monomials
from scalar_signs import apply_raw_factors
from state_oracle import (
    DictState,
    apply_compiled,
    apply_dict,
    dark_residual_dict,
    eigen_residual_dict,
)


def C(m):
    return (CREATE, m)


def A(m):
    return (ANNIHILATE, m)


# ---------------------------------------------------------------------------
# normal ordering: the rewriting oracle, and from_monomials against it
# ---------------------------------------------------------------------------

def test_normal_order_single_contraction():
    expr = normal_ordered([(Fraction(1), (A(0), C(0)))])
    assert expr.terms == {(0, 0): Fraction(1), key((C(0), A(0))): Fraction(-1)}


def test_normal_order_block_sort():
    expr = OperatorExpr.from_monomial(Fraction(1), (C(1), C(0)))
    assert expr.terms == {key((C(0), C(1))): Fraction(-1)} == {(0b11, 0): Fraction(-1)}


def test_normal_order_nilpotent_chain():
    expr = normal_ordered([(Fraction(1), (A(3), C(3), C(0), A(3)))])
    assert expr.terms == {key((C(0), A(3))): Fraction(1)}


def test_an_annihilation_before_a_creation_is_rejected():
    for raw in ((A(0), C(0)), (C(1), A(0), C(2)), (A(3), C(3), C(0), A(3))):
        with pytest.raises(ValueError, match="compose"):
            OperatorExpr.from_monomial(Fraction(1), raw)
    # the raw product is compose of one-factor operators
    a0, c0 = (OperatorExpr.from_monomial(1, (f,)) for f in (A(0), C(0)))
    assert a0.compose(c0) == normal_ordered([(1, (A(0), C(0)))])


def states_equal_on_all_occupations(n_modes, monomials, expr):
    """``expr`` acts on every occupation as the sum of the raw factor
    strings of ``monomials``, ``(coeff, factors)`` pairs."""
    for occ in range(1 << n_modes):
        direct = {}
        for coeff, raw_factors in monomials:
            raw = apply_raw_factors(n_modes, raw_factors, occ)
            if raw is not None:
                direct[raw[1]] = direct.get(raw[1], 0) + coeff * raw[0]
        via = apply_operator(expr, StateVector(n_modes, {occ: 1}))
        assert via.amp == {k: v for k, v in direct.items() if v != 0}, (
            monomials, occ)


def test_normal_order_nilpotent_chain_action_matches():
    raw = (A(3), C(3), C(0), A(3))
    monos = [(Fraction(1), raw)]
    states_equal_on_all_occupations(4, monos, normal_ordered(monos))


@st.composite
def monomials(draw):
    degree = draw(st.integers(0, 5))
    return tuple(
        (draw(st.sampled_from([CREATE, ANNIHILATE])), draw(st.integers(0, 5)))
        for _ in range(degree)
    )


@settings(max_examples=300, deadline=None)
@given(raw_factors=monomials())
def test_normal_order_preserves_action(raw_factors):
    expr = normal_ordered([(Fraction(1), raw_factors)])
    for occ in range(64):
        raw = apply_raw_factors(6, raw_factors, occ)
        expected = {}
        if raw is not None and raw[0] != 0:
            expected[raw[1]] = raw[0]
        via = apply_operator(expr, StateVector(6, {occ: 1}))
        assert via.amp == expected


BLOCK_POOLS = [range(6), range(3), (0, 3, 63, 64, 100, 130), range(60, 70)]


@st.composite
def ordered_monomials(draw):
    """Monomials of creations then annihilations, each block permuted and
    possibly repeating a mode, with a cap they may exceed by one."""
    pool = draw(st.sampled_from(BLOCK_POOLS))
    cap = draw(st.integers(0, DEGREE_CAP + 1))
    monos = []
    for _ in range(draw(st.integers(1, 4))):
        n_c = draw(st.integers(0, cap + 1))
        n_a = draw(st.integers(0, cap + 1 - n_c))
        creates, annihilates = (draw(st.lists(st.sampled_from(pool), min_size=n,
                                              max_size=n)) for n in (n_c, n_a))
        coeff = draw(st.sampled_from([Fraction(1), Fraction(-2, 3), 0]))
        monos.append((coeff, tuple(map(C, creates)) + tuple(map(A, annihilates))))
    return monos, cap


@settings(max_examples=300, deadline=None)
@given(problem=ordered_monomials())
def test_from_monomials_equals_the_rewriter(problem):
    monos, cap = problem
    if any(c and len(f) > cap for c, f in monos):
        for build in (OperatorExpr.from_monomials, normal_ordered):
            with pytest.raises(DegreeCapError, match=f"exceeds cap {cap}$"):
                build(monos, cap)
        return
    got = OperatorExpr.from_monomials(monos, cap)
    assert got == normal_ordered(monos, cap)
    assert all(type(c) is Fraction for c in got.terms.values())
    if all(m < 6 for _, f in monos for _, m in f):
        states_equal_on_all_occupations(6, monos, got)


def test_degree_cap():
    with pytest.raises(DegreeCapError):
        OperatorExpr.from_monomial(Fraction(1), tuple(C(i) for i in range(9)))
    with pytest.raises(DegreeCapError):
        a = OperatorExpr.from_monomial(Fraction(1), tuple(C(i) for i in range(5)))
        b = OperatorExpr.from_monomial(Fraction(1), tuple(C(i) for i in range(5, 10)))
        a.compose(b)


@st.composite
def small_exprs(draw):
    n_terms = draw(st.integers(1, 2))
    monos = []
    for _ in range(n_terms):
        coeff = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        degree = draw(st.integers(1, 2))
        factors = tuple(
            (draw(st.sampled_from([CREATE, ANNIHILATE])), draw(st.integers(0, 3)))
            for _ in range(degree)
        )
        monos.append((coeff, factors))
    return normal_ordered(monos)


@settings(max_examples=150, deadline=None)
@given(a=small_exprs(), b=small_exprs())
def test_commutator_antisymmetry(a, b):
    assert commutator(a, b) == -commutator(b, a)


@settings(max_examples=60, deadline=None)
@given(a=small_exprs(), b=small_exprs(), c=small_exprs())
def test_jacobi_identity(a, b, c):
    total = (
        commutator(a, commutator(b, c))
        + commutator(b, commutator(c, a))
        + commutator(c, commutator(a, b))
    )
    assert total.is_zero()


@settings(max_examples=100, deadline=None)
@given(a=small_exprs(), b=small_exprs(), occ=st.integers(0, 15))
def test_compose_action_matches_sequential_application(a, b, occ):
    v = StateVector(4, {occ: 1})
    assert apply_operator(a.compose(b), v) == apply_operator(
        a, apply_operator(b, v))


@settings(max_examples=100, deadline=None)
@given(a=small_exprs(), b=small_exprs(), occ=st.integers(0, 15))
def test_commutator_action_matches_state_level(a, b, occ):
    v = StateVector(4, {occ: 1})
    lhs = apply_operator(commutator(a, b), v)
    rhs = (DictState.of(apply_operator(a, apply_operator(b, v)))
           - DictState.of(apply_operator(b, apply_operator(a, v))))
    assert lhs == rhs.record()


@settings(max_examples=100, deadline=None)
@given(a=small_exprs(), occ1=st.integers(0, 15), occ2=st.integers(0, 15))
def test_apply_operator_is_linear(a, occ1, occ2):
    v1 = StateVector(4, {occ1: Fraction(2, 3)})
    v2 = StateVector(4, {occ2: Fraction(-1, 2)})
    combined = apply_operator(a, (DictState.of(v1) + DictState.of(v2)).record())
    assert DictState.of(combined) == (DictState.of(apply_operator(a, v1))
                                      + DictState.of(apply_operator(a, v2)))


# ---------------------------------------------------------------------------
# compose against normal ordering of the raw products, and both against
# sympy's Wick expansion
# ---------------------------------------------------------------------------

COMPOSE_COEFFS = {
    "int": st.integers(-3, 3).filter(bool),
    "fraction": st.fractions(-3, 3, max_denominator=4).filter(bool),
}
MODE_POOLS = [range(5), range(62, 67), (0, 3, 63, 64, 100, 130), range(60, 80)]


@st.composite
def compose_operands(draw, coeff, pool, max_degree):
    monos = [(draw(coeff), tuple(draw(st.lists(
        st.tuples(st.sampled_from([CREATE, ANNIHILATE]), st.sampled_from(pool)),
        max_size=max_degree)))) for _ in range(draw(st.integers(1, 3)))]
    return normal_ordered(monos, cap=max_degree)


def raw_products(a, b):
    """The monomials of ``a * b`` before normal ordering: each pair of
    terms' factors side by side."""
    return [(c1 * c2, factors(t1) + factors(t2))
            for t1, c1 in a.terms.items() for t2, c2 in b.terms.items()]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_compose_equals_normal_ordered_products(data):
    kinds = data.draw(st.sets(st.sampled_from(sorted(COMPOSE_COEFFS)), min_size=1))
    coeff = st.one_of(*(COMPOSE_COEFFS[k] for k in sorted(kinds)))
    pool = data.draw(st.sampled_from(MODE_POOLS))
    degree = data.draw(st.sampled_from([2, 4, 9]))  # 9 + 9 = 18 factors
    a = data.draw(compose_operands(coeff, pool, degree))
    b = data.draw(compose_operands(coeff, pool, degree))
    cap = data.draw(st.integers(0, 2 * degree))
    products = raw_products(a, b)
    if any(len(t) > cap for _, t in products):
        with pytest.raises(DegreeCapError):
            a.compose(b, cap)
        return
    got = a.compose(b, cap)
    assert got == normal_ordered(products, cap)
    assert all(type(c) is Fraction for c in got.terms.values())


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_commutator_equals_both_orders_of_products(data):
    kinds = data.draw(st.sets(st.sampled_from(sorted(COMPOSE_COEFFS)), min_size=1))
    coeff = st.one_of(*(COMPOSE_COEFFS[k] for k in sorted(kinds)))
    pool = data.draw(st.sampled_from(MODE_POOLS))
    degree = data.draw(st.sampled_from([2, 4, 9]))
    a = data.draw(compose_operands(coeff, pool, degree))
    b = data.draw(compose_operands(coeff, pool, degree))
    cap = data.draw(st.integers(0, 2 * degree))
    ab, ba = raw_products(a, b), raw_products(b, a)
    if any(len(t) > cap for _, t in ab):
        with pytest.raises(DegreeCapError) as got:
            commutator(a, b, cap)
        with pytest.raises(DegreeCapError) as want:
            a.compose(b, cap)
        assert str(got.value) == str(want.value)
        return
    got = commutator(a, b, cap)
    assert got == normal_ordered(ab, cap) - normal_ordered(ba, cap)
    assert got == a.compose(b, cap) - b.compose(a, cap)
    assert all(type(c) is Fraction for c in got.terms.values())


@pytest.mark.parametrize("coeff", [Fraction(2, 3), 2])
def test_commutator_of_an_operator_with_itself_is_empty(coeff):
    x = OperatorExpr.from_monomials([(coeff, (C(0), C(3), A(1))),
                                     (coeff * 3, (C(2), A(0))), (coeff, (A(2),))])
    assert commutator(x, x).terms == {}


@pytest.mark.parametrize("coeff", [Fraction(2, 3), 2])
def test_commutator_drops_a_term_both_orders_cancel(coeff):
    # [n0, a+_0 a_1 + n2] = a+_0 a_1: the n0 n2 term of both products cancels
    n0 = OperatorExpr.from_monomial(coeff, (C(0), A(0)))
    b = OperatorExpr.from_monomials([(coeff, (C(0), A(1))), (coeff, (C(2), A(2)))])
    both = key((C(0), C(2), A(0), A(2)))
    assert both in n0.compose(b).terms and both in b.compose(n0).terms
    got = commutator(n0, b)
    assert got.terms == {key((C(0), A(1))): coeff * coeff}
    assert got == n0.compose(b) - b.compose(n0)


def test_commutator_of_even_terms_with_no_contraction_is_empty():
    # a+0 a1 and a+2 a3 share no mode: both orders give the same :XY:
    x = OperatorExpr.from_monomial(1, (C(0), A(1)))
    y = OperatorExpr.from_monomial(1, (C(2), A(3)))
    assert commutator(x, y).terms == {}


def test_commutator_of_odd_terms_keeps_the_uncontracted_term():
    # a+0 a+1 - a+1 a+0 = 2 a+0 a+1: the odd x odd term adds, not cancels
    got = commutator(OperatorExpr.from_monomial(1, (C(0),)),
                     OperatorExpr.from_monomial(1, (C(1),)))
    assert got.terms == {key((C(0), C(1))): Fraction(2)}
    # a0 a+0 - a+0 a0 = 1 - 2 a+0 a0: the contraction and the doubled term
    got = commutator(OperatorExpr.from_monomial(1, (A(0),)),
                     OperatorExpr.from_monomial(1, (C(0),)))
    assert got == OperatorExpr.identity() - OperatorExpr.from_monomial(2, (C(0), A(0)))


def test_an_operand_is_prepared_once(minimal_table):
    w = build_w(minimal_table, Fraction(-1))
    k = minimal_table.shell_plus[0]
    p1, p2 = build_pair(minimal_table, k, 2), build_pair(minimal_table, k, 3)
    commutator(w, p1)
    form = w._wick
    commutator(w, p2)
    assert w._wick is form
    # a derived operator is a new object with no form of its own
    for derived in (w + p1, -w, w.scaled(2)):
        assert derived._wick is None
    assert w._wick is not None


def test_commutator_checks_the_degree_cap_before_any_product(monkeypatch):
    def no_products(*args):
        raise AssertionError("a Wick sum ran before the degree-cap check")

    a = OperatorExpr.from_monomials([(1, (C(0), A(1))), (1, (C(0), C(1), A(2)))])
    b = OperatorExpr.from_monomials([(1, (C(3), A(4), A(5)))])
    with pytest.raises(DegreeCapError) as want:
        a.compose(b, 5)
    monkeypatch.setattr(operators, "_wick_sum", no_products)
    with pytest.raises(DegreeCapError) as got:
        commutator(a, b, 5)
    assert str(got.value) == str(want.value) == "monomial degree 6 exceeds cap 5"


def test_pair_commutator_on_the_40_mode_shell():
    """[W, pair(k, lam)] on the |n|^2 in {2, 3} shell with random weights:
    the one-pass commutator equals the difference of the two products and
    the closed form."""
    table = build_mode_table(LatticeConfig(kf=1.575, delta=0.17, frozen_core=True))
    assert table.n_modes == 40
    g = Fraction(-1)
    weight, _ = formfactors.from_spec(table, "random:102", 0)
    w = build_w(table, g, weight)
    k = table.shell_plus[0]
    for lam in (Fraction(0), Fraction(7, 3)):
        pair = build_pair(table, k, lam)
        got = commutator(w, pair)
        assert got == w.compose(pair) - pair.compose(w)
        assert got == pair_commutator_rhs(table, k, lam, g, weight)


PAIR_TABLES = {name: bundled_config_path(name) for name in (
    "minimal", "twopair", "threepair_core", "boosted", "broken_formfactor")}
PAIR_TABLES["shell10"] = Path(__file__).parent / "golden" / "shell10" / "config.json"


@pytest.mark.parametrize("name", PAIR_TABLES)
def test_pair_commutator_rhs_equals_the_monomial_closed_form(name):
    # the closed form written from the pair modes against the one built
    # monomial by monomial, at every shell point
    cfg = load_config(PAIR_TABLES[name])
    table = build_mode_table(cfg["lattice"])
    g = cfg["couplings"][0]
    for weights in (None, formfactors.from_spec(table, "random:7")[0]):
        for lam in map(Fraction, (-1, 0, 1, "7/3", "-5/2")):
            for k in table.shell_all:
                got = pair_commutator_rhs(table, k, lam, g, weights)
                assert got == pair_commutator_monomials(table, k, lam, g, weights)
                assert all(type(c) is Fraction for c in got.terms.values())


def sympy_normal_order(monomials) -> dict:
    """The ``(C, A)``-keyed term map of ``sum coeff * factors`` normal-ordered
    by sympy's ``wicks``, each block then sorted here by counting
    transpositions.

    Each factor gets its own above-Fermi symbol, so the vacuum is empty and
    the creators ``Fd`` go left; the mode numbers replace the symbols only
    afterwards, in the deltas and the factors, as integer labels make
    ``wicks`` emit dummy deltas such as ``KroneckerDelta(1, _a)``.
    """
    sympy = pytest.importorskip("sympy")
    sq = pytest.importorskip("sympy.physics.secondquant")

    def split(x, mode):
        """(scalar, factors) of one product of the expansion."""
        if isinstance(x, sympy.Mul):
            parts = [split(arg, mode) for arg in x.args]
            return (math.prod((s for s, _ in parts), start=Fraction(1)),
                    [f for _, fs in parts for f in fs])
        if isinstance(x, sq.NO):
            return split(x.args[0], mode)
        if isinstance(x, sympy.KroneckerDelta):
            return Fraction(int(mode[x.args[0]] == mode[x.args[1]])), []
        if isinstance(x, (sq.CreateFermion, sq.AnnihilateFermion)):
            kind = CREATE if isinstance(x, sq.CreateFermion) else ANNIHILATE
            return Fraction(1), [(kind, mode[x.args[0]])]
        return Fraction(int(x.p), int(x.q)), []  # a rational number

    out = {}
    for coeff, factors in monomials:
        symbols = [sympy.Symbol(f"p{i}", above_fermi=True) for i in range(len(factors))]
        mode = {sym: m for sym, (_, m) in zip(symbols, factors)}
        product = sympy.Mul(*[(sq.Fd if kind == CREATE else sq.F)(sym)
                              for sym, (kind, _) in zip(symbols, factors)])
        for term in sympy.Add.make_args(sq.wicks(product)):
            scalar, ops = split(term, mode)
            creates = [m for k, m in ops if k == CREATE]
            annihilates = [m for k, m in ops if k == ANNIHILATE]
            assert ops == [C(m) for m in creates] + [A(m) for m in annihilates]
            if any(len(set(ms)) < len(ms) for ms in (creates, annihilates)):
                continue  # a repeated mode: the term vanishes
            for ms in (creates, annihilates):
                scalar *= (-1) ** sum(x > y for i, x in enumerate(ms) for y in ms[i + 1:])
            term = key(tuple(map(C, creates)) + tuple(map(A, annihilates)))
            out[term] = out.get(term, 0) + coeff * scalar
    return {t: c for t, c in out.items() if c != 0}


@settings(max_examples=150, deadline=None)
@given(raw=st.lists(st.tuples(st.sampled_from([CREATE, ANNIHILATE]),
                              st.integers(0, 4)), max_size=6))
def test_normal_order_term_equals_sympy_wicks(raw):
    assert (normal_ordered([(Fraction(1), raw)]).terms
            == sympy_normal_order([(Fraction(1), raw)]))


@settings(max_examples=80, deadline=None)
@given(a=compose_operands(COMPOSE_COEFFS["fraction"], range(5), 3),
       b=compose_operands(COMPOSE_COEFFS["int"], range(5), 3))
def test_compose_equals_sympy_wicks(a, b):
    want = sympy_normal_order(raw_products(a, b))
    assert a.compose(b).terms == want


# ---------------------------------------------------------------------------
# the compiled kernel against raw factor application
# ---------------------------------------------------------------------------

AMPLITUDES = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def cancelling_monomials(draw, n_modes=5):
    """Raw monomials, some repeated with a coefficient that cancels them
    in full or in part."""
    monos = []
    for _ in range(draw(st.integers(1, 4))):
        coeff = draw(AMPLITUDES)
        factors = tuple(
            (draw(st.sampled_from([CREATE, ANNIHILATE])),
             draw(st.integers(0, n_modes - 1)))
            for _ in range(draw(st.integers(0, 4)))
        )
        monos.append((coeff, factors))
        if draw(st.booleans()):
            monos.append((draw(st.sampled_from([-coeff, -coeff / 2])), factors))
    return monos


@settings(max_examples=200, deadline=None)
@given(monos=cancelling_monomials(), data=st.data())
def test_apply_operator_equals_raw_factor_sum(monos, data):
    n_modes = 5
    amps = data.draw(st.dictionaries(st.integers(0, (1 << n_modes) - 1),
                                     AMPLITUDES, min_size=1, max_size=6))
    vec = StateVector(n_modes, amps)
    expected = {}
    for occ, amp in vec.amp.items():
        for coeff, factors in monos:
            raw = apply_raw_factors(n_modes, factors, occ)
            if raw is not None:
                sign, res = raw
                expected[res] = expected.get(res, 0) + coeff * amp * sign
    got = apply_operator(normal_ordered(monos), vec).amp
    assert got == {k: v for k, v in expected.items() if v != 0}


def bits(amp):
    """Amplitudes by type and ``repr``."""
    return {occ: (type(a), repr(a)) for occ, a in amp.items()}


def apply_reference(expr, vec):
    """``apply_operator`` one state and one term at a time, on the
    dictionary oracle."""
    return apply_dict(expr, DictState.of(vec)).amp


@settings(max_examples=200, deadline=None)
@given(monos=cancelling_monomials(), data=st.data())
def test_apply_operator_bits_equal_compiled_reference(monos, data):
    # hops make many images that three or more contributions reach
    n_modes = 5
    hops = data.draw(st.lists(st.tuples(AMPLITUDES, st.integers(0, 4),
                                        st.integers(0, 4)), max_size=10))
    amps = data.draw(st.dictionaries(st.integers(0, (1 << n_modes) - 1),
                                     AMPLITUDES, min_size=1, max_size=12))
    vec = StateVector(n_modes, amps)
    expr = normal_ordered(monos + [(c, (C(i), A(j))) for c, i, j in hops])
    got = apply_operator(expr, vec).amp
    assert bits(got) == bits(apply_reference(expr, vec))
    assert all(type(a) is Fraction for a in got.values())


@pytest.mark.parametrize("coeff, amp, dtype", [
    # (|c| + |-c|) * (|amp| + |amp|) against 2**53
    (2**51 - 1, 1, np.int64),
    (2**51, 1, object),
    (Fraction(2**51 + 2, 3), Fraction(1, 2), object),
    (2**40, 2**30, object),  # the products alone overflow int64
    (Fraction(1, 2**53), 1, object),  # the denominator alone, as in matrix_in_sector
])
def test_apply_operator_routes_numerators_at_2_53(coeff, amp, dtype):
    # the number operator and a hop, on two states with the same image
    expr = OperatorExpr.from_monomials([(coeff, (C(0), A(0))), (-coeff, (C(0), A(1)))])
    vec = StateVector(2, {0b10: amp, 0b01: amp})
    compiled = _compile(expr, 2)
    signed, amps, den = _values([t[-1] for t in compiled], vec.nums, vec.den)
    assert signed.dtype == amps.dtype == np.dtype(dtype)
    assert bits(apply_operator(expr, vec).amp) == bits(apply_reference(expr, vec))
    assert apply_operator(expr, vec).amp == {}  # the hop cancels the number term
    half = StateVector(2, {0b10: amp})
    assert apply_operator(expr, half).amp == {0b10: coeff * amp}


def test_width_bound_is_summed_on_python_ints():
    # 2,048 numerators of 2**53 - 1 are int64 in the record, but their sum
    # of magnitudes passes 2**63, where numpy's int64 sum would wrap to a
    # negative bound and pick int64 products that overflow
    n_modes = 11
    big = StateVector(n_modes, dict.fromkeys(range(1 << n_modes), 2**53 - 1))
    assert big.nums.dtype == np.int64 and len(big) * (2**53 - 1) >= 2**63
    assert int(np.abs(big.nums).sum()) < 0  # the wrapped sum
    number = OperatorExpr({(1 << m, 1 << m): 1 for m in range(n_modes)})
    # and small amplitudes whose bound with the coefficients passes 2**53
    hop = OperatorExpr.from_monomials([(2**30, (C(0), A(1))), (2**30, (C(1), A(0)))])
    small = StateVector(2, {0b01: 2**22, 0b10: -3})
    for expr, vec in ((number, big), (hop, small)):
        assert vec.nums.dtype == np.int64
        signed, amps, _ = _values([t[-1] for t in _compile(expr, vec.n_modes)],
                                  vec.nums, vec.den)
        assert signed.dtype == amps.dtype == object
        image, want = apply_operator(expr, vec), apply_dict(expr, DictState.of(vec))
        assert bits(image.amp) == bits(want.amp) and image == want.record()
        assert image_norm(expr, vec).hex() == want.norm().hex()
    # numerators past int64 meet no coefficient: the zero operator gives zero
    assert len(apply_operator(OperatorExpr(), StateVector(1, {1: 2**70}))) == 0


MIXED = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@settings(max_examples=150, deadline=None)
@given(monos=cancelling_monomials(), data=st.data())
def test_residuals_equal_the_fraction_routes(monos, data):
    # the image, and the norms summed from the kernel's numerators, against
    # the dictionary oracle, bit for bit, int64 and object dtype alike
    n_modes = 5
    amps = data.draw(st.dictionaries(st.integers(0, (1 << n_modes) - 1), MIXED,
                                     min_size=1, max_size=12))
    expr = normal_ordered(monos)
    if data.draw(st.booleans()):  # the number operator: some shifts are exact eigenvalues
        expr = expr + OperatorExpr({(1 << m, 1 << m): 1 for m in range(n_modes)})
    # a numerator or a denominator past 2**53 takes the object dtype; the
    # prime keeps it past 2**53 after any small coefficient is multiplied in
    prime = 2**53 + 5
    wide, amp_wide = (data.draw(st.sampled_from([1, prime, Fraction(1, prime)]))
                      for _ in range(2))
    expr = expr.scaled(wide)
    vec = StateVector(n_modes, {occ: a * amp_wide for occ, a in amps.items()})
    # the record holds numerators past 2**53 as Python ints
    assert vec.nums.dtype == (object if amp_wide == prime and len(vec) else np.int64)
    shift = data.draw(st.one_of(MIXED, st.integers(0, n_modes))) * wide
    if len(vec) and (expr.terms or shift):
        signed = _values([*expr.terms.values(), Fraction(shift)], vec.nums, vec.den)[0]
        assert signed.dtype == (np.int64 if wide == amp_wide == 1 else object)
    oracle = DictState.of(vec)
    image, image_dict = apply_operator(expr, vec), apply_dict(expr, oracle)
    assert bits(image.amp) == bits(image_dict.amp) and image == image_dict.record()
    for got, want in ((image_norm(expr, vec, shift), (image_dict - oracle.scaled(shift)).norm()),
                      (eigen_residual(expr, vec, shift),
                       eigen_residual_dict(expr, oracle, shift)),
                      (relative_dark_residual(expr, vec), dark_residual_dict(expr, oracle))):
        assert type(got) is float and got.hex() == want.hex()


def test_residuals_reject_an_inexact_shift():
    with pytest.raises(TypeError):
        eigen_residual(OperatorExpr({(1, 1): 1}), StateVector(1, {1: 1}), 2.0)


def test_firing_blocks_give_the_same_image_and_matrix(monkeypatch, threepair_table):
    # W on the 40-mode shell's paired state (400 terms x 1,024 states) and
    # H on the threepair sector (48 terms x 924 columns) each fire in
    # several blocks of many terms; both equal the term-by-term references,
    # and a budget of 1, one term a block, gives the same arrays
    shell10 = build_mode_table(LatticeConfig(kf=1.575, delta=0.17, frozen_core=True,
                                             volume=1))
    w = build_w(shell10, Fraction(-2, 3), formfactors.from_spec(shell10, "asymmetric:3")[0])
    state = nc_state(shell10)
    h = build_h0(threepair_table) + build_w(threepair_table, Fraction(1, 3),
                                            formfactors.from_spec(threepair_table,
                                                                  "random:9")[0])
    basis = sector_basis(12, 6)
    for terms, states in ((len(w), len(state)), (len(h), len(basis))):
        assert terms * states > 2 * operators.FIRE_BUDGET > 4 * states
    image, coo = apply_operator(w, state), matrix_in_sector(h, basis, 12)
    assert image.amp  # the asymmetric weight does not leave the state dark
    assert bits(image.amp) == bits(apply_reference(w, state))
    assert_same_bits(h, basis, 12)
    monkeypatch.setattr(operators, "FIRE_BUDGET", 1)
    assert bits(apply_operator(w, state).amp) == bits(image.amp)
    single = matrix_in_sector(h, basis, 12)
    for name in ("rows", "cols", "nums"):
        a, b = getattr(single, name), getattr(coo, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert (single.den, single.dim) == (coo.den, coo.dim)


@pytest.mark.parametrize("csr", [False, True])
def test_matrix_columns_equal_apply_operator(twopair_table, csr):
    basis = sector_basis(8, 4)
    h = build_h0(twopair_table) + build_w(twopair_table, Fraction(-3, 7))
    h = h + commutator(h, build_number_op(twopair_table).scaled(Fraction(1, 2)))
    coo = matrix_in_sector(h, basis, 8)
    mat = coo.tocsr().toarray() if csr else coo.toarray()
    basis = basis.tolist()
    for col, occ in enumerate(basis):
        image = apply_operator(h, StateVector(8, {occ: 1}))
        column = {basis[r]: mat[r, col] for r in np.flatnonzero(mat[:, col])}
        assert column == {k: float(v) for k, v in image.amp.items()}


@pytest.mark.parametrize("factors", [(C(1), C(0)), (A(0), C(0)), (A(2), A(1)),
                                     (C(0), C(0)), (A(1), C(2), A(3))])
def test_non_canonical_raw_term_is_rejected(factors):
    # a term is its (C, A) key, not a factor string in any order
    with pytest.raises(ValueError, match=r"not a \(C, A\) pair"):
        OperatorExpr({factors: Fraction(1)})
    # the canonical form of the same monomial is what the builders store
    canonical = normal_ordered([(Fraction(1), factors)])
    assert OperatorExpr(dict(canonical.terms)) == canonical


@pytest.mark.parametrize("term", [(), (1,), (1, 2, 3), (-1, 0), (0, -2), (1.0, 0),
                                  (True, 0), (np.int64(1), 0), ("c", 0), 5])
def test_a_key_that_is_not_two_int_masks_is_rejected(term):
    with pytest.raises(ValueError, match=r"not a \(C, A\) pair"):
        OperatorExpr({term: 1})


def test_any_two_int_masks_are_a_canonical_term():
    for term in ((0, 0), (0b101, 0b11), (1 << 130, 1), (5, 5)):
        assert OperatorExpr({term: 2}).terms == {term: Fraction(2)}
    assert OperatorExpr({(1 << 130, 1): 1}) == OperatorExpr.from_monomial(
        1, (C(130), A(0)))


def test_zero_coefficients_are_dropped_on_construction():
    # equal operators have equal maps, which _distance's shortcut relies on
    zero = OperatorExpr({(1, 1): 0})
    assert zero == OperatorExpr() and zero.is_zero() and len(zero) == 0
    assert zero + OperatorExpr() == OperatorExpr()
    mixed = OperatorExpr({(1, 1): Fraction(0), (0b10, 0): 3})
    assert mixed.terms == {(0b10, 0): Fraction(3)}
    assert mixed + OperatorExpr() == mixed == OperatorExpr({(0b10, 0): 3})
    # a zero coefficient does not excuse a malformed key
    with pytest.raises(ValueError, match=r"not a \(C, A\) pair"):
        OperatorExpr({(-1, 0): 0})


def test_dagger_involution_and_hermiticity():
    expr = OperatorExpr.from_monomials(
        [(Fraction(1, 2), (C(0), A(1))), (Fraction(1, 2), (C(1), A(0)))]
    )
    assert expr.dagger() == expr
    assert expr.is_hermitian()
    assert expr.dagger().dagger() == expr


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_dagger_equals_the_rewritten_reversed_adjoint(data):
    # (f1 ... fd)+ = fd+ ... f1+: the factors reversed, each kind flipped
    pool = data.draw(st.sampled_from(MODE_POOLS))
    expr = data.draw(compose_operands(COMPOSE_COEFFS["fraction"], pool, 9))
    flip = {CREATE: ANNIHILATE, ANNIHILATE: CREATE}
    adjoint = [(c, tuple((flip[k], m) for k, m in reversed(factors(t))))
               for t, c in expr.terms.items()]
    assert expr.dagger() == normal_ordered(adjoint, 9)
    assert expr.dagger().dagger() == expr


# ---------------------------------------------------------------------------
# model builders on the minimal lattice
# ---------------------------------------------------------------------------

def test_build_h0_single_pair(minimal_table):
    h0 = build_h0(minimal_table)
    assert h0.terms == {key((C(i), A(i))): Fraction(1) for i in range(4)}


def test_build_h0_half_filling_mu_kills_shell():
    cfg = LatticeConfig(kf=1.2, delta=0.5, mu=1.0, frozen_core=True,
                        shell_points=((0, 0, 1), (0, 0, -1)), volume=1)
    h0 = build_h0(build_mode_table(cfg))
    assert h0.is_zero()


def test_build_w_structure(minimal_table):
    w = build_w(minimal_table, 1)
    assert len(w) == 4
    assert all(len(factors(t)) == 4 for t in w.terms)
    assert w.one_norm() == 4
    assert build_w(minimal_table, 0).is_zero()


def test_build_w_volume_prefactor():
    cfg = LatticeConfig(kf=1.2, delta=0.5, frozen_core=True,
                        shell_points=((0, 0, 1), (0, 0, -1)), volume=8)
    w = build_w(build_mode_table(cfg), 1)
    assert w.one_norm() == Fraction(1, 2)


def test_number_and_momentum_operators(minimal_table):
    n_op = build_number_op(minimal_table)
    assert n_op.terms == {key((C(i), A(i))): Fraction(1) for i in range(4)}
    px, py, pz = build_momentum_op(minimal_table)
    assert px.is_zero() and py.is_zero()
    assert pz.terms == {
        key((C(0), A(0))): Fraction(1),
        key((C(1), A(1))): Fraction(1),
        key((C(2), A(2))): Fraction(-1),
        key((C(3), A(3))): Fraction(-1),
    }


def test_boosted_momentum_is_unboosted_plus_drift(minimal_table, boosted_table):
    # Mode i of the boosted table sits at the same relative point as mode i of
    # the unboosted one, so the term maps line up index by index.
    p_boost = build_momentum_op(boosted_table)
    p_flat = build_momentum_op(minimal_table)
    n_op = build_number_op(minimal_table)
    for axis, k_comp in enumerate((0, 0, 1)):
        assert p_boost[axis] == p_flat[axis] + n_op.scaled(Fraction(k_comp))


def test_build_pair_and_gamma_actions(minimal_table):
    t = minimal_table
    gamma = build_gamma(t, (0, 0, 1))
    assert apply_operator(gamma, phi_core(t)).amp == {
        0b1001: Fraction(1), 0b0110: Fraction(1)
    }
    sym = build_pair(t, (0, 0, 1), 1)
    assert apply_operator(sym, phi_core(t)).amp == {
        0b1001: Fraction(1), 0b0110: Fraction(-1)
    }
    assert build_gamma(t, (0, 0, -1)) == -gamma
    with pytest.raises(ShellDomainError):
        build_gamma(t, (1, 1, 1))


def test_gamma_operators_commute(twopair_table):
    g1 = build_gamma(twopair_table, twopair_table.shell_plus[0])
    g2 = build_gamma(twopair_table, twopair_table.shell_plus[1])
    assert commutator(g1, g2).is_zero()


def test_pair_commutator_identity_all_lambdas(minimal_table, twopair_table):
    for table in (minimal_table, twopair_table):
        w = build_w(table, Fraction(3, 7))
        for lam in (Fraction(-1), Fraction(0), Fraction(1), Fraction(2),
                    Fraction(7, 3)):
            for k in table.shell_plus:
                lhs = commutator(w, build_pair(table, k, lam))
                rhs = pair_commutator_rhs(table, k, lam, Fraction(3, 7))
                assert lhs == rhs


def test_pair_commutator_lambda_zero_has_constant_term(minimal_table):
    w = build_w(minimal_table, 1)
    comm = commutator(w, build_pair(minimal_table, (0, 0, 1), 0))
    pure_creation = {t: c for t, c in comm.terms.items() if t[1] == 0}
    # the (1 + lambda) = 1 piece survives as bare pair creators, one per
    # shell point, with unit weight (sign from the canonical block sort)
    assert pure_creation
    assert all(len(factors(t)) == 2 for t in pure_creation)
    assert sorted(pure_creation.values()) == [Fraction(-1), Fraction(1)]


def test_gamma_commutator_ends_in_annihilators(minimal_table):
    w = build_w(minimal_table, 1)
    comm = commutator(w, build_gamma(minimal_table, (0, 0, 1)))
    assert not comm.is_zero()
    assert all(am != 0 for _, am in comm.terms)


def test_apply_w_examples(minimal_table):
    t = minimal_table
    w = build_w(t, 1)
    assert len(apply_operator(w, StateVector(4, {0: 1}))) == 0
    dark = StateVector(4, {0b1001: 1, 0b0110: 1})
    assert len(apply_operator(w, dark)) == 0
    bright = StateVector(4, {0b1001: 1, 0b0110: -1})
    assert apply_operator(w, bright).amp == {0b1001: 2, 0b0110: -2}


def test_matrix_h0_diagonal(minimal_table):
    basis = sector_basis(4, 2)
    mat = matrix_in_sector(build_h0(minimal_table), basis, 4).toarray()
    assert np.allclose(mat, 2 * np.eye(6))


def test_matrix_w_pairing_block(minimal_table):
    basis = sector_basis(4, 2).tolist()
    mat = matrix_in_sector(build_w(minimal_table, 1), basis, 4).toarray()
    expected = np.zeros((6, 6))
    i_1001 = basis.index(0b1001)
    i_0110 = basis.index(0b0110)
    expected[i_1001, i_1001] = expected[i_0110, i_0110] = 1.0
    expected[i_1001, i_0110] = expected[i_0110, i_1001] = -1.0
    assert np.array_equal(mat, expected)


def test_matrix_number_operator_is_scalar(minimal_table):
    basis = sector_basis(4, 2)
    mat = matrix_in_sector(build_number_op(minimal_table), basis, 4).toarray()
    assert np.allclose(mat, 2 * np.eye(6))


def test_matrix_sparse_agrees_with_dense(twopair_table):
    basis = sector_basis(8, 4)
    h = build_h0(twopair_table) + build_w(twopair_table, Fraction(-1))
    coo = matrix_in_sector(h, basis, 8)
    dense = coo.toarray()
    assert np.allclose(dense, coo.tocsr().toarray())
    assert np.allclose(dense, dense.conj().T)


def test_matrix_coo_holds_the_dense_and_csr_entries(twopair_table):
    """The ``SectorCOO`` keeps the unsummed entries: summed, they are the
    dense matrix, which CSR holds bit for bit at the same positions."""
    basis = sector_basis(8, 4)
    weights, _ = formfactors.from_spec(twopair_table, "random:13")
    h = build_h0(twopair_table) + build_w(twopair_table, Fraction(-1, 3), weights)
    coo = matrix_in_sector(h, basis, 8)
    assert coo.dim == len(basis) and coo.nums.dtype == np.int64
    dense, csr = coo.toarray(), coo.tocsr()
    assert csr.toarray().tobytes() == dense.tobytes()
    assert coo.nnz == csr.nnz == len(set(zip(coo.rows.tolist(), coo.cols.tolist())))


def test_matrix_rejects_more_than_64_modes():
    expr = OperatorExpr.from_monomial(Fraction(1), (C(64), A(64)))
    with pytest.raises(ValueError, match="exceeds 64"):
        matrix_in_sector(expr, [1, 2], 65)


def test_matrix_rejects_number_breaking_operator():
    expr = OperatorExpr.from_monomial(Fraction(1), (C(0),))
    for basis in (sector_basis(4, 2), sector_basis(4, 2).tolist()):
        with pytest.raises(ValueError, match="conserve particle number"):
            matrix_in_sector(expr, basis, 4)


# ---------------------------------------------------------------------------
# the vectorized sector kernel against the per-column reference
# ---------------------------------------------------------------------------

def column_reference(expr, basis, n_modes):
    """Sector matrix built one column at a time with ``apply_compiled``,
    dense and as CSR: each entry an exact sum in term order, rounded once
    by ``float``."""
    from scipy.sparse import csr_matrix

    basis = np.asarray(basis, dtype=np.uint64).tolist()
    compiled = _compile(expr, n_modes)
    index = {occ: i for i, occ in enumerate(basis)}
    rows, cols, data = [], [], []
    for col, occ in enumerate(basis):
        acc = {}
        apply_compiled(compiled, occ, 1, acc)
        for res in sorted(acc):
            if res in index:
                rows.append(index[res])
                cols.append(col)
                data.append(float(acc[res]))
    dim = len(basis)
    mat = np.zeros((dim, dim))
    mat[rows, cols] = data
    return mat, csr_matrix((data, (rows, cols)), shape=(dim, dim), dtype=np.float64)


def assert_same_bits(expr, basis, n_modes):
    """The ``SectorCOO``'s dense and CSR forms equal the reference bit for
    bit, stored zeros included."""
    coo = matrix_in_sector(expr, basis, n_modes)
    want_dense, want_csr = column_reference(expr, basis, n_modes)
    dense = coo.toarray()
    assert dense.dtype == want_dense.dtype and dense.tobytes() == want_dense.tobytes()
    csr = coo.tocsr()
    assert csr.shape == want_csr.shape and csr.nnz == want_csr.nnz == coo.nnz
    for name in ("indptr", "indices", "data"):
        got, ref = getattr(csr, name), getattr(want_csr, name)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name
    return csr


def occupation(n_modes, modes):
    return sum(1 << (n_modes - 1 - m) for m in modes)


EXACT_COEFFS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
                Fraction(-3, 7), Fraction(5, 6)]


@st.composite
def sector_problems(draw):
    """A number-conserving canonical operator on up to 64 modes and an
    ascending basis of one particle number.

    The basis holds states of a few active modes over a background that
    is always occupied; some states may be dropped, so images can fall
    outside it.  Terms hop among the active modes and may carry
    spectators, background modes both annihilated and re-created, so
    several terms reach the same entry, and with coefficients of one
    magnitude and both signs they can cancel there.
    """
    n_modes = draw(st.one_of(st.just(64), st.integers(2, 63)))
    pool = list(range(n_modes))
    if draw(st.booleans()):  # put mode 0, the top bit, in play
        pool.remove(0)
        pool.insert(0, 0)
    else:
        pool = draw(st.permutations(pool))
    n_active = draw(st.integers(2, min(6, n_modes)))
    active, rest = sorted(pool[:n_active]), pool[n_active:]
    background = sorted(rest[: draw(st.integers(0, min(3, len(rest))))])
    k = draw(st.integers(1, n_active - 1))
    base = occupation(n_modes, background)
    basis = sorted(base | occupation(n_modes, combo)
                   for combo in itertools.combinations(active, k))
    keep = draw(st.lists(st.sampled_from([True, True, True, False]),
                         min_size=len(basis), max_size=len(basis)))
    basis = [occ for occ, kept in zip(basis, keep) if kept or not any(keep)]

    monos = []
    for _ in range(draw(st.integers(1, 8))):
        degree = draw(st.integers(1, min(2, n_active)))
        creates = draw(st.lists(st.sampled_from(active), min_size=degree,
                                max_size=degree, unique=True))
        annihilates = draw(st.lists(st.sampled_from(active), min_size=degree,
                                    max_size=degree, unique=True))
        spectators = draw(st.lists(st.sampled_from(background), max_size=1,
                                   unique=True)) if background else []
        factors = tuple(C(m) for m in creates + spectators) + tuple(
            A(m) for m in spectators + annihilates)
        coeff = draw(st.sampled_from([Fraction(1), Fraction(-1)]) if
                     draw(st.booleans()) else st.sampled_from(EXACT_COEFFS))
        monos.append((coeff, factors))
    return OperatorExpr.from_monomials(monos), basis, n_modes


def sector_values(expr, n_modes):
    """The numerators ``matrix_in_sector`` sums: ``_values`` with a unit
    amplitude."""
    return _values([t[-1] for t in _compile(expr, n_modes)], np.ones(1, dtype=np.int64), 1)


@settings(max_examples=150, deadline=None)
@given(problem=sector_problems())
def test_sector_kernel_equals_column_reference(problem):
    expr, basis, n_modes = problem
    assert sector_values(expr, n_modes)[0].dtype == np.int64
    assert_same_bits(expr, basis, n_modes)


def test_sector_kernel_keeps_cancelled_entries_as_stored_zeros():
    # c0 a1 - c0 n2 a1 vanishes on every state with mode 2 occupied
    expr = OperatorExpr.from_monomials([(Fraction(1), (C(0), A(1))),
                                        (Fraction(-1), (C(0), C(2), A(2), A(1)))])
    basis = [0b0101, 0b0110, 0b1001, 0b1010]
    csr = assert_same_bits(expr, basis, 4)
    assert csr.nnz == 2 and csr.count_nonzero() == 1


def test_sector_kernel_uses_the_top_bit_of_64_modes():
    # hops between mode 0 (the top bit of the word) and mode 63; the hop
    # with spectator 5 reaches the same entry as c0 a63
    expr = OperatorExpr.from_monomials([
        (Fraction(2, 3), (C(0), A(63))), (Fraction(2, 3), (C(63), A(0))),
        (Fraction(-1, 5), (C(0), A(0))), (Fraction(1), (C(0), C(5), A(5), A(63))),
    ])
    basis = sorted(occupation(64, modes) for modes in ((0, 5), (5, 63), (1, 5)))
    assert basis[-1] >= 1 << 63
    csr = assert_same_bits(expr, basis, 64)
    assert csr.nnz == 3
    # the same states as a uint64 array, as sector_basis gives them
    words = np.array(basis, dtype=np.uint64)
    got, want = matrix_in_sector(expr, words, 64), matrix_in_sector(expr, basis, 64)
    for name in ("rows", "cols", "nums"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert (got.den, got.dim) == (want.den, want.dim)


def test_sector_kernel_on_one_state_and_on_no_reachable_state(minimal_table):
    assert_same_bits(build_h0(minimal_table) + build_w(minimal_table, Fraction(-1, 3)),
                     [0b0110], 4)
    # the operator only moves the particle out of the basis
    hop = OperatorExpr.from_monomial(Fraction(1), (C(3), A(0)))
    csr = assert_same_bits(hop, [0b0100, 0b1000], 4)
    assert csr.nnz == 0
    assert_same_bits(OperatorExpr(), sector_basis(4, 2), 4)


def test_unsorted_basis_takes_the_column_fallback(twopair_table):
    # a basis that is not strictly ascending is rejected, not ranked
    h = build_h0(twopair_table) + build_w(twopair_table, Fraction(-3, 7))
    basis = sector_basis(8, 4).tolist()
    for bad in (basis[::-1], basis[:3] + basis[2:]):
        for form in (bad, np.array(bad, dtype=np.uint64)):
            with pytest.raises(ValueError, match="strictly ascending"):
                matrix_in_sector(h, form, 8)


def test_huge_denominator_takes_the_column_fallback():
    # mu = 0.3 is a binary fraction with a 2**54 denominator; the default
    # volume L**3 = (2 pi)**3 is a float cubed as a Fraction
    shell = ((0, 0, 1), (0, 0, -1), (0, 1, 0), (0, -1, 0))
    for extra in ({"mu": 0.3, "volume": 1}, {}):
        table = build_mode_table(LatticeConfig(
            kf=1.2, delta=0.5, frozen_core=True, shell_points=shell, **extra))
        h = build_h0(table) + build_w(table, Fraction(-1))
        signed, _, den = sector_values(h, 8)
        assert signed.dtype == object and den >= 1 << 53
        assert_same_bits(h, sector_basis(8, 4), 8)


def test_numerator_sum_at_2_53_takes_the_column_fallback():
    big = OperatorExpr.from_monomials([(2**52, (C(0), A(0))), (2**52, (C(1), A(1)))])
    signed, _, den = sector_values(big, 2)
    assert (den, signed.dtype) == (1, object)
    assert_same_bits(big, [0b01, 0b10], 2)


def test_w_hermitian_for_unit_and_exchange_symmetric(minimal_table, twopair_table):
    assert build_w(minimal_table, 1).is_hermitian()

    weights, _ = formfactors.from_spec(twopair_table, "random:5")
    exchange_symmetric = [[x + y for x, y in zip(row, col)]
                          for row, col in zip(weights, zip(*weights))]  # G + G^T
    assert build_w(twopair_table, Fraction(-2), exchange_symmetric).is_hermitian()


@pytest.mark.parametrize("value", [0.5, 1.5 - 0.5j, 2.0])
def test_inexact_values_are_rejected(value):
    n0 = (C(0), A(0))
    for build in (lambda: OperatorExpr({key(n0): value}),
                  lambda: OperatorExpr.identity(value),
                  lambda: OperatorExpr.from_monomial(value, n0),
                  lambda: OperatorExpr.from_monomials([(1, n0), (value, n0)]),
                  lambda: OperatorExpr.from_monomial(1, n0).scaled(value),
                  lambda: apply_operator(OperatorExpr.from_monomial(1, n0),
                                         StateVector(2, {0b01: value}))):
        with pytest.raises(TypeError):
            build()


def test_int_coefficients_are_stored_as_fractions():
    n0 = (C(0), A(0))
    for expr in (OperatorExpr({key(n0): 2}), OperatorExpr.identity(2),
                 OperatorExpr.from_monomial(2, n0), OperatorExpr.from_monomials([(2, n0)]),
                 OperatorExpr.from_monomial(Fraction(1), n0).scaled(2)):
        assert [type(c) for c in expr.terms.values()] == [Fraction]
    got = apply_operator(OperatorExpr.from_monomial(2, n0), StateVector(1, {1: 3}))
    assert got.amp == {1: 6} and type(got.amp[1]) is Fraction
