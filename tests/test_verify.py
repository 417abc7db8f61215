"""Battery behavior and the continuum counting comparison."""

import functools
import json
import math
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkpair.cli import bundled_config_path, load_config, write_csv
from darkpair.formfactors import from_spec
from darkpair.lattice import SPIN_DOWN, SPIN_UP, LatticeConfig, build_mode_table
from darkpair import lattice, verify
from darkpair.operators import (
    ANNIHILATE,
    CREATE,
    OperatorExpr,
    apply_operator,
    build_gamma,
    build_h0,
    build_momentum_op,
    build_number_op,
    build_pair,
    build_w,
    commutator,
    residual_squares,
)
from darkpair.verify import (
    CHECK_IDS,
    CONTINUUM_FIELDS,
    closed_form_energy_per_particle,
    continuum_energy_check,
    counting_energy,
    quadrature_energy_per_particle,
    _anticommutation_residual,
    _distance,
    bracket_sum,
    dark_residuals,
    dark_square,
    doublets,
    monomial_brackets,
    number_square,
    run_battery,
)
from darkpair.states import nc_energy, nc_momentum, nc_state
from normal_order import factors, normal_ordered
from state_oracle import DictState, dark_residual_dict, eigen_residual

G_LIST = [Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1)]
LAMBDAS = [Fraction(-1), Fraction(0), Fraction(1), Fraction(2), Fraction(7, 3)]


def test_battery_minimal_all_pass(minimal_table):
    report = run_battery(minimal_table, G_LIST, LAMBDAS, seed=7)
    assert report.all_passed
    assert [c.check_id for c in report.checks] == list(CHECK_IDS)
    assert all(c.residual == 0.0 for c in report.checks)


@st.composite
def term_maps(draw):
    factor = st.tuples(st.sampled_from([CREATE, ANNIHILATE]), st.integers(0, 2))
    return normal_ordered(draw(st.lists(st.tuples(
        st.fractions(-2, 2, max_denominator=3), st.lists(factor, max_size=3)),
        max_size=5)))


@settings(max_examples=200, deadline=None)
@given(a=term_maps(), b=term_maps())
def test_distance_is_the_one_norm_of_the_difference(a, b):
    # the residual of the commutator checks, without building a - b
    got = _distance(a, b)
    assert type(got) is Fraction and got == (a - b).one_norm()
    assert _distance(a, a) == 0


def test_battery_each_check_appears_once(minimal_table):
    report = run_battery(minimal_table, G_LIST, LAMBDAS, seed=7)
    ids = [c.check_id for c in report.checks]
    assert len(ids) == len(set(ids)) == 10


def test_battery_pass_iff_residual_within_tolerance(minimal_table):
    report = run_battery(minimal_table, G_LIST, LAMBDAS, seed=7)
    for c in report.checks:
        assert c.passed == (c.residual <= c.tolerance)


def test_battery_random_formfactor_passes(minimal_table):
    for seed in (1, 2, 3):
        report = run_battery(
            minimal_table, G_LIST, LAMBDAS, formfactor=f"random:{seed}", seed=seed
        )
        assert report.all_passed, report.to_text()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_battery_randomized_weights_on_every_lattice(seed):
    configs = [
        LatticeConfig(kf=1.2, delta=0.5, frozen_core=True,
                      shell_points=((0, 0, 1), (0, 0, -1),
                                    (0, 1, 0), (0, -1, 0)), volume=1),
        LatticeConfig(kf=1.0, delta=0.25, frozen_core=True, volume=1),
        LatticeConfig(kf=1.2, delta=0.5, boost=(0, 0, 1), frozen_core=True,
                      shell_points=((0, 0, 2), (0, 0, 0)), volume=1),
    ]
    for cfg in configs:
        report = run_battery(
            build_mode_table(cfg), G_LIST, LAMBDAS, formfactor=f"random:{seed}",
            seed=seed,
        )
        assert report.all_passed, report.to_text()
        symbolic = [c for c in report.checks if c.tolerance == 0.0]
        assert len(symbolic) == 5
        assert all(c.residual == 0.0 for c in symbolic)


def test_gamma_check_does_not_depend_on_the_pair_check_lambdas():
    """Check (3) takes check (2)'s lam = -1 commutators when -1 is among
    the lambdas and builds its own otherwise: the same record either way,
    on the asymmetric weights whose check (3) residual is 2."""
    cfg = load_config(bundled_config_path("broken_formfactor"))
    records = []
    for lambdas in ([Fraction(-1), Fraction(0)], [Fraction(0)], [Fraction(2), Fraction(-1)]):
        report = run_battery(cfg["table"], cfg["couplings"], lambdas,
                             formfactor=cfg["formfactor"], seed=cfg["seed"])
        gamma = report.checks[CHECK_IDS.index("gamma_commutator")]
        records.append((gamma.params, gamma.residual, gamma.passed))
    assert records[0][1] == 2.0
    assert records[0] == records[1] == records[2]


def test_battery_boosted_lattice_passes():
    cfg = LatticeConfig(
        kf=1.2, delta=0.5, boost=(0, 0, 1), frozen_core=True,
        shell_points=((0, 0, 2), (0, 0, 0)), volume=1,
    )
    report = run_battery(build_mode_table(cfg), G_LIST, LAMBDAS, seed=3)
    assert report.all_passed, report.to_text()


def test_battery_with_chemical_potential():
    cfg = LatticeConfig(
        kf=1.2, delta=0.5, mu=0.5, frozen_core=True,
        shell_points=((0, 0, 1), (0, 0, -1)), volume=1,
    )
    report = run_battery(build_mode_table(cfg), G_LIST, LAMBDAS, seed=1)
    assert report.all_passed, report.to_text()


def test_battery_unfrozen_core_passes():
    cfg = LatticeConfig(
        kf=1.2, delta=0.5, shell_points=((0, 0, 1), (0, 0, -1)), volume=1
    )
    report = run_battery(build_mode_table(cfg), G_LIST, LAMBDAS, seed=1)
    assert report.all_passed, report.to_text()


def test_full_radial_shell_dark_state():
    # nine pairs, 36 modes, 512-amplitude paired state: still exactly dark
    from darkpair.operators import apply_operator, build_w
    from darkpair.states import nc_state
    from darkpair.lattice import build_mode_table

    table = build_mode_table(
        LatticeConfig(kf=1.2, delta=0.5, frozen_core=True, volume=1)
    )
    assert len(table.shell_plus) == 9
    nc = nc_state(table)
    assert nc.norm2() == 2**9
    assert len(apply_operator(build_w(table, Fraction(-1)), nc)) == 0


def test_battery_asymmetric_control_fails(minimal_table):
    report = run_battery(
        minimal_table, G_LIST, LAMBDAS, formfactor="asymmetric:3", seed=3
    )
    assert not report.all_passed
    by_id = {c.check_id: c for c in report.checks}
    assert by_id["dark_state"].residual > 1e-12
    assert not by_id["dark_state"].passed


def test_anticommutation_sweep_covers_64_modes():
    # at MAX_MODES the sampled occupations fill the whole uint64 word
    assert _anticommutation_residual(64, 200, np.random.default_rng(0)) == 0


def _unsigned_kernel(monkeypatch, cfg):
    """Check (1)'s kernel loses every fermionic sign."""
    fire = verify._fire

    def unsigned(block, occs):
        term, at, res, odd = fire(block, occs)
        return term, at, res, np.zeros_like(odd)

    monkeypatch.setattr(verify, "_fire", unsigned)


def test_anticommutation_sweep_fires_the_operator_kernel(monkeypatch):
    # a kernel that loses its signs must fail check (1): a_i a+_j and
    # a+_j a_i then add up to 2 instead of cancelling
    _unsigned_kernel(monkeypatch, {})
    assert _anticommutation_residual(8, 200, np.random.default_rng(0)) == 2


def test_battery_json_is_deterministic(minimal_table):
    a = run_battery(minimal_table, G_LIST, LAMBDAS, seed=7).to_json()
    b = run_battery(minimal_table, G_LIST, LAMBDAS, seed=7).to_json()
    assert a == b
    payload = json.loads(a)
    assert payload["all_passed"] is True
    assert "seconds" not in json.dumps(payload)


def test_dark_state_reuses_the_reference_interaction(twopair_table, boosted_table,
                                                     monkeypatch):
    # each operator is built once: W at unit coupling, scaled to every
    # coupling; gamma_k at every shell point, shared by checks (2) to (5);
    # exactly two Wick products with W at every hemisphere point, one per
    # pair monomial, which every [W, pair(k, lam)] is summed from; and no
    # lattice but check (9)'s boosted twin, which a boosted table does not need
    built_w, gammas, products, tables = [], [], [], []
    build_w, build_gamma = verify.build_w, verify.build_gamma
    commutator, build_table = verify.commutator, lattice.build_mode_table

    def counted_w(table, g, weights=None):
        built_w.append((table, g))
        return build_w(table, g, weights)

    def counted_gamma(table, k):
        gammas.append((table, k))
        return build_gamma(table, k)

    def counted_commutator(a, b):
        products.append((a, b))
        return commutator(a, b)

    def counted_table(config):
        tables.append(config)
        return build_table(config)

    monkeypatch.setattr(verify, "build_w", counted_w)
    monkeypatch.setattr(verify, "build_gamma", counted_gamma)
    monkeypatch.setattr(verify, "commutator", counted_commutator)
    monkeypatch.setattr(lattice, "build_mode_table", counted_table)
    for table, boosts in ((twopair_table, [(0, 0, 1)]), (boosted_table, [])):
        weights, _ = from_spec(table, "random:5")
        for g in (Fraction(-1), Fraction(0), Fraction(1, 2)):
            assert build_w(table, 1, weights).scaled(g) == build_w(table, g, weights)
        w_ref = build_w(table, -1)
        monomials = sorted(t for k in table.shell_plus for t in build_pair(table, k, 1).nums)
        for lambdas in (LAMBDAS, [Fraction(0), Fraction(2)]):
            built_w.clear(), gammas.clear(), products.clear(), tables.clear()
            report = run_battery(table, [Fraction(-1), Fraction(1, 2)], lambdas, seed=7)
            assert report.all_passed
            assert built_w == [(table, 1)]
            assert sorted(k for t, k in gammas if t is table) == sorted(table.shell_all)
            # check (9)'s twin reads one gamma_k per hemisphere point of its own
            twins = list({id(t): t for t, _ in gammas if t is not table}.values())
            assert sorted(k for t, k in gammas if t is not table) == sorted(
                k for twin in twins for k in twin.shell_plus)
            assert [twin.config.boost for twin in twins] == boosts
            with_w = [b for a, b in products if a == w_ref]
            assert len(with_w) == 2 * len(table.shell_plus)
            assert sorted(t for b in with_w for t in b.nums) == monomials
            assert [config.boost for config in tables] == boosts


ONE_SQUARE_COUPLINGS = [Fraction(0), Fraction(1, 3), Fraction(-5, 2), Fraction(7),
                        Fraction(10**6)]


@pytest.mark.parametrize("name", ["minimal", "twopair", "threepair_core"])
def test_dark_state_takes_one_square_for_every_coupling(name, monkeypatch):
    # asymmetric weights leave the state bright, so each residual is a
    # nonzero g**2 S1 rooted; it must be the one the image of g W1 gives,
    # by the kernel's apply_operator and by the dictionary oracle
    cfg = load_config(bundled_config_path(name))
    table, spec = cfg["table"], "asymmetric:4"
    weights, _ = from_spec(table, spec)
    state = nc_state(table)
    w1 = build_w(table, 1, weights)
    want = []
    for g in ONE_SQUARE_COUPLINGS:
        w = build_w(table, g, weights)
        norm = apply_operator(w, state).norm()
        want.append(norm / (float(w.one_norm()) * state.norm()) if g else norm)
        assert want[-1].hex() == dark_residual_dict(w, DictState.of(state)).hex()
        assert (want[-1] > 0) == (g != 0)
    got = dark_residuals(w1, doublets(table, functools.partial(build_gamma, table)),
                         ONE_SQUARE_COUPLINGS)
    assert [x.hex() for x in got] == [x.hex() for x in want]

    squares = []
    square = verify.dark_square

    def counted(w, factors):
        squares.append(w)
        return square(w, factors)

    # one closed-form square of W1 serves every coupling
    monkeypatch.setattr(verify, "dark_square", counted)
    for couplings in (ONE_SQUARE_COUPLINGS[1:2], ONE_SQUARE_COUPLINGS):
        squares.clear()
        report = run_battery(table, couplings, [Fraction(-1)], spec)
        assert squares == [w1]
        by_id = {c.check_id: c.residual for c in report.checks}
        assert by_id["dark_state"] == by_id["coupling_independence"] == max(
            x for g, x in zip(ONE_SQUARE_COUPLINGS, want) if g in couplings)


# the bundled configs and the 40-mode battery shell
BATTERY_CONFIGS = {
    **{name: bundled_config_path(name) for name in
       ("minimal", "twopair", "threepair_core", "boosted", "broken_formfactor")},
    "shell10": Path(__file__).parent / "golden" / "shell10" / "config.json",
}


@functools.cache
def _battery_operands(name):
    """The table, check (2)'s W (scaled to the first coupling) and lambdas
    of a config, as ``run_battery`` builds them."""
    cfg = load_config(BATTERY_CONFIGS[name])
    table = cfg["table"]
    weights, _ = from_spec(table, cfg["formfactor"], cfg["seed"])
    w_ref = build_w(table, 1, weights).scaled(Fraction(cfg["couplings"][0]))
    return table, w_ref, [Fraction(lam) for lam in cfg["lambda_values"]]


def _rewritten_bracket(w, pair):
    """[w, pair] normal-ordered by the rewriter from the raw products
    w_i p_j - p_j w_i of every pair of terms."""
    return normal_ordered(
        (sign * cw * cp, factors(tx) + factors(ty))
        for tw, cw in w.terms.items() for tp, cp in pair.terms.items()
        for sign, tx, ty in ((1, tw, tp), (-1, tp, tw)))


def _assert_battery_bracket(name, k, lam):
    table, w_ref, _ = _battery_operands(name)
    pair = build_pair(table, k, lam)
    got = bracket_sum(monomial_brackets(w_ref, table, k), pair)
    assert got == commutator(w_ref, pair)
    assert got == _rewritten_bracket(w_ref, pair)


@pytest.mark.parametrize("name", BATTERY_CONFIGS)
def test_battery_brackets_equal_the_product_and_the_rewriter(name):
    # check (2) sums each [W, pair(k, lam)] from the brackets of the pair's
    # two monomials; the sum must be the record of the Wick product and of
    # the rewriter's normal order, at every hemisphere k and config lambda
    table, _, lambdas = _battery_operands(name)
    for k in table.shell_plus:
        for lam in dict.fromkeys([*lambdas, Fraction(-1), Fraction(0)]):
            _assert_battery_bracket(name, k, lam)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(BATTERY_CONFIGS)), at=st.integers(0, 9),
       lam=st.fractions(max_denominator=10**6))
def test_battery_bracket_at_any_lambda(name, at, lam):
    shell_plus = _battery_operands(name)[0].shell_plus
    _assert_battery_bracket(name, shell_plus[at % len(shell_plus)], lam)


def _negated_closed_form(monkeypatch, cfg):
    """Check (2)'s closed forms [W, pair(k, lam)] change sign."""
    rhs = verify.pair_commutator_rhs
    monkeypatch.setattr(verify, "pair_commutator_rhs",
                        lambda *args: [-r for r in rhs(*args)])


def _bracket_plus(term):
    """A mutation adding ``term(table, t)`` to every monomial bracket
    ``[W, t]``, so to every bracket summed from them."""
    def mutate(monkeypatch, cfg):
        brackets = verify.monomial_brackets
        monkeypatch.setattr(verify, "monomial_brackets", lambda w, table, k: {
            t: b + OperatorExpr({term(table, t): 1})
            for t, b in brackets(w, table, k).items()})
    return mutate


def _off_shell(table, t):
    """A number term on two modes off the shell: the first two inner
    modes of a live core, else the two modes past the table."""
    modes = 0b11 if table.inner_points else 0b11 << table.n_modes
    return modes, modes


def _partner_gamma_sign(monkeypatch, cfg):
    """gamma at a shell_minus point loses its sign."""
    gamma = verify.build_gamma
    monkeypatch.setattr(verify, "build_gamma", lambda table, k: (
        gamma(table, k) if k in table.shell_plus else -gamma(table, k)))


def _asymmetric_weights(monkeypatch, cfg):
    """The asymmetric weight matrix, whose W the paired state is not dark to."""
    cfg["formfactor"] = "asymmetric:3"


def _symmetric_gamma(monkeypatch, cfg):
    """gamma_k becomes the lam = +1 pair, which W does not annihilate."""
    monkeypatch.setattr(verify, "build_gamma", lambda table, k: build_pair(table, k, 1))


def _doubled(name):
    """A mutation doubling every operator that ``verify.<name>`` builds."""
    def mutate(monkeypatch, cfg):
        build = getattr(verify, name)

        def doubled(table):
            ops = build(table)
            return ops.scaled(2) if isinstance(ops, OperatorExpr) else [
                op.scaled(2) for op in ops]
        monkeypatch.setattr(verify, name, doubled)
    return mutate


# One named mutation per check (1) to (9), each breaking what that check
# tests; check (6) has two, one in W and one in the gamma_k records it
# reads the paired state's amplitudes from.  Check (10) reports check
# (6)'s residual, so only check (6)'s mutations fail it: giving check (10)
# a test of its own is the open second half of ROADMAP item 18.
MUTATIONS = {
    "unsigned kernel": ("anticommutation", _unsigned_kernel),
    "negated closed form": ("pair_commutator", _negated_closed_form),
    "pure-creation term": ("gamma_commutator", _bracket_plus(lambda table, t: t)),
    "partner gamma sign": ("gamma_negation", _partner_gamma_sign),
    "off-shell number term": ("core_commutators", _bracket_plus(_off_shell)),
    "asymmetric weights": ("dark_state", _asymmetric_weights),
    "symmetric gamma": ("dark_state", _symmetric_gamma),
    "doubled kinetic energy": ("h0_eigenstate", _doubled("build_h0")),
    "doubled number operator": ("number_eigenvalue", _doubled("build_number_op")),
    "doubled momentum": ("momentum_eigenvalue", _doubled("build_momentum_op")),
}


@pytest.mark.parametrize("frozen", [True, False], ids=["frozen", "unfrozen"])
@pytest.mark.parametrize("check_id, mutate", MUTATIONS.values(), ids=MUTATIONS.keys())
def test_each_check_fails_under_its_named_mutation(check_id, mutate, frozen,
                                                   monkeypatch):
    # the bundled twopair, with its core frozen and live, passes its check
    # and fails it once mutated
    cfg = load_config(bundled_config_path("twopair"))
    table = cfg["table"] if frozen else build_mode_table(
        replace(cfg["lattice"], frozen_core=False))
    assert bool(table.inner_points) is not frozen

    def check():
        report = run_battery(table, cfg["couplings"], cfg["lambda_values"],
                             cfg["formfactor"], cfg["seed"])
        return report.checks[CHECK_IDS.index(check_id)]

    assert check().passed
    mutate(monkeypatch, cfg)
    assert not check().passed


def test_residual_helpers(minimal_table):
    nc = nc_state(minimal_table)
    factors = doublets(minimal_table, functools.partial(build_gamma, minimal_table))
    assert dark_residuals(build_w(minimal_table, 1), factors, [1, Fraction(-3, 2)]) == [0.0, 0.0]
    h0 = build_h0(minimal_table)
    assert eigen_residual(h0, nc, Fraction(2)) == 0.0
    assert eigen_residual(h0, nc, Fraction(3)) == 1.0
    # the closed form's square over |NC>'s doublets, ||NC||**2 = 2 times 1**2
    assert number_square(h0, minimal_table, factors, Fraction(2)) == 0
    assert number_square(h0, minimal_table, factors, Fraction(3)) == 2
    # the closed forms take pair-level and one-mode number terms only
    hop = OperatorExpr.from_monomial(1, [(CREATE, 0), (ANNIHILATE, 1)])
    with pytest.raises(ValueError):
        dark_square(build_w(minimal_table, 1) + hop, factors)
    with pytest.raises(ValueError):
        number_square(h0 + hop, minimal_table, factors, Fraction(2))


GOLDEN = Path(__file__).parent / "golden"
TWOPAIR_LIVE = replace(load_config(bundled_config_path("twopair"))["lattice"],
                       frozen_core=False)
# name: a lattice, its config's weight spec and seed, for the closed forms
# of checks (6) to (9) against the explicit paired state
ORACLE_LATTICES = {
    **{name: bundled_config_path(name) for name in
       ("minimal", "twopair", "threepair_core", "boosted", "broken_formfactor")},
    **{name: GOLDEN / name / "config.json"
       for name in ("shell10", "shell10_asymmetric", "shell16_asymmetric")},
    "twopair_live": TWOPAIR_LIVE,
    "onepair_live": LatticeConfig(kf=1.2, delta=0.5, shell_points=((0, 0, 1), (0, 0, -1)),
                                  volume=1),
    "twopair_live_boosted": replace(TWOPAIR_LIVE, boost=(0, 0, 1), shell_points=tuple(
        (x, y, z + 1) for x, y, z in TWOPAIR_LIVE.shell_points)),
    "shell10_boosted": replace(load_config(GOLDEN / "shell10" / "config.json")["lattice"],
                               boost=(1, 0, -1)),
}
ORACLE_COUPLINGS = [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(7, 3), Fraction(10**9)]


@functools.cache
def _explicit(name):
    """A lattice of ``ORACLE_LATTICES``, its weight spec and seed, its
    paired state built as the explicit record and its doublets."""
    source = ORACLE_LATTICES[name]
    if isinstance(source, LatticeConfig):
        table, spec, seed = build_mode_table(source), "unit", 0
    else:
        cfg = load_config(source)
        table, spec, seed = cfg["table"], cfg["formfactor"], cfg["seed"]
    factors = doublets(table, functools.partial(build_gamma, table))
    return table, spec, seed, nc_state(table), factors


def _number_operators(table):
    """``(operator, eigenvalue)`` of checks (7) to (9) on the table's modes."""
    moments = zip(build_momentum_op(table), nc_momentum(table), table.core_momentum)
    return [(build_h0(table), nc_energy(table) - table.core_energy),
            (build_number_op(table),
             Fraction(table.total_particles_nc() - table.core_particles)),
            *((p, Fraction(total - core)) for p, total, core in moments)]


def _assert_closed_forms(name, spec, seed, couplings, shifts):
    """Check (6)'s closed-form square at every coupling and the number
    squares of checks (7) to (9) at each eigenvalue plus each shift, all
    equal to ``residual_squares`` on the explicit ``|NC>`` as ``Fraction``s;
    and each dark residual, bit for bit, the one the image gives."""
    table, _, _, state, factors = _explicit(name)
    assert verify._norm2(factors) == state.norm2()
    w1 = build_w(table, 1, from_spec(table, spec, seed)[0])
    square = dark_square(w1, factors)
    want = residual_squares(OperatorExpr(), w1, state, couplings)
    assert [g * g * square for g in couplings] == want
    rooted = [math.sqrt(float(x)) for x in want]
    assert dark_residuals(w1, factors, couplings) == [
        x / (float(abs(g) * w1.one_norm()) * state.norm()) if x else x
        for g, x in zip(couplings, rooted)]
    for op, eigenvalue in _number_operators(table):
        # ||(op + g 1)psi||**2 at g = -lam, one image of op for every shift
        lams = [eigenvalue + shift for shift in shifts]
        want = residual_squares(op, OperatorExpr.identity(1), state, [-lam for lam in lams])
        assert [number_square(op, table, factors, lam) for lam in lams] == want
    return square


@pytest.mark.parametrize("name", ORACLE_LATTICES)
def test_closed_forms_equal_the_explicit_route(name):
    # checks (6) to (9) sum exact squares over the doublets of |NC>; each
    # must be the square the explicit state's image gives, at the config's
    # weight and the unit, random and asymmetric ones (the 64-mode table,
    # whose image of W takes seconds, at its own and the unit one), at the
    # right eigenvalues and wrong ones
    table, spec, seed, *_ = _explicit(name)
    specs = [(spec, seed), ("unit", 0), ("random:3", 0), ("asymmetric:5", 0)]
    if table.n_modes == 64:
        specs = specs[:2]
    bright = [_assert_closed_forms(name, spec, seed, ORACLE_COUPLINGS,
                                   [0, Fraction(1, 3), -2]) != 0 for spec, seed in specs]
    assert bright[0] == name.startswith(("broken", "shell10_asym", "shell16"))
    assert bright[1:] == [False, False, True][:len(specs) - 1]


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from([name for name in ORACLE_LATTICES if name != "shell16_asymmetric"]),
       kind=st.sampled_from(["unit", "random", "asymmetric"]), spec_seed=st.integers(0, 10**6),
       couplings=st.lists(st.fractions(max_denominator=10**4), min_size=1, max_size=4),
       shift=st.fractions(max_denominator=100))
def test_closed_forms_at_drawn_couplings_and_weights(name, kind, spec_seed, couplings, shift):
    spec = kind if kind == "unit" else f"{kind}:{spec_seed}"
    _assert_closed_forms(name, spec, spec_seed, couplings, [shift])


def test_battery_builds_no_state_vector(monkeypatch):
    # checks (6) to (9) read |NC> from its doublets: no state is built and
    # no operator is applied to one, on any bundled config
    def refuse(*args, **kwargs):
        raise AssertionError("run_battery built or applied to a state vector")

    for module in [m for key, m in sys.modules.items() if key.startswith("darkpair")]:
        for attr in ("nc_state", "apply_operator"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, refuse)
    for name in ("minimal", "twopair", "threepair_core", "boosted", "broken_formfactor"):
        cfg = load_config(bundled_config_path(name))
        report = run_battery(cfg["table"], cfg["couplings"], cfg["lambda_values"],
                             cfg["formfactor"], cfg["seed"])
        assert report.all_passed == (name != "broken_formfactor")


# ---------------------------------------------------------------------------
# continuum counting
# ---------------------------------------------------------------------------

def test_quadrature_oracle_frozen_value():
    # archived oracle value for kf=1, delta=0.1 (radial quadrature)
    assert math.isclose(
        quadrature_energy_per_particle(1.0, 0.1), 0.6410679611650485,
        rel_tol=0, abs_tol=1e-14,
    )
    assert math.isclose(
        closed_form_energy_per_particle(1.0, 0.1), 0.6603, rel_tol=0, abs_tol=1e-13
    )


def test_gauss_kronrod_oracle_equals_scipy_quad_bit_for_bit():
    """The oracle's rule is QUADPACK's dqk21, whose first estimate
    ``scipy.integrate.quad`` (dqagse) returns for these polynomial
    integrands: every integral and every energy per particle must match
    quad's, on the goldens' and the bundled configs' (kf, delta, c) and on
    1,000 seeded random inputs that ``continuum`` accepts."""
    from scipy.integrate import quad

    def quad_energy_per_particle(kf, delta, c):
        a, b = kf - delta, kf + delta
        e = 2.0 * quad(lambda k: c * k**4, 0.0, a)[0] + quad(lambda k: c * k**4, a, b)[0]
        n = 2.0 * quad(lambda k: k**2, 0.0, a)[0] + quad(lambda k: k**2, a, b)[0]
        return e / n if n else 0.0

    cases = [(1.0, 0.1, 1.0), (1.0, 0.02, 1.0), (1.575, 0.17, 1.0)]
    for name in ("minimal", "twopair", "threepair_core", "boosted", "broken_formfactor"):
        lat = load_config(bundled_config_path(name))["lattice"]
        cases.append((lat.kf, lat.delta, lat.c))
    rng = np.random.default_rng(20)
    for _ in range(1000):
        kf = 10.0 ** rng.uniform(-3.0, 2.0)
        delta = kf * rng.uniform(1e-6, 1.0)
        c = (1.0 if rng.random() < 0.5 else -1.0) * 10.0 ** rng.uniform(-6.0, 6.0)
        cases.append((kf, delta, c))
    for kf, delta, c in cases:
        LatticeConfig(kf=kf, delta=delta, c=c).validate()
        a, b = kf - delta, kf + delta
        for f in (lambda k: c * k**4, lambda k: k**2):
            for lo, hi in ((0.0, a), (a, b)):
                assert verify._gauss_kronrod21(f, lo, hi) == quad(f, lo, hi)[0], (kf, delta, c)
        assert (quadrature_energy_per_particle(kf, delta, c)
                == quad_energy_per_particle(kf, delta, c)), (kf, delta, c)


def test_counting_energy_small_grid_by_hand():
    # refinement 1, kf=1, delta=0.25: inner = {0}, shell = six unit vectors
    rec = counting_energy(1.0, 0.25, 1)
    assert rec["particles"] == 2 + 6
    assert rec["energy"] == 6.0
    assert rec["grid_points"] == 7


def test_counting_energy_allocates_no_grid():
    # row-wise sums: nothing grows with the (2*reach+1)^3 points of the box
    tracemalloc.start()
    try:
        counting_energy(1.0, 0.1, 96)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_counting_converges_to_quadrature_oracle():
    oracle = quadrature_energy_per_particle(1.0, 0.1)
    sizes = [4, 6, 8, 12, 16, 24, 32, 48, 64]
    errs = [
        abs(counting_energy(1.0, 0.1, s)["energy_per_particle"] - oracle) / oracle
        for s in sizes
    ]
    order = -np.polyfit(np.log(sizes), np.log(errs), 1)[0]
    assert order >= 1.0
    assert errs[-1] < 1e-3


def test_small_delta_limit_agrees_with_fermi_sea():
    # as delta -> 0 both candidate forms approach 0.6 * Ef and counting
    # follows within the grid error
    rec = counting_energy(1.0, 0.02, 48)
    assert abs(rec["energy_per_particle"] - 0.6) / 0.6 < 6e-3
    assert abs(closed_form_energy_per_particle(1.0, 0.02)
               - quadrature_energy_per_particle(1.0, 0.02)) < 8e-4


def test_continuum_rows_report_both_forms():
    rows = continuum_energy_check(1.0, 0.1, [8, 16])
    assert len(rows) == 2
    for row in rows:
        assert set(
            ["closed_form", "quadrature_oracle", "dev_closed_form",
             "dev_quadrature", "particles", "energy_per_particle"]
        ) <= set(row)
    # the two candidate forms disagree at delta/kf = 0.1 by ~3 (delta/kf)^2
    dev = abs(rows[0]["closed_form"] - rows[0]["quadrature_oracle"])
    assert 0.018 < dev / rows[0]["quadrature_oracle"] < 0.032


def test_continuum_csv_round_trip_stable():
    rows = continuum_energy_check(1.0, 0.1, [8])
    text = write_csv(CONTINUUM_FIELDS, rows)
    again = write_csv(CONTINUUM_FIELDS, continuum_energy_check(1.0, 0.1, [8]))
    assert text == again
    header = text.splitlines()[0].split(",")
    assert header[0] == "kf" and "dev_quadrature" in header
