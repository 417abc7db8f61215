"""The identity battery: run the model's operator identities as checks.

Symbolic checks are exact (rational arithmetic, tolerance 0); the
paired-state checks root exact squares, summed in closed form over the
state's doublets with no state vector built, and use a 1e-12 relative
tolerance.  A report is deterministic given (config, seeds); wall times
are reported in the text rendering only, so the JSON artifact is
byte-reproducible.

The continuum section compares the closed-form energy per particle with
exact lattice counting at growing grid refinements, and both with a
quadrature oracle (QUADPACK's dqk21 rule, in Python).  The counts and
second moments of the (z, y) rows are summed in closed form, in batches
of whole z-slices (``lattice.band_sums``), so no array grows past one
batch of ``lattice.ROW_BUDGET`` rows.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import formfactors
from .lattice import LatticeError, ModeTable, band_sums, boosted_twin
from .operators import (
    ANNIHILATE,
    CREATE,
    OperatorExpr,
    _compile,
    _fire,
    build_gamma,
    build_h0,
    build_momentum_op,
    build_number_op,
    build_pair,
    build_w,
    commutator,
    pair_commutator_rhs,
)
from .states import nc_energy, nc_momentum

NUMERIC_TOL = 1e-12
ANTICOMMUTATION_SAMPLES = 200  # random (state, i, j) draws of check (1)

CHECK_IDS = (
    "anticommutation",
    "pair_commutator",
    "gamma_commutator",
    "gamma_negation",
    "core_commutators",
    "dark_state",
    "h0_eigenstate",
    "number_eigenvalue",
    "momentum_eigenvalue",
    "coupling_independence",
)


@dataclass
class CheckResult:
    check_id: str
    params: dict
    residual: float
    tolerance: float
    passed: bool
    seconds: float


@dataclass
class VerificationReport:
    lattice: str
    seed: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        # wall times are excluded on purpose: same config + seed must give
        # byte-identical JSON.  The fields are read as they are, not copied
        checks = [{f: v for f, v in vars(c).items() if f != "seconds"}
                  | {"lattice": self.lattice} for c in self.checks]
        payload = {
            "lattice": self.lattice,
            "seed": self.seed,
            "all_passed": self.all_passed,
            "checks": checks,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [
            f"lattice: {self.lattice}",
            f"seed: {self.seed}",
            f"{'check':24s} {'residual':>12s} {'tol':>8s} {'pass':>5s} {'time[s]':>8s}",
        ]
        for c in self.checks:
            lines.append(
                f"{c.check_id:24s} {c.residual:12.3e} {c.tolerance:8.1e} "
                f"{'ok' if c.passed else 'FAIL':>5s} {c.seconds:8.3f}"
            )
        lines.append("overall: " + ("PASS" if self.all_passed else "FAIL"))
        return "\n".join(lines) + "\n"


Doublet = tuple[tuple[int, int], tuple[int, int], int]


def doublets(table: ModeTable, gamma) -> list[Doublet]:
    """The factors of ``|NC> = prod_k gamma_k |Phi>``, one doublet per
    hemisphere point k: the created-mode masks of its two pair levels,
    k's pair and its partner's, their numerators in ``gamma(k)``'s record
    (the keys ``(mask, 0)``) and its denominator.  A level's amplitude is
    that of its canonical pair monomial, so no sign is read."""
    out = []
    for k in table.shell_plus:
        rec = gamma(k)
        levels = tuple(1 << up | 1 << dn
                       for up, dn in map(table.pair_modes, (k, table.partner(k))))
        out.append((levels, tuple(rec.nums.get((m, 0), 0) for m in levels), rec.den))
    return out


def _norm2(factors: list[Doublet]) -> Fraction:
    """``||NC||**2``: the product of the doublets' ``s_a**2 + s_b**2``."""
    return Fraction(math.prod(sa * sa + sb * sb for _, (sa, sb), _ in factors),
                    math.prod(den for *_, den in factors) ** 2)


def dark_square(w1: OperatorExpr, factors: list[Doublet]) -> Fraction:
    """``|| W1|NC> ||**2`` exactly, summed over the doublets of ``|NC>``.

    Pair operators are even, so they commute across doublets and ``|NC>``
    is the product of each doublet's ``s_a|a> + s_b|b>``.  A term of
    ``W1`` keyed ``(C_a, C_b)``, pair levels a and b, moves the pair of
    b's doublet d to a.  Into d itself it leaves d's one pair in a, with
    amplitude ``c_{a,d} = sum_{b in d} w_ab s_b``; into another doublet
    d', whose pair must sit in a's other level, it leaves d empty and d'
    full.  Those images are orthogonal, so with ``n_d = s_a**2 + s_b**2``
    and ``N`` their product, ``||NC||**2``,

        sum_d N/n_d sum_{a in d} c_{a,d}**2
          + sum_{d != d'} N/(n_d n_d') (sum_{a in d'} c_{a,d} s_{other(a)})**2

    on integer numerators, ``O(terms + M**2)`` for M doublets.  A pair
    level's canonical annihilator is minus its creator's adjoint, a sign
    the squares drop.  Each key of ``W1`` must pair two pair levels, as
    ``build_w`` writes them; any other raises ``ValueError``.
    """
    level = {}  # level mask: (its doublet, its amplitude, its other level's)
    for d, ((a, b), (sa, sb), _) in enumerate(factors):
        level[a], level[b] = (d, sa, sb), (d, sb, sa)
    norms = [sa * sa + sb * sb for _, (sa, sb), _ in factors]
    total = math.prod(norms)
    moved: dict = {}  # (b's doublet, level a): c_{a,d}
    for (head, tail), n in w1.nums.items():
        if head not in level or tail not in level:
            raise ValueError("the closed form takes pair-level terms only")
        d, s, _ = level[tail]
        moved[d, head] = moved.get((d, head), 0) + n * s
    inside, across = 0, {}
    for (d, head), c in moved.items():
        e, _, other = level[head]
        if e == d:
            inside += total // norms[d] * c * c
        else:
            across[d, e] = across.get((d, e), 0) + c * other
    square = inside + sum(total // norms[d] // norms[e] * x * x
                          for (d, e), x in across.items())
    return Fraction(square, (w1.den * math.prod(den for *_, den in factors)) ** 2)


def number_square(op: OperatorExpr, table: ModeTable, factors: list[Doublet],
                  eigenvalue: Fraction) -> Fraction:
    """``|| (op - eigenvalue)|NC> ||**2`` exactly, for an ``op`` of one-mode
    number terms alone (``H0``, ``N``, each ``P`` component).

    Each occupation of ``|NC>`` is the filled core (the table's inner
    modes, which come first) and one pair level per doublet, weighted by
    its squared amplitude, and ``op`` takes on it the core's value plus
    each level's.  Over independent levels the square is ``||NC||**2``
    times ``(core + sum_d mu_d - eigenvalue)**2 + sum_d var_d``, mu_d and
    var_d the weighted mean and variance of doublet d's two level values.
    Any other term raises ``ValueError``.
    """
    if any(cm != am or cm.bit_count() != 1 for cm, am in op.nums):
        raise ValueError("the closed form takes one-mode number terms only")
    value = {cm: n for (cm, _), n in op.nums.items()}
    core = (1 << 2 * len(table.inner_points)) - 1
    shift = Fraction(sum(n for cm, n in value.items() if cm & core), op.den) - eigenvalue
    spread = Fraction(0)
    for levels, (sa, sb), _ in factors:
        va, vb = (Fraction(value.get(m & -m, 0) + value.get(m & m - 1, 0), op.den)
                  for m in levels)
        wa, wb = sa * sa, sb * sb
        shift += (wa * va + wb * vb) / (wa + wb)
        spread += wa * wb * (va - vb) ** 2 / (wa + wb) ** 2
    return _norm2(factors) * (shift * shift + spread)


def _eigen_residual(op: OperatorExpr, table: ModeTable, factors: list[Doublet],
                    eigenvalue) -> float:
    """``|| (op - eigenvalue)|NC> || / ||NC||`` rooted from ``number_square``
    as the explicit state's residual is; 0.0 when it vanishes."""
    square = number_square(op, table, factors, eigenvalue)
    return math.sqrt(float(square)) / math.sqrt(float(_norm2(factors))) if square else 0.0


def dark_residuals(w1: OperatorExpr, factors: list[Doublet], couplings) -> list[float]:
    """``|| W|NC> || / (||W||_1 * ||NC||)`` of ``W = g W1`` at each coupling
    ``g``, exactly zero where the image is empty: ``g**2`` times the one
    ``dark_square`` of ``W1`` is each coupling's exact square, and ``g W1``
    has the one-norm ``|g| ||W1||_1``, so each float is the correctly
    rounded value the image of ``g W1`` gives, ``g = 0`` included."""
    one_norm, norm = w1.one_norm(), math.sqrt(float(_norm2(factors)))
    square = dark_square(w1, factors)
    out = []
    for g in couplings:
        length = math.sqrt(float(g * g * square))
        # a dark state's 0 needs no float of g: a coupling may be past its range
        denom = float(abs(g) * one_norm) * norm if length else 0.0
        out.append(length / denom if denom else length)
    return out


def _distance(a: OperatorExpr, b: OperatorExpr) -> Fraction:
    """``(a - b).one_norm()``, summed on the two records' numerators over
    the union of their keys without building ``a - b``; zero at once when
    the records are equal, which they are exactly when the operators are."""
    if a == b:
        return Fraction(0)
    den = math.lcm(a.den, b.den)
    x, y = den // a.den, den // b.den
    return Fraction(sum(abs(a.nums.get(t, 0) * x - b.nums.get(t, 0) * y)
                        for t in a.nums.keys() | b.nums.keys()), den)


def monomial_brackets(w: OperatorExpr, table: ModeTable, k) -> dict:
    """``[w, t]`` for the two monomials t of every ``build_pair(table, k,
    lam)``, keyed by t's ``(C, A)``: the Wick products ``bracket_sum`` sums."""
    return {t: commutator(w, OperatorExpr({t: 1})) for t in build_pair(table, k, 1).nums}


def bracket_sum(brackets: dict, pair: OperatorExpr) -> OperatorExpr:
    """``[w, pair]`` by linearity: ``brackets`` of each term's key times its
    numerator over ``pair.den``, summed on integer numerators."""
    den = math.lcm(*(brackets[t].den for t in pair.nums))
    out: dict = {}
    for t, n in pair.nums.items():
        scale = n * (den // brackets[t].den)
        for key, v in brackets[t].nums.items():
            out[key] = out.get(key, 0) + scale * v
    return OperatorExpr._wrap({key: v for key, v in out.items() if v}, den * pair.den)


def _anticommutation_residual(n_modes: int, samples: int, rng) -> int:
    """Exact sweep of {a_i, a+_j} s = delta_ij s on random states and modes.

    The one-factor terms a_i of every mode are compiled into one
    ``_fire`` block, and so are the a+_j; a block fires on every sample at
    once and each sample keeps its own mode's firing, so the sweep checks
    the sign rule every operator, state and sector matrix runs on.
    """
    occs = rng.integers(0, 1 << n_modes, size=samples, dtype=np.uint64)
    modes = {ANNIHILATE: rng.integers(0, n_modes, size=samples),
             CREATE: rng.integers(0, n_modes, size=samples)}
    blocks = {kind: np.array([_compile(OperatorExpr.from_monomial(1, [(kind, m)]),
                                       n_modes)[0][:4] for m in range(n_modes)],
                             dtype=np.uint64)
              for kind in modes}

    def product(kinds):
        """The factors ``kinds`` on every sample, rightmost first: where the
        product survives, the state it yields and True for a minus sign."""
        alive = np.ones(samples, dtype=bool)
        occ, odd = occs.copy(), np.zeros(samples, dtype=bool)
        for kind in reversed(kinds):
            term, at, res, flip = _fire(blocks[kind], occ)
            own = term == modes[kind][at]
            at = at[own]
            fired = np.zeros(samples, dtype=bool)
            fired[at] = True
            alive &= fired
            occ[at] = res[own]
            odd[at] ^= flip[own]
        return alive.tolist(), occ.tolist(), odd.tolist()

    products = [product((ANNIHILATE, CREATE)), product((CREATE, ANNIHILATE))]
    i, j = modes[ANNIHILATE].tolist(), modes[CREATE].tolist()
    worst = 0
    for s, occ in enumerate(occs.tolist()):
        acc = {occ: -1} if i[s] == j[s] else {}
        for alive, res, odd in products:
            if alive[s]:
                acc[res[s]] = acc.get(res[s], 0) + (-1 if odd[s] else 1)
        worst = max([worst, *map(abs, acc.values())])
    return worst


def run_battery(
    table: ModeTable,
    g_values: Sequence,
    lambda_values: Sequence,
    formfactor: str = "unit",
    seed: int = 0,
) -> VerificationReport:
    """The fixed battery on ``table``: one record per check id, fixed order.

    Each check is a function returning ``(params, residual, tolerance)``;
    one loop runs them in ``CHECK_IDS`` order and times each one.  Each
    operator is built once: ``W`` at unit coupling, scaled to the first
    coupling for checks (2) to (5), and each ``gamma_k`` on first use, so
    a check's ``seconds`` include what it builds first.  Check (2) takes
    one Wick product with ``W`` per pair monomial at each hemisphere ``k``,
    sums each ``[W, pair(k, lam)]`` from the two and keeps
    ``[W, gamma_k]`` for checks (3) and (5).  Checks (6) to (9) root exact
    squares summed over the doublets of ``|NC>``, read from the gamma_k
    records, and build no state vector: (6) one ``dark_square`` of ``W``
    for every coupling (``dark_residuals``), whose maximum (10) reports,
    and (7) to (9) a ``number_square`` of each number operator.
    """
    g_values = [Fraction(g) for g in g_values]
    lambda_values = [Fraction(l) for l in lambda_values]
    weights, ff_name = formfactors.from_spec(table, formfactor, seed)
    rng = np.random.default_rng(seed)

    g_ref = g_values[0] if g_values else Fraction(1)
    w1 = build_w(table, 1, weights)
    w_ref = w1.scaled(g_ref)
    dark = 0.0  # check (6)'s residual, which check (10) reports too

    gamma = functools.cache(lambda k: build_gamma(table, k))
    factors = doublets(table, gamma)
    gamma_bracket = {}  # k: [W, gamma_k] and its distance to the closed form

    def anticommutation():
        """(1) canonical anticommutation relations on the table's modes"""
        res = _anticommutation_residual(table.n_modes, ANTICOMMUTATION_SAMPLES, rng)
        return {"samples": ANTICOMMUTATION_SAMPLES}, res, 0.0

    def pair_commutator():
        """(2) [W, pair(k, lam)] against its closed form, one hemisphere k
        at a time: two monomial brackets live beside the kept [W, gamma_k]"""
        lams = [*dict.fromkeys([*lambda_values, Fraction(-1)])]
        res = Fraction(0)
        for k in table.shell_plus:
            brackets, dist = monomial_brackets(w_ref, table, k), {}
            for lam, rhs in zip(lams, pair_commutator_rhs(table, k, lams, g_ref, weights)):
                lhs = bracket_sum(brackets, gamma(k) if lam == -1 else build_pair(table, k, lam))
                dist[lam] = _distance(lhs, rhs)
                if lam == -1:
                    gamma_bracket[k] = lhs, dist[lam]
            res += sum(dist[lam] for lam in lambda_values)
        params = {"lambdas": [str(l) for l in lambda_values], "g": str(g_ref),
                  "formfactor": ff_name}
        return params, res, 0.0

    def gamma_commutator():
        """(3) [W, gamma_k] against the annihilator-terminated closed form;
        every normal-ordered term must end in annihilators (no pure-creation
        part)"""
        res = Fraction(0)
        for k in table.shell_plus:
            lhs, dist = gamma_bracket[k]
            res += dist
            res += Fraction(sum(abs(n) for (_, am), n in lhs.nums.items() if am == 0),
                            lhs.den)
        return {"g": str(g_ref), "formfactor": ff_name}, res, 0.0

    def gamma_negation():
        """(4) gamma at the partner point is the negative"""
        res = Fraction(0)
        for k in table.shell_plus:
            res += (gamma(table.partner(k)) + gamma(k)).one_norm()
        for k in table.shell_plus:
            for kp in table.shell_plus:
                if k != kp:
                    res += commutator(gamma(k), gamma(kp)).one_norm()
        return {}, res, 0.0

    def core_commutators():
        """(5) W and every [W, gamma_k] commute with the filled core: the
        one-norm of their terms that touch a mode off the shell, an inner
        mode (those come first) or one past the table.  The core product
        Phi creates two modes per core point, so it commutes with any
        operator on other modes: a shell-supported operator's commutator
        with it is 0, on a frozen core and on a live one"""
        points = table.core_particles // 2 + len(table.inner_points)
        # the inner modes and, as a negative int, every mode past the table
        off = (1 << 2 * len(table.inner_points)) - 1 | -(1 << table.n_modes)
        res = Fraction(0)
        for op in (w_ref, *(gamma_bracket[k][0] for k in table.shell_plus)):
            res += Fraction(sum(abs(n) for (cm, am), n in op.nums.items()
                                if (cm | am) & off), op.den)
        return {"inner_points": points}, res, 0.0

    def dark_state():
        """(6) the paired state is dark for every coupling: one closed-form
        square of W1 serves every ``g`` (``dark_residuals``)"""
        nonlocal dark
        dark = max(dark_residuals(w1, factors, g_values), default=0.0)
        return {"g": [str(g) for g in g_values], "formfactor": ff_name}, dark, NUMERIC_TOL

    def h0_eigenstate():
        """(7) kinetic eigenstate with the counting-oracle eigenvalue"""
        e_expect = nc_energy(table) - table.core_energy  # table-space part
        res = _eigen_residual(build_h0(table), table, factors, e_expect)
        return {"energy": str(nc_energy(table))}, res, NUMERIC_TOL

    def number_eigenvalue():
        """(8) particle-number eigenvalue"""
        n_total = table.total_particles_nc()
        n_table = n_total - table.core_particles
        res = _eigen_residual(build_number_op(table), table, factors, Fraction(n_table))
        return {"particles": n_total}, res, NUMERIC_TOL

    def momentum_eigenvalue():
        """(9) momentum eigenvalue, here and on a boosted twin"""
        res = _momentum_residual(table, factors)
        boost_K = table.config.boost
        if boost_K == (0, 0, 0):
            btab = boosted_twin(table, (0, 0, 1))
            res = max(res, _momentum_residual(
                btab, doublets(btab, lambda k: build_gamma(btab, k))))
            boost_K = (0, 0, 1)
        return {"boost_checked": list(boost_K)}, res, NUMERIC_TOL

    def coupling_independence():
        """(10) one state, every coupling: residual must not depend on g"""
        return {"g": [str(g) for g in g_values]}, dark, NUMERIC_TOL

    checks = (anticommutation, pair_commutator, gamma_commutator, gamma_negation,
              core_commutators, dark_state, h0_eigenstate, number_eigenvalue,
              momentum_eigenvalue, coupling_independence)
    report = VerificationReport(lattice=table.descriptor(), seed=seed)
    for check_id, check in zip(CHECK_IDS, checks, strict=True):
        t0 = time.perf_counter()
        params, residual, tolerance = check()
        residual = float(residual)
        report.checks.append(CheckResult(check_id, params, residual, tolerance,
                                         residual <= tolerance, time.perf_counter() - t0))
    return report


def _momentum_residual(table: ModeTable, factors: list[Doublet]) -> float:
    p_ops = build_momentum_op(table)
    expect = nc_momentum(table)
    res = 0.0
    for axis in range(3):
        table_component = expect[axis] - table.core_momentum[axis]
        res = max(res, _eigen_residual(p_ops[axis], table, factors, Fraction(table_component)))
    return res


# ---------------------------------------------------------------------------
# continuum energy comparison (pure counting, no Fock space)
# ---------------------------------------------------------------------------

GRID_CAP = 1 << 24  # grid points of a refinement; bounds the work of counting its rows


class GridSizeError(ValueError):
    """A continuum refinement's grid would exceed GRID_CAP points."""


def _grid_bounds(kf: float, delta: float, refinement: int) -> tuple[int, int, int]:
    """Squared grid-norm bounds (inner max, shell low, shell high); the
    inner region ends just below the shell, as the lattice's band does."""
    scale = refinement * refinement
    lo2 = (Fraction(kf) - Fraction(delta)) ** 2 * scale
    hi2 = (Fraction(kf) + Fraction(delta)) ** 2 * scale
    return math.ceil(lo2) - 1, math.ceil(lo2), math.floor(hi2)


def counting_energy(kf: float, delta: float, refinement: int, c: float = 1.0) -> dict:
    """Exact lattice sums of the paired construction at one grid refinement.

    ``refinement`` scales the box so the momentum quantum is 1/refinement;
    counts and integer second moments are summed row by row by
    ``lattice.band_sums``, exactly, and converted to floats at the end.
    """
    q = Fraction(1, refinement)
    inner_max, shell_lo, shell_hi = _grid_bounds(kf, delta, refinement)
    inner_count, inner_m2 = band_sums(0, inner_max)
    shell_count, shell_m2 = band_sums(shell_lo, shell_hi)

    n_particles = 2 * inner_count + shell_count
    energy = Fraction(c) * q**2 * (2 * inner_m2 + shell_m2)
    return {
        "refinement": refinement,
        "grid_points": inner_count + shell_count,
        "particles": n_particles,
        "energy": float(energy),
        "energy_per_particle": float(energy) / n_particles if n_particles else math.nan,
    }


def closed_form_energy_per_particle(kf: float, delta: float, c: float = 1.0) -> float:
    """The model's closed-form per-particle energy 0.6*Ef*(1+10r^2+5r^4)."""
    r = delta / kf
    return 0.6 * c * kf * kf * (1.0 + 10.0 * r**2 + 5.0 * r**4)


# QUADPACK's dqk21 (Piessens et al., 1983): the 11 non-negative of its 21
# Kronrod nodes on [-1, 1], the centre last, and their weights; the odd
# indices (even in QUADPACK's count from 1) hold the 10-point Gauss nodes.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208980809453, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)


def _gauss_kronrod21(f, a: float, b: float) -> float:
    """dqk21's 21-point Kronrod estimate of the integral of ``f`` over
    [a, b], summed in dqk21's order: the centre term, the Gauss node pairs,
    the other pairs, times the half-length.  Exact up to rounding for
    polynomials of degree up to 31."""
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    total = _WGK[10] * f(centre)
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        x = half * _XGK[j]
        total += _WGK[j] * (f(centre - x) + f(centre + x))
    return total * half


def quadrature_energy_per_particle(kf: float, delta: float, c: float = 1.0) -> float:
    """Independent continuum oracle by numerical quadrature.

    Doubly occupied ball of radius kf-delta plus singly occupied shell:
    the energy integrals of ``c*k**4`` and the particle integrals of
    ``k**2``, each by ``_gauss_kronrod21`` on [0, kf-delta] and on
    [kf-delta, kf+delta]; 0.0 when the particle integral underflows to 0.

    The integrands are polynomials of degree at most 4, which the rule
    integrates exactly, so the error estimate of QUADPACK's dqagse sits at
    rounding level and dqagse returns its first dqk21 estimate without
    subdividing.  The oracle therefore equals ``scipy.integrate.quad``
    (dqagse) bit for bit while the integrand and its sums stay finite;
    where they overflow, this gives inf and quad subdivides.
    """
    a, b = kf - delta, kf + delta
    e_inner = _gauss_kronrod21(lambda k: c * k**4, 0.0, a)
    e_shell = _gauss_kronrod21(lambda k: c * k**4, a, b)
    n_inner = _gauss_kronrod21(lambda k: k**2, 0.0, a)
    n_shell = _gauss_kronrod21(lambda k: k**2, a, b)
    particles = 2.0 * n_inner + n_shell
    return (2.0 * e_inner + e_shell) / particles if particles else 0.0


def continuum_energy_check(
    kf: float, delta: float, sizes: Sequence[int], c: float = 1.0
) -> list[dict]:
    """One row per grid refinement comparing counting with both candidate
    closed forms; deviations are relative.

    Raises GridSizeError before any work if a refinement's grid exceeds
    GRID_CAP points, and LatticeError if a closed form is 0 (``c = 0``),
    since the deviations are relative to it.
    """
    for size in sizes:
        points = (2 * math.isqrt(_grid_bounds(kf, delta, size)[2]) + 1) ** 3
        if points > GRID_CAP:
            raise GridSizeError(
                f"continuum grid at size {size} has {points} points, "
                f"over the cap {GRID_CAP}"
            )
    closed = closed_form_energy_per_particle(kf, delta, c)
    oracle = quadrature_energy_per_particle(kf, delta, c)
    if closed == 0 or oracle == 0:
        raise LatticeError(
            f"the continuum energy per particle is 0 at kf={kf}, delta={delta}, "
            f"c={c}; deviations relative to it are undefined"
        )
    rows = []
    for size in sizes:
        rec = counting_energy(kf, delta, size, c)
        e = rec["energy_per_particle"]
        rec.update(
            {
                "kf": kf,
                "delta": delta,
                "closed_form": closed,
                "quadrature_oracle": oracle,
                "dev_closed_form": abs(e - closed) / abs(closed),
                "dev_quadrature": abs(e - oracle) / abs(oracle),
            }
        )
        rows.append(rec)
    return rows


CONTINUUM_FIELDS = (
    "kf",
    "delta",
    "refinement",
    "grid_points",
    "particles",
    "energy",
    "energy_per_particle",
    "closed_form",
    "quadrature_oracle",
    "dev_closed_form",
    "dev_quadrature",
)
