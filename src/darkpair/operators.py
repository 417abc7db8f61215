"""Symbolic second-quantized operators with exact coefficients.

An operator is a finite sum of monomials ``coeff * f1 f2 ... fd`` where
each factor is a creation ("c") or annihilation ("a") of one mode.  Every
stored monomial is in canonical normal order, all creations before all
annihilations and each block ascending by mode, and is stored as its key
``(C, A)``: the masks of its created and annihilated modes, bit m for
mode m, with no width limit.  A monomial given as its creations followed
by its annihilations (``from_monomial(s)``) reaches that form by sorting
each block, the sign being the parity of the sort, and is zero when a
block repeats a mode; products of operators (``compose``, ``commutator``)
expand by Wick's theorem on the masks, one sum over contraction sets per
pair of terms, so a product of raw factors in any order is ``compose`` of
one-factor operators.  Each operand's terms are grouped by their
annihilated modes (``_wick_form``), so a group that no contraction can
reach is passed over in one test.

An operator is an exact integer record, as a ``StateVector`` is: each
key's nonzero integer numerator over one denominator in lowest terms, so
equal operators have equal records, which turns commutator identities
into decidable checks.  Every producer and kernel (``compose``,
``commutator``, ``apply_operator``, ``matrix_in_sector``) works on the
numerators: int64 while the kernels' sums are small, Python ints beyond.
``apply_operator`` and ``matrix_in_sector`` fire terms on states through
one loop (``_firings``) that sums the number-type terms, which map each
state to itself, per state onto the diagonal.  A sector matrix has one
form, the ``SectorCOO`` of its unsummed integer numerators, which callers
turn into a dense array or CSR as they need.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator

import numpy as np

from .fock import MAX_MODES, StateVector, _Fractions, _numerators, _square_sum, mode_bit
from .formfactors import Weights, from_spec
from .lattice import IVec, ModeTable

CREATE = "c"
ANNIHILATE = "a"

Factor = tuple[str, int]
Term = tuple[int, int]  # (C, A): the created and the annihilated modes, bit m for mode m

FIRE_BUDGET = 1 << 14  # (term, state) pairs one ``_fire`` block tests: 128 KB of uint64
_NIBBLES = np.uint64(0x1111111111111111)


class ShellDomainError(ValueError):
    """A pair construction was requested for a point outside the shell."""


def _exact(coeff):
    """``coeff`` itself when it is an int or a ``Fraction`` (both carry a
    ``numerator`` and a ``denominator``); any other type raises ``TypeError``."""
    if isinstance(coeff, (int, Fraction)):
        return coeff
    raise TypeError(
        f"operator coefficients are exact rationals, not {type(coeff).__name__}"
    )


class OperatorExpr:
    """The exact record of an operator: ``nums`` maps each canonical
    term's ``(C, A)`` key, the identity at ``(0, 0)``, to its nonzero
    integer numerator over ``den > 0``, ``gcd(den, *nums) == 1``, so equal
    operators have equal records.  The constructor takes a ``{key: int or
    Fraction}`` map and drops zeros; ``terms`` reads the record back."""

    __slots__ = ("nums", "den", "_wick")

    def __init__(self, terms: dict[Term, object] | None = None):
        terms = terms or {}
        for key in terms:
            if not (type(key) is tuple and len(key) == 2
                    and all(type(m) is int and m >= 0 for m in key)):
                raise ValueError(
                    f"term {key!r} is not a (C, A) pair of non-negative int "
                    "masks; build operators with OperatorExpr.from_monomial(s)"
                )
        nums, den = _numerators([_exact(c) for c in terms.values()])
        record = self._wrap({t: n for t, n in zip(terms, nums) if n}, den)
        self.nums, self.den, self._wick = record.nums, record.den, None

    # -- constructors -------------------------------------------------
    @classmethod
    def _wrap(cls, nums: dict[Term, int], den: int = 1) -> "OperatorExpr":
        """Unchecked constructor for maps of canonical keys to nonzero
        numerators over ``den > 0``, which it brings to lowest terms."""
        common = math.gcd(den, *nums.values())
        expr = object.__new__(cls)
        expr.nums = {t: n // common for t, n in nums.items()} if common > 1 else nums
        expr.den = den // common
        expr._wick = None  # the bitmask form of ``_wick_form``, built on first use
        return expr

    @classmethod
    def identity(cls, coeff=1) -> "OperatorExpr":
        coeff = _exact(coeff)
        return cls._wrap({(0, 0): coeff.numerator} if coeff else {}, coeff.denominator)

    @classmethod
    def from_monomial(cls, coeff, factors: Iterable[Factor]) -> "OperatorExpr":
        return cls.from_monomials([(coeff, factors)])

    @classmethod
    def from_monomials(
        cls, monomials: Iterable[tuple[object, Iterable[Factor]]]
    ) -> "OperatorExpr":
        """The sum of ``coeff * factors`` over ``monomials``, each factor
        string its creations followed by its annihilations, each block in
        any order: it is sorted, with the sign of the sort, and zero when it
        repeats a mode.  An annihilation before a creation raises
        ``ValueError`` (``compose`` multiplies such factors)."""
        found = []  # (key, odd, coeff) of each nonzero monomial
        for coeff, factors in monomials:
            coeff, factors = _exact(coeff), tuple(factors)
            if coeff == 0:
                continue
            cm = am = odd = 0  # odd: the sort's inversions, earlier modes above each
            for kind, mode in factors:
                if kind == ANNIHILATE:
                    odd += (am >> mode).bit_count()
                    am |= 1 << mode
                elif kind == CREATE and not am:
                    odd += (cm >> mode).bit_count()
                    cm |= 1 << mode
                else:
                    raise ValueError(f"monomial {factors} is not its creations followed "
                                     "by its annihilations; multiply such factors with compose")
            if cm.bit_count() + am.bit_count() == len(factors):  # else a block repeats a mode
                found.append(((cm, am), odd & 1, coeff))
        values, den = _numerators([coeff for _, _, coeff in found])
        nums: dict[Term, int] = {}
        for (key, odd, _), num in zip(found, values):
            nums[key] = nums.get(key, 0) + (-num if odd else num)
        return cls._wrap({t: n for t, n in nums.items() if n}, den)

    # -- linear structure ---------------------------------------------
    def __add__(self, other: "OperatorExpr", sign: int = 1) -> "OperatorExpr":
        """``self + sign * other``, summed over the lcm of the denominators."""
        den = math.lcm(self.den, other.den)
        mine, theirs = den // self.den, sign * (den // other.den)
        out = {t: n * mine for t, n in self.nums.items()}
        for t, n in other.nums.items():
            out[t] = out.get(t, 0) + n * theirs
        return OperatorExpr._wrap({t: n for t, n in out.items() if n}, den)

    def __sub__(self, other: "OperatorExpr") -> "OperatorExpr":
        return self.__add__(other, -1)

    def __neg__(self) -> "OperatorExpr":
        return OperatorExpr._wrap({t: -n for t, n in self.nums.items()}, self.den)

    def scaled(self, factor) -> "OperatorExpr":
        factor = _exact(factor)
        return OperatorExpr._wrap({t: n * factor.numerator for t, n in self.nums.items()}
                                  if factor else {}, self.den * factor.denominator)

    def compose(self, other: "OperatorExpr") -> "OperatorExpr":
        """Operator product, normal-ordered by Wick's theorem (``_products``)."""
        return _products(self, other, commute=False)

    # -- queries --------------------------------------------------------
    @property
    def terms(self) -> Mapping[Term, Fraction]:
        """The coefficients as a read-only ``{key: Fraction}`` view, each
        ``Fraction`` built when read; no kernel reads it."""
        return _Fractions(self.nums, self.den)

    def __len__(self) -> int:
        return len(self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other) -> bool:
        return (isinstance(other, OperatorExpr) and self.den == other.den
                and self.nums == other.nums)

    def one_norm(self) -> Fraction:
        """Sum of |coefficients|: a cheap, basis-free operator-size bound."""
        return Fraction(sum(map(abs, self.nums.values())), self.den)

    def conserves_particle_number(self) -> bool:
        return all(cm.bit_count() == am.bit_count() for cm, am in self.nums)

    def __repr__(self) -> str:
        if not self.nums:
            return "OperatorExpr(0)"
        bits = []
        for (cm, am), n in sorted(self.nums.items())[:8]:  # sorted for display
            fs = " ".join([f"{CREATE}{m}" for m in _modes(cm)]
                          + [f"{ANNIHILATE}{m}" for m in _modes(am)]) or "1"
            bits.append(f"({Fraction(n, self.den)})*{fs}")
        more = "" if len(self.nums) <= 8 else f" ... [{len(self.nums)} terms]"
        return "OperatorExpr(" + " + ".join(bits) + more + ")"


def _modes(mask: int) -> list[int]:
    """The modes of a bitmask whose bit m is mode m, ascending."""
    modes = []
    while mask:
        low = mask & -mask
        modes.append(low.bit_length() - 1)
        mask ^= low
    return modes


def _above(mask: int) -> int:
    """The bits z with an odd number of ``mask`` bits below z, a negative
    int when ``mask`` has an odd number of bits (bit m's bits above it are
    ``-(2 << m)``, with no width): ``(x & _above(y)).bit_count()`` is
    #{(i, j): i in x, j in y, i > j} mod 2 for any ``x >= 0``."""
    out = 0
    while mask:
        low = mask & -mask
        out ^= -(low << 1)
        mask ^= low
    return out


def _wick_form(expr: OperatorExpr) -> tuple:
    """``(groups, creates, den, width)``: what ``_products`` reads of an
    operand, built on the operand's first product and kept in its
    ``_wick`` slot.

    ``groups[p]`` holds the terms ``(C, A)`` of odd degree ``p`` grouped
    by their annihilated modes: one ``(A, _above(A), terms)`` tuple per
    distinct ``A``, ``terms`` a list of ``(C, _above(C), numerator)``, the
    record's numerators over its ``den``.  ``creates[p]`` is the
    union of the ``C`` masks in ``groups[p]`` and ``width`` one more than
    the highest mode.  The masks do not depend on a partner's width, so
    one form serves every product; it stays valid because no code changes
    ``terms`` after the operator is built.
    """
    if expr._wick is None:
        by_a: tuple[dict, dict] = ({}, {})
        creates = [0, 0]
        for (cm, am), v in expr.nums.items():
            odd = (cm.bit_count() + am.bit_count()) & 1
            by_a[odd].setdefault(am, []).append((cm, _above(cm), v))
            creates[odd] |= cm
        groups = tuple([(am, _above(am), terms) for am, terms in parity.items()]
                       for parity in by_a)
        width = max(((cm | am).bit_length() for cm, am in expr.nums), default=0)
        expr._wick = groups, creates, expr.den, width
    return expr._wick


def commutator(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    """Normal-ordered AB - BA, equal to ``a.compose(b) - b.compose(a)``,
    summed in one pass of ``_products``."""
    return _products(a, b, commute=True)


def _products(a: OperatorExpr, b: OperatorExpr, commute: bool) -> OperatorExpr:
    """``AB``, or ``AB - BA`` when ``commute``, normal-ordered by Wick's theorem.

    Canonical monomials ``X = C1 A1`` and ``Y = C2 A2`` (sets of modes)
    multiply to a sum over contraction sets ``S`` of ``A1 & C2``
    (``_wick_sum``).  Both orders are summed as integer numerators over the
    product of the two records' denominators into one map, ``BA`` negated,
    and only the terms that survive get their ``(C, A)`` keys, in a record
    reduced once.
    In ``AB - BA`` the uncontracted term (``S`` empty) of ``XY`` is
    ``:XY:`` and that of ``YX`` is ``(-1)**(deg X * deg Y) :XY:``, so it
    is built only for pairs of odd-degree terms: every other pair
    contributes its contractions alone.
    """
    (groups_a, cre_a, den_a, width_a), (groups_b, cre_b, den_b, width_b) = map(_wick_form, (a, b))
    width = max(width_a, width_b)
    top = (1 << width) - 1

    out: dict[int, int] = {}
    for pa, pb in itertools.product((0, 1), repeat=2):
        empty = not commute or pa & pb
        _wick_sum(groups_a[pa], groups_b[pb], cre_b[pb], width, out, False, empty)
        if commute:
            _wick_sum(groups_b[pb], groups_a[pa], cre_a[pa], width, out, True, empty)

    return OperatorExpr._wrap({(key >> width, key & top): value for key, value in out.items()},
                              den_a * den_b)


def _wick_sum(left: list[tuple], right: list[tuple], right_creates: int, width: int,
              out: dict[int, int], negate: bool, empty: bool) -> None:
    """Add the product ``left * right`` of two operands given as
    ``_wick_form`` groups into ``out``, keyed ``C << width | A``;
    ``negate`` subtracts it, and ``empty=False`` leaves out every
    uncontracted term, and with it every left group whose ``A`` meets none
    of ``right_creates``, the union of the right terms' ``C``, tested once
    per group.  An empty ``right`` adds nothing.

    A pair of terms contributes a term for each contraction set ``S`` of
    ``A1 & C2``.  A term is zero when ``C1`` meets ``C2 - S`` or ``A1 - S``
    meets ``A2``, so ``S`` holds every mode ``C1`` shares with ``C2`` and
    ``A1`` with ``A2``.  The term ``(C1 | C2 - S) (A1 - S | A2)`` has the
    sign (-1)**p, p the sum of

    * sum over s in S of #{x in A1 - S: x > s} + #{y in C2: y < s},
    * |A1 - S| * |C2 - S|,
    * sum over y in C2 - S of #{c in C1: c > y},
    * sum over x in A1 - S of #{a in A2: a < x},

    each a count of pairs that ``_above`` turns into a parity.  A sum that
    reaches zero leaves ``out``, as in ``from_monomials``.
    """
    if not right:
        return
    for am1, _, terms1 in left:
        if not (am1 & right_creates or empty):
            continue  # nothing to contract: only uncontracted terms
        for am2, aup2, terms2 in right:
            shared = am1 & am2
            for cm1, _, v1 in terms1:
                for cm2, cup2, v2 in terms2:
                    free = am1 & cm2
                    must = (cm1 & cm2) | shared
                    if must & ~free or not (free or empty):
                        continue
                    free ^= must
                    value = -v1 * v2 if negate else v1 * v2
                    sub = free
                    while True:
                        s = must | sub
                        if not (s or empty):
                            break  # the uncontracted term, enumerated last
                        a1, c2 = am1 ^ s, cm2 ^ s
                        sup = _above(s)
                        p = (((a1 & (sup ^ aup2)) ^ (s & cup2) ^ (cm1 & (cup2 ^ sup)))
                             .bit_count() + a1.bit_count() * c2.bit_count())
                        key = (cm1 | c2) << width | a1 | am2
                        cur = out.get(key, 0) + (-value if p & 1 else value)
                        if cur == 0:
                            out.pop(key, None)
                        else:
                            out[key] = cur
                        if not sub:
                            break
                        sub = (sub - 1) & free


# ---------------------------------------------------------------------------
# application to state vectors
# ---------------------------------------------------------------------------

def _compile(expr: OperatorExpr, n_modes: int) -> list[tuple]:
    """Flat bitmask terms ``(cmask, amask, cpar, apar, num)``, one per term,
    ``num`` the record's numerator over ``expr.den``.

    ``cmask``/``amask`` hold the created/annihilated modes in ``mode_bit``'s
    layout; ``cpar``/``apar`` are the XOR of the "modes with smaller index"
    masks of those modes, so the parity of the occupied modes they select
    is the term's fermionic sign.  That holds for canonical terms, the only
    ones an ``OperatorExpr`` holds.  The number-type terms (``cmask ==
    amask``) come first, for ``_firings``, then the others, each in
    ``terms``' order; every kernel sums exact integers, so no order
    changes a result.
    """
    full = 1 << n_modes
    words: dict[int, tuple[int, int]] = {}  # terms share their blocks' masks

    def word(mask: int) -> tuple[int, int]:
        if mask not in words:
            bits = par = 0
            for mode in _modes(mask):
                bit = mode_bit(n_modes, mode)
                bits |= bit
                par ^= full - (bit << 1)  # the bits above ``bit``
            words[mask] = bits, par
        return words[mask]

    numbers, moves = [], []
    for (cm, am), num in expr.nums.items():
        (cbits, cpar), (abits, apar) = word(cm), word(am)
        (moves if cm != am else numbers).append((cbits, abits, cpar, apar, num))
    return numbers + moves


def _blocks(compiled: list[tuple], n_states: int) -> Iterator[tuple[int, np.ndarray]]:
    """The compiled terms in blocks of at most ``FIRE_BUDGET`` (term, state)
    pairs on ``n_states`` states, one term at least: each block's first
    term index and its terms' ``(cmask, amask, cpar, apar)`` rows as a
    uint64 array."""
    step = max(1, FIRE_BUDGET // max(n_states, 1))
    for first in range(0, len(compiled), step):
        yield first, np.array([term[:4] for term in compiled[first:first + step]],
                              dtype=np.uint64)


def _fire(block: np.ndarray, occs):
    """Where the terms of a ``_blocks`` block fire on the uint64 array
    ``occs``: for each firing its term's row in the block, its state's
    position, the occupation it yields and True where its sign is
    negative, term by term and, within a term, in state order.

    Every term is tested against every state at once.  Annihilators act
    first, right to left: a term fires where its annihilated modes are
    occupied and its created modes are empty after the annihilation.
    """
    cmask, amask, cpar, apar = block.T
    hit = occs & (cmask | amask)[:, None] == amask[:, None]
    term, at = np.divmod(np.flatnonzero(hit), len(occs))
    occ = occs[at]
    mid = occ ^ amask[term]
    odd = (occ & apar[term]) ^ (mid & cpar[term])
    odd ^= odd >> np.uint64(1)  # parity: each nibble's, summed into the top one
    odd ^= odd >> np.uint64(2)
    odd = (odd & _NIBBLES) * _NIBBLES >> np.uint64(60)
    return term, at, mid | cmask[term], (odd & np.uint64(1)).astype(bool)


def _values(coeffs: list[int], cden: int, amps: np.ndarray,
            aden: int) -> tuple[np.ndarray, np.ndarray, int]:
    """``(signed, amps, den)``: the integer numerators both kernels multiply,
    for the coefficients ``coeffs / cden`` and the amplitudes
    ``amps / aden``.

    ``signed[2 * t + odd]`` is term t's coefficient with its sign, and
    products of ``signed`` and ``amps`` are over ``den``.  Both arrays are
    int64 while ``den`` and the sum of ``|coefficient| * |amplitude|``
    numerators stay below 2**53, so that every partial sum of one entry is
    an integer float64 holds exactly, Python ints (object dtype) beyond.
    The bound is summed on Python ints: numpy's int64 sums would wrap.
    Amplitudes already held as Python ints stay Python ints.
    """
    den = cden * aden
    wide = amps.dtype == object or max(
        den, sum(map(abs, coeffs)) * sum(map(abs, amps.tolist()))) >= 1 << 53
    dtype = object if wide else np.int64
    signed = np.array([s for c in coeffs for s in (c, -c)], dtype=dtype)
    return signed, amps.astype(dtype, copy=False), den


def _firings(compiled: list[tuple], signed: np.ndarray, occs: np.ndarray,
             moved: Callable) -> tuple[np.ndarray, np.ndarray]:
    """The one loop ``_image`` and ``_sector_entries`` fire terms through.
    ``moved(vals, at, res)`` takes each block's firings of the terms that
    move a state: each one's value in ``signed`` (over a unit amplitude),
    the position in ``occs`` of the state it fires on and the occupation
    it yields.  Number-type terms (``cmask == amask``, the identity among
    them) yield the state they fire on: they lead ``compiled``, as
    ``_compile`` orders it, so their firings are a prefix of a block's,
    and are summed per state into the ``(sums, positions)`` returned,
    each state any of them fires on, in order.

    ``moved`` is a callback, not the consumer of a generator: a suspended
    generator holds a block's arrays while its caller allocates its own,
    which left a larger heap behind (the ``spectra`` benchmark's peak RSS
    rose from 140 to 154 MB)."""
    numbers = sum(term[0] == term[1] for term in compiled)
    diag = np.zeros(len(occs), dtype=signed.dtype)
    on_diag = np.zeros(len(occs), dtype=bool)
    for first, block in _blocks(compiled, len(occs)):
        term, at, res, odd = _fire(block, occs)
        vals = signed.take(2 * (first + term) + odd)
        split = np.searchsorted(term, numbers - first)
        if split:
            np.add.at(diag, at[:split], vals[:split])
            on_diag[at[:split]] = True
        if split < len(term):
            moved(vals[split:], at[split:], res[split:])
    where = np.flatnonzero(on_diag)
    return diag[where], where


def _image(expr: OperatorExpr, vec: StateVector,
           shift=0) -> tuple[np.ndarray, np.ndarray, int]:
    """``(expr - shift)|vec>`` as ``(occs, nums, den)``: the occupations of
    its nonzero entries, ascending, as uint64, their integer numerators and
    the one denominator they are over.

    The terms of ``expr - shift`` go through ``_firings`` over the
    record's occupations, each value times the amplitude it fires on
    (integer numerators, ``_values``).  The
    number-type terms come back summed per input state, already in state
    order, so an operator of number terms alone (``H0``, ``N``, ``P``)
    needs no sort; the other contributions are grouped by the state they
    yield, with the diagonal, and summed.
    ``shift`` must be int or ``Fraction`` (``TypeError`` otherwise).
    """
    if shift:
        expr = expr - OperatorExpr.identity(shift)
    compiled = _compile(expr, vec.n_modes)
    signed, amp, den = _values([term[-1] for term in compiled], expr.den, vec.nums, vec.den)
    parts = []
    diag, where = _firings(compiled, signed, vec.occs,
                           lambda vals, at, res: parts.append((vals * amp[at], res)))
    sums, res = diag * amp[where], vec.occs[where]
    if parts:
        parts.append((sums, res))
        sums, res = map(np.concatenate, zip(*parts))
        del parts  # the contributions are held once, not twice
        # by image; integer sums are exact in any order.  A term's images
        # ascend with its states, so the stable sort merges a few sorted runs
        order = np.argsort(res, kind="stable")
        sums, res = sums[order], res[order]
        del order
        start = np.flatnonzero(np.concatenate(([True], res[1:] != res[:-1])))
        sums, res = np.add.reduceat(sums, start), res[start]
    keep = np.flatnonzero(sums != 0)
    return res[keep], sums[keep], den


def apply_operator(expr: OperatorExpr, vec: StateVector) -> StateVector:
    """Exact linear action; factors applied right-to-left.

    The ``_image`` record itself, brought to lowest terms: no amplitude is
    divided out.
    """
    return StateVector._wrap(vec.n_modes, *_image(expr, vec))


def image_norm2(expr: OperatorExpr, vec: StateVector, shift=0) -> Fraction:
    """``|| (expr - shift)|vec> ||**2`` as one exact ``Fraction``: the
    sum of squares of the ``_image`` numerators, as ``StateVector.norm2``
    sums them."""
    _, nums, den = _image(expr, vec, shift)
    return _square_sum(nums, den)


def image_norm(expr: OperatorExpr, vec: StateVector, shift=0) -> float:
    """``|| (expr - shift)|vec> ||``: ``image_norm2`` rooted as
    ``StateVector.norm`` roots it, so the float is that of the image built
    as a ``StateVector``."""
    return math.sqrt(float(image_norm2(expr, vec, shift)))


def eigen_residual(op: OperatorExpr, state: StateVector, eigenvalue) -> float:
    """|| A|psi> - lambda|psi> || / ||psi||, with exact arithmetic inside
    (``image_norm``); 0.0 when the residual vanishes."""
    norm = image_norm(op, state, eigenvalue)
    return norm / state.norm() if norm else 0.0


def _sector_entries(compiled: list[tuple], signed: np.ndarray, occs):
    """Rows, columns and signed values of every term's entries: the
    diagonal, then one array each per ``_firings`` block.

    ``occs`` is the basis as uint64, strictly ascending: a basis that is
    not is rejected with ``ValueError``, not ranked, because each image's
    row is found by binary search.  The number-type terms come summed
    into the diagonal; every other entry appears once per term that
    reaches it.  On a sector of ``FIRE_BUDGET`` states or more each block
    is one term.
    """
    if np.any(occs[1:] <= occs[:-1]):
        raise ValueError("sector basis must be strictly ascending")
    index = np.int32 if len(occs) < 2**31 else np.int64
    rows, cols, vals = [], [], []

    def moved(val, col, res):
        row = np.searchsorted(occs, res)
        found = occs.take(row, mode="clip") == res
        rows.append(row[found].astype(index))
        cols.append(col[found].astype(index))
        vals.append(val[found])

    diag, where = _firings(compiled, signed, occs, moved)
    where = where.astype(index)
    return [where, *rows], [where, *cols], [diag, *vals]


@dataclass(frozen=True)
class SectorCOO:
    """A sector matrix as its unsummed entries: ``nums[i] / den`` adds to
    entry ``(rows[i], cols[i])`` of the ``dim`` x ``dim`` matrix.

    It is the one form ``matrix_in_sector`` returns.  The numerators are
    exact: int64 while ``den`` and every entry's partial sums stay below
    2**53, Python ints (object dtype) beyond, which ``rounded`` sums per
    entry before its one division.  ``toarray`` gives the dense matrix and
    ``tocsr`` canonical CSR, which keeps entries whose terms cancel as
    explicit zeros; holding it imports no scipy.
    """

    rows: np.ndarray
    cols: np.ndarray
    nums: np.ndarray
    den: int
    dim: int

    @cached_property
    def nnz(self) -> int:
        """Stored entries once duplicates are summed, explicit zeros
        included, as CSR counts them."""
        return len(np.unique(self.rows.astype(np.int64) * self.dim + self.cols))

    def rounded(self) -> "SectorCOO":
        """The same matrix with numerators that float64 sums exactly: itself
        when they are int64, else each distinct entry's Python-int sum
        divided once (float64 over ``den = 1``), so every entry is the
        exact rational correctly rounded."""
        if self.nums.dtype != object:
            return self
        keys, slot = np.unique(self.rows.astype(np.int64) * self.dim + self.cols,
                               return_inverse=True)
        sums = np.zeros(len(keys), dtype=object)
        np.add.at(sums, slot, self.nums)
        vals = np.array([x / self.den for x in sums], dtype=np.float64)
        return SectorCOO(keys // self.dim, keys % self.dim, vals, 1, self.dim)

    def toarray(self) -> np.ndarray:
        coo = self.rounded()
        mat = np.zeros((self.dim, self.dim))
        np.add.at(mat, (coo.rows, coo.cols), coo.nums)  # integer sums below 2**53: exact
        mat[coo.rows, coo.cols] /= coo.den  # the set entries only: untouched pages stay unmapped
        return mat

    def tocsr(self):
        from scipy.sparse import csr_matrix

        coo = self.rounded()
        # COO -> CSR sums the int64 duplicates: exact, in any order
        mat = csr_matrix((coo.nums, (coo.rows, coo.cols)), shape=(self.dim, self.dim))
        mat.data = mat.data / coo.den
        return mat


def matrix_in_sector(expr: OperatorExpr, basis, n_modes: int) -> SectorCOO:
    """The entries <basis_r | expr | basis_c> as a ``SectorCOO``, on a
    strictly ascending basis: ``sector_basis``'s uint64 array or a sorted
    list of ints; any other order raises ``ValueError``.

    When the basis is a fixed particle-number sector the operator must
    conserve particle number, otherwise weight would leak out of the
    block and the matrix would misrepresent the operator.

    The terms go through ``_fire`` over all columns in blocks.  The
    record's integer numerators over its denominator (``_values`` with a
    unit amplitude) are what the ``SectorCOO`` keeps
    unsummed; each of its forms sums them exactly and divides once, so
    each entry is the exact rational entry correctly rounded, as ``float64``.
    """
    if n_modes > MAX_MODES:
        raise ValueError(f"n_modes {n_modes} exceeds {MAX_MODES}")
    occs = np.asarray(basis, dtype=np.uint64)
    if not expr.conserves_particle_number() and (
        len({occ.bit_count() for occ in occs.tolist()}) == 1
    ):
        raise ValueError(
            "operator does not conserve particle number on a number-sector basis"
        )
    compiled = _compile(expr, n_modes)
    dim = len(occs)
    signed, _, den = _values([term[-1] for term in compiled], expr.den,
                             np.ones(1, dtype=np.int64), 1)
    rows, cols, vals = map(np.concatenate, _sector_entries(compiled, signed, occs))
    return SectorCOO(rows, cols, vals, den, dim)


# ---------------------------------------------------------------------------
# model operator builders
# ---------------------------------------------------------------------------

def build_h0(table: ModeTable) -> OperatorExpr:
    """Kinetic term: sum of eps(k) a+ a over every table mode.

    Frozen-core energy is not part of the expression; it lives in the
    table's analytic core record.
    """
    terms: dict[Term, object] = {}
    for i, mode in enumerate(table.modes):
        e = table.epsilon(mode.n)
        if e != 0:
            terms[1 << i, 1 << i] = e
    return OperatorExpr(terms)


def build_number_op(table: ModeTable) -> OperatorExpr:
    return OperatorExpr({(1 << i, 1 << i): 1 for i in range(table.n_modes)})


def build_momentum_op(table: ModeTable) -> tuple[OperatorExpr, OperatorExpr, OperatorExpr]:
    """Total momentum per axis, in grid units (integer coefficients)."""
    exprs = []
    for axis in range(3):
        terms: dict[Term, object] = {}
        for i, mode in enumerate(table.modes):
            comp = mode.n[axis]
            if comp:
                terms[1 << i, 1 << i] = comp
        exprs.append(OperatorExpr(terms))
    return tuple(exprs)


def _require_shell(table: ModeTable, k: IVec) -> IVec:
    k = tuple(k)
    if not table.is_shell(k):
        raise ShellDomainError(f"{k} is not a shell point of this lattice")
    return k


def build_pair(table: ModeTable, k: IVec, lam) -> OperatorExpr:
    """Two-particle creator a+_{up,k} a+_{dn,pk} + lam a+_{up,pk} a+_{dn,k}.

    ``pk = 2K - k`` is the pairing partner; ``lam`` is an arbitrary exact
    weight on the exchanged branch.
    """
    k = _require_shell(table, k)
    up_k, dn_pk = table.pair_modes(k)
    up_pk, dn_k = table.pair_modes(table.partner(k))
    return OperatorExpr.from_monomials(
        [
            (1, ((CREATE, up_k), (CREATE, dn_pk))),
            (Fraction(lam), ((CREATE, up_pk), (CREATE, dn_k))),
        ]
    )


def build_gamma(table: ModeTable, k: IVec) -> OperatorExpr:
    """The antisymmetric pair creator: the lam = -1 member of build_pair."""
    return build_pair(table, k, Fraction(-1))


_weight_form_of: list = []  # the last G read, its rows of numerators and their den


def _coupling_form(table: ModeTable, g, weights: Weights | None) -> tuple:
    """``(a, b, rows, den)``: ``g / volume = a / b`` and G's rows (``None``
    the unit weight) as integer numerators over ``den``, kept for the last
    G read: the battery hands its one G (never changed) to every builder."""
    pref = Fraction(g) / table.config.volume_fraction
    if weights is None:
        weights = from_spec(table, "unit")[0]
    if not _weight_form_of or _weight_form_of[0] is not weights:
        den = math.lcm(*(_exact(w).denominator for row in weights for w in row))
        _weight_form_of[:] = weights, [[w.numerator * (den // w.denominator) for w in row]
                                       for row in weights], den
    return pref.numerator, pref.denominator, *_weight_form_of[1:]


def build_w(
    table: ModeTable, g, weights: Weights | None = None
) -> OperatorExpr:
    """Pairing interaction over the full shell (both hemispheres).

    (g / volume) * sum_{i,j} G[i][j]
        a+_{up,k_i} a+_{dn,p(k_i)} a_{dn,p(k_j)} a_{up,k_j}

    over ``k_i, k_j`` in ``table.shell_all``.  ``weights`` is the matrix G
    that ``formfactors.from_spec`` builds, used verbatim; ``None`` is the
    unit weight.  The paired states are dark when G[i][j] equals the entry
    at the column of 2K - k_j on every row, the invariance the pair
    annihilation uses; a weight that breaks it, such as
    ``asymmetric:<seed>``, gives an interaction they do not nullify.
    The annihilators come in the reverse order of the creators, so a term
    is negative when both pairs sort their up and down modes alike.
    """
    a, b, rows, den = _coupling_form(table, g, weights)
    pairs = [(1 << up | 1 << dn, up > dn) for up, dn in map(table.pair_modes, table.shell_all)]
    nums: dict[Term, int] = {}
    for (head, odd), row in zip(pairs, rows):
        for (tail, tail_odd), weight in zip(pairs, row):
            if weight and a:
                nums[head, tail] = -a * weight if odd == tail_odd else a * weight
    return OperatorExpr._wrap(nums, den * b)


def pair_commutator_rhs(
    table: ModeTable,
    k: IVec,
    lam,
    g,
    weights: Weights | None = None,
) -> OperatorExpr | list[OperatorExpr]:
    """Independently constructed closed form of [W, build_pair(k, lam)].

    sum_i G[i][j] (g/volume) a+_{up,k_i} a+_{dn,p(k_i)} *
        (1 + lam - lam n_{up,pk} - lam n_{dn,k} - n_{up,k} - n_{dn,pk})

    with ``k = table.shell_all[j]``: G's column at k's position, over the
    rows of ``table.shell_all``.  ``weights`` is G as in ``build_w``;
    ``None`` is the unit weight.  ``lam`` is one exact weight, or a list
    of them for the list of their closed forms.

    Each term's ``(C, A)`` key is written from the pair modes, its sign
    the parity of sorting its created modes, and a term whose number
    factor repeats a created mode is zero.  Keys, signs and G's column,
    read from its numerators (``_coupling_form``), are written once per
    ``k``; each ``lam`` then multiplies the five part values, every
    coefficient an integer numerator over one denominator.
    """
    k = _require_shell(table, k)
    a, b, rows, den = _coupling_form(table, g, weights)
    up_k, dn_pk = table.pair_modes(k)
    up_pk, dn_k = table.pair_modes(table.partner(k))
    j = table.shell_all.index(k)
    terms = []  # (key, signed G[i][j] numerator, part: 0 is 1 + lam, 1-2 -lam, 3-4 -1)
    for (c_up, c_dn), row in zip(map(table.pair_modes, table.shell_all), rows):
        weight, head, odd = row[j], 1 << c_up | 1 << c_dn, c_up > c_dn
        if weight:
            terms.append(((head, 0), -weight if odd else weight, 0))
            for part, mode in enumerate((up_pk, dn_k, up_k, dn_pk), 1):
                if mode != c_up and mode != c_dn:  # else a repeated created mode: zero
                    flip = odd ^ (c_up > mode) ^ (c_dn > mode)
                    terms.append(((head | 1 << mode, 1 << mode), -weight if flip else weight, part))

    def closed_form(lam):
        # with g / volume = a / b and lam = p / q, the term of weight w
        # (1 + lam, -lam or -1) is G[i][j]'s numerator times a (w q), over den b q
        p, q = Fraction(lam).numerator, Fraction(lam).denominator
        parts = (a * (p + q), -a * p, -a * p, -a * q, -a * q)
        return OperatorExpr._wrap({key: weight * parts[part] for key, weight, part in terms
                                   if parts[part]}, den * b * q)

    return [*map(closed_form, lam)] if isinstance(lam, list) else closed_form(lam)
