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
one-factor operators.

Canonical form makes operator equality a dictionary comparison, which is
what turns commutator identities into decidable checks.  Every coefficient
is a ``Fraction`` (the constructors convert ints and reject floats and
complex values), and every kernel (``compose``, ``commutator``,
``apply_operator``, ``matrix_in_sector``) sums integer numerators over a
common denominator: int64 while the sums are small, Python ints beyond.
A sector matrix has one form, the ``SectorCOO`` of its unsummed integer
numerators, which callers turn into a dense array or CSR as they need.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .fock import MAX_MODES, StateVector, _numerators, _square_sum, mode_bit
from .formfactors import Weights, from_spec
from .lattice import IVec, ModeTable

CREATE = "c"
ANNIHILATE = "a"

Factor = tuple[str, int]
Term = tuple[int, int]  # (C, A): the created and the annihilated modes, bit m for mode m

DEGREE_CAP = 8
FIRE_BUDGET = 1 << 14  # (term, state) pairs one ``_fire`` block tests: 128 KB of uint64
_NIBBLES = np.uint64(0x1111111111111111)


class DegreeCapError(ValueError):
    """A monomial exceeded the configured factor-count cap."""


class ShellDomainError(ValueError):
    """A pair construction was requested for a point outside the shell."""


def _exact(coeff) -> Fraction:
    """``coeff`` as a ``Fraction``: an int is converted, a float or complex
    value raises ``TypeError``."""
    if isinstance(coeff, Fraction):
        return coeff
    if isinstance(coeff, int):
        return Fraction(coeff)
    raise TypeError(
        f"operator coefficients are exact rationals, not {type(coeff).__name__}"
    )


class OperatorExpr:
    """Canonical term map: each term's ``(C, A)`` key to its nonzero
    ``Fraction`` coefficient, the identity at ``(0, 0)``; the constructor
    drops zero coefficients, so equal operators have equal maps."""

    __slots__ = ("terms", "_wick")

    def __init__(self, terms: dict[Term, object] | None = None):
        exact = {t: _exact(c) for t, c in (terms or {}).items()}
        self.terms: dict[Term, Fraction] = {t: c for t, c in exact.items() if c != 0}
        self._wick = None  # the bitmask form of ``_wick_form``, built on first use
        for key in exact:
            if not (type(key) is tuple and len(key) == 2
                    and all(type(m) is int and m >= 0 for m in key)):
                raise ValueError(
                    f"term {key!r} is not a (C, A) pair of non-negative int "
                    "masks; build operators with OperatorExpr.from_monomial(s)"
                )

    # -- constructors -------------------------------------------------
    @classmethod
    def _wrap(cls, terms: dict[Term, object]) -> "OperatorExpr":
        """Unchecked constructor for term maps this module built canonical."""
        expr = object.__new__(cls)
        expr.terms = terms
        expr._wick = None
        return expr

    @classmethod
    def identity(cls, coeff=Fraction(1)) -> "OperatorExpr":
        coeff = _exact(coeff)
        return cls._wrap({(0, 0): coeff} if coeff != 0 else {})

    @classmethod
    def from_monomial(
        cls, coeff, factors: Iterable[Factor], cap: int = DEGREE_CAP
    ) -> "OperatorExpr":
        return cls.from_monomials([(coeff, factors)], cap)

    @classmethod
    def from_monomials(
        cls, monomials: Iterable[tuple[object, Iterable[Factor]]], cap: int = DEGREE_CAP
    ) -> "OperatorExpr":
        """The sum of ``coeff * factors`` over ``monomials``, each factor
        string its creations followed by its annihilations, each block in
        any order: it is sorted, with the sign of the sort, and zero when it
        repeats a mode.  An annihilation before a creation raises
        ``ValueError`` (``compose`` multiplies such factors), more than
        ``cap`` factors with a nonzero coefficient ``DegreeCapError``."""
        out: dict[Term, Fraction] = {}
        for coeff, factors in monomials:
            coeff, factors = _exact(coeff), tuple(factors)
            if coeff == 0:
                continue
            if len(factors) > cap:
                raise DegreeCapError(f"monomial degree {len(factors)} exceeds cap {cap}")
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
            if cm.bit_count() + am.bit_count() < len(factors):
                continue  # a block repeats a mode: the monomial is zero
            cur = out.get((cm, am), 0) + (-coeff if odd & 1 else coeff)
            if cur == 0:
                out.pop((cm, am), None)
            else:
                out[cm, am] = cur
        return cls._wrap(out)

    # -- linear structure ---------------------------------------------
    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        out = dict(self.terms)
        for t, c in other.terms.items():
            cur = out.get(t, 0) + c
            if cur == 0:
                out.pop(t, None)
            else:
                out[t] = cur
        return OperatorExpr._wrap(out)

    def __sub__(self, other: "OperatorExpr") -> "OperatorExpr":
        return self + (-other)

    def __neg__(self) -> "OperatorExpr":
        return OperatorExpr._wrap({t: -c for t, c in self.terms.items()})

    def scaled(self, factor) -> "OperatorExpr":
        factor = _exact(factor)
        if factor == 0:
            return OperatorExpr()
        return OperatorExpr._wrap({t: c * factor for t, c in self.terms.items()})

    def compose(self, other: "OperatorExpr", cap: int = DEGREE_CAP) -> "OperatorExpr":
        """Operator product, normal-ordered by Wick's theorem (``_products``)."""
        return _products(self, other, cap, commute=False)

    def dagger(self) -> "OperatorExpr":
        """The adjoint: ``(C, A)`` becomes ``(A, C)``, both blocks reversed
        back into ascending order, a sign of (-1)**(n (n - 1) / 2) for a
        block of n modes."""
        out: dict[Term, Fraction] = {}
        for (cm, am), c in self.terms.items():
            n, m = cm.bit_count(), am.bit_count()
            out[am, cm] = -c if (n * (n - 1) + m * (m - 1)) // 2 & 1 else c
        return OperatorExpr._wrap(out)

    # -- queries --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, OperatorExpr) and self.terms == other.terms

    def one_norm(self):
        """Sum of |coefficients|: a cheap, basis-free operator-size bound."""
        return sum((abs(c) for c in self.terms.values()), Fraction(0))

    def conserves_particle_number(self) -> bool:
        return all(cm.bit_count() == am.bit_count() for cm, am in self.terms)

    def is_hermitian(self) -> bool:
        return self == self.dagger()

    def __repr__(self) -> str:
        if not self.terms:
            return "OperatorExpr(0)"
        bits = []
        for (cm, am), c in sorted(self.terms.items())[:8]:  # sorted for display
            fs = " ".join([f"{CREATE}{m}" for m in _modes(cm)]
                          + [f"{ANNIHILATE}{m}" for m in _modes(am)]) or "1"
            bits.append(f"({c})*{fs}")
        more = "" if len(self.terms) <= 8 else f" ... [{len(self.terms)} terms]"
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
    """``(ops, creates, den, width, degrees)``: what ``_products`` reads of
    an operand, built on the operand's first product and kept in its
    ``_wick`` slot.

    ``ops[p]`` holds a ``(C, A, _above(C), _above(A), numerator)`` tuple
    for each term ``(C, A)`` of odd degree ``p``, the numerators over the
    common denominator ``den``; ``creates[p]`` is the union of the ``C``
    masks in ``ops[p]``, ``width`` one more than the highest mode and
    ``degrees`` the sorted distinct term degrees.  The masks do not
    depend on a partner's width, so one form serves every product; it
    stays valid because no code changes ``terms`` after the operator is
    built.
    """
    if expr._wick is None:
        nums, den = _numerators(list(expr.terms.values()))
        degrees = [cm.bit_count() + am.bit_count() for cm, am in expr.terms]
        ops: tuple[list, list] = ([], [])
        creates = [0, 0]
        for (cm, am), d, v in zip(expr.terms, degrees, nums):
            ops[d & 1].append((cm, am, _above(cm), _above(am), v))
            creates[d & 1] |= cm
        width = max(((cm | am).bit_length() for cm, am in expr.terms), default=0)
        expr._wick = ops, creates, den, width, sorted(set(degrees))
    return expr._wick


def commutator(a: OperatorExpr, b: OperatorExpr, cap: int = DEGREE_CAP) -> OperatorExpr:
    """Normal-ordered AB - BA, equal to ``a.compose(b, cap) - b.compose(a, cap)``,
    summed in one pass of ``_products``."""
    return _products(a, b, cap, commute=True)


def _products(a: OperatorExpr, b: OperatorExpr, cap: int, commute: bool) -> OperatorExpr:
    """``AB``, or ``AB - BA`` when ``commute``, normal-ordered by Wick's theorem.

    Canonical monomials ``X = C1 A1`` and ``Y = C2 A2`` (sets of modes)
    multiply to a sum over contraction sets ``S`` of ``A1 & C2``
    (``_wick_sum``).  Both orders are summed as integer numerators over the
    product of the two common denominators into one map, ``BA`` negated,
    and only the terms that survive get their ``(C, A)`` keys and
    ``Fraction``s.
    In ``AB - BA`` the uncontracted term (``S`` empty) of ``XY`` is
    ``:XY:`` and that of ``YX`` is ``(-1)**(deg X * deg Y) :XY:``, so it
    is built only for pairs of odd-degree terms: every other pair
    contributes its contractions alone.
    """
    (ops_a, cre_a, den_a, width_a, deg_a), (ops_b, cre_b, den_b, width_b, deg_b) = map(
        _wick_form, (a, b))
    degree = next((d1 + d2 for d1, d2 in itertools.product(deg_a, deg_b)
                   if d1 + d2 > cap), None)
    if degree is not None:
        raise DegreeCapError(f"monomial degree {degree} exceeds cap {cap}")
    den = den_a * den_b
    width = max(width_a, width_b)
    top = (1 << width) - 1

    out: dict[int, int] = {}
    for pa, pb in itertools.product((0, 1), repeat=2):
        empty = not commute or pa & pb
        _wick_sum(ops_a[pa], ops_b[pb], cre_b[pb], width, out, False, empty)
        if commute:
            _wick_sum(ops_b[pb], ops_a[pa], cre_a[pa], width, out, True, empty)

    as_fraction: dict[int, Fraction] = {}  # each value's Fraction, built once
    terms: dict[Term, Fraction] = {}
    for key, value in out.items():
        if value not in as_fraction:
            as_fraction[value] = Fraction(value, den)
        terms[key >> width, key & top] = as_fraction[value]
    return OperatorExpr._wrap(terms)


def _wick_sum(left: list[tuple], right: list[tuple], right_creates: int, width: int,
              out: dict[int, int], negate: bool, empty: bool) -> None:
    """Add the product ``left * right`` of two operands given as
    ``_wick_form`` tuples into ``out``, keyed ``C << width | A``;
    ``negate`` subtracts it, and ``empty=False`` leaves out every
    uncontracted term, and with it every left term whose ``A`` meets none
    of ``right_creates``, the union of the right terms' ``C``.

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
    for cm1, am1, _, _, v1 in left:
        if not (am1 & right_creates or empty):
            continue  # nothing to contract: only uncontracted terms
        for cm2, am2, cup2, aup2, v2 in right:
            free = am1 & cm2
            must = (cm1 & cm2) | (am1 & am2)
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
    """Flat bitmask terms ``(cmask, amask, cpar, apar, coeff)``, one per term.

    ``cmask``/``amask`` hold the created/annihilated modes in ``mode_bit``'s
    layout; ``cpar``/``apar`` are the XOR of the "modes with smaller index"
    masks of those modes, so the parity of the occupied modes they select
    is the term's fermionic sign.  That holds for canonical terms, the only
    ones an ``OperatorExpr`` holds.  The terms keep ``terms``' order; every
    kernel sums exact integers, so no order changes a result.
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

    compiled = []
    for (cm, am), coeff in expr.terms.items():
        (cbits, cpar), (abits, apar) = word(cm), word(am)
        compiled.append((cbits, abits, cpar, apar, coeff))
    return compiled


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


def _values(coeffs: list, amps: np.ndarray, aden: int) -> tuple[np.ndarray, np.ndarray, int]:
    """``(signed, amps, den)``: the integer numerators both kernels multiply,
    for the ``Fraction`` coefficients ``coeffs`` and the amplitudes
    ``amps / aden``.

    ``signed[2 * t + odd]`` is term t's coefficient with its sign, and
    products of ``signed`` and ``amps`` are over ``den``.  Both arrays are
    int64 while ``den`` and the sum of ``|coefficient| * |amplitude|``
    numerators stay below 2**53, so that every partial sum of one entry is
    an integer float64 holds exactly, Python ints (object dtype) beyond.
    The bound is summed on Python ints: numpy's int64 sums would wrap.
    Amplitudes already held as Python ints stay Python ints.
    """
    coeffs, cden = _numerators(coeffs)
    den = cden * aden
    wide = amps.dtype == object or max(
        den, sum(map(abs, coeffs)) * sum(map(abs, amps.tolist()))) >= 1 << 53
    dtype = object if wide else np.int64
    signed = np.array([s for c in coeffs for s in (c, -c)], dtype=dtype)
    return signed, amps.astype(dtype, copy=False), den


def _image(expr: OperatorExpr, vec: StateVector,
           shift=0) -> tuple[np.ndarray, np.ndarray, int]:
    """``(expr - shift)|vec>`` as ``(occs, nums, den)``: the occupations of
    its nonzero entries, ascending, as uint64, their integer numerators and
    the one denominator they are over.

    The terms, with ``-shift`` as one more identity term, go through
    ``_fire`` over the record's occupations in a few ``_blocks``, and the
    contributions are grouped by the state they yield and summed as
    integer numerators (``_values``).  ``shift`` must be int or
    ``Fraction`` (``TypeError`` otherwise).
    """
    compiled = _compile(expr, vec.n_modes)
    if shift:
        compiled.append((0, 0, 0, 0, -_exact(shift)))
    signed, amp, den = _values([term[-1] for term in compiled], vec.nums, vec.den)
    fired = []
    for first, block in _blocks(compiled, len(vec)):
        term, at, res, odd = _fire(block, vec.occs)
        fired.append((2 * (first + term) + odd, at, res))
    if not sum(len(at) for _, at, _ in fired):
        return np.empty(0, dtype=np.uint64), signed[:0], den
    which, at, res = map(np.concatenate, zip(*fired))
    del fired  # the contributions are held once, not twice
    order = np.argsort(res)  # by image: integer sums are exact in any order
    at, res, which = at[order], res[order], which[order]
    del order
    start = np.flatnonzero(np.concatenate(([True], res[1:] != res[:-1])))
    sums = np.add.reduceat(signed[which] * amp[at], start)
    keep = np.flatnonzero(sums != 0)
    return res[start[keep]], sums[keep], den


def apply_operator(expr: OperatorExpr, vec: StateVector) -> StateVector:
    """Exact linear action; factors applied right-to-left.

    The ``_image`` record itself, brought to lowest terms: no amplitude is
    divided out.
    """
    return StateVector._wrap(vec.n_modes, *_image(expr, vec))


def image_norm(expr: OperatorExpr, vec: StateVector, shift=0) -> float:
    """``|| (expr - shift)|vec> ||``: the exact sum of squares of the
    ``_image`` numerators (the ``_square_sum`` that ``StateVector.norm2``
    takes), rooted as ``StateVector.norm`` roots it, so the float is that
    of the image built as a ``StateVector``."""
    _, nums, den = _image(expr, vec, shift)
    return math.sqrt(float(_square_sum(nums, den)))


def eigen_residual(op: OperatorExpr, state: StateVector, eigenvalue) -> float:
    """|| A|psi> - lambda|psi> || / ||psi||, with exact arithmetic inside
    (``image_norm``); 0.0 when the residual vanishes."""
    norm = image_norm(op, state, eigenvalue)
    return norm / state.norm() if norm else 0.0


def _sector_entries(compiled: list[tuple], signed: np.ndarray, occs):
    """Rows, columns and signed values of every term's entries, per block.

    ``occs`` is the basis as uint64, strictly ascending: a basis that is
    not is rejected with ``ValueError``, not ranked, because each image's
    row is found by binary search.  Number-type terms (``cmask == amask``)
    only touch the diagonal, so they fire in blocks of their own and are
    summed into it first; every other entry appears once per term that
    reaches it.  On a sector of ``FIRE_BUDGET`` states or more each block
    is one term.
    """
    if np.any(occs[1:] <= occs[:-1]):
        raise ValueError("sector basis must be strictly ascending")
    index = np.int32 if len(occs) < 2**31 else np.int64
    diag = np.zeros(len(occs), dtype=signed.dtype)
    on_diag = np.zeros(len(occs), dtype=bool)
    rows, cols, vals = [], [], []
    for number in (True, False):
        ids = np.array([t for t, term in enumerate(compiled)
                        if (term[0] == term[1]) == number], dtype=np.int64)
        for first, block in _blocks([compiled[t] for t in ids], len(occs)):
            term, col, res, odd = _fire(block, occs)
            val = signed.take(2 * ids[first + term] + odd)
            if number:
                np.add.at(diag, col, val)
                on_diag[col] = True
                continue
            row = np.searchsorted(occs, res)
            found = occs.take(row, mode="clip") == res
            rows.append(row[found].astype(index))
            cols.append(col[found].astype(index))
            vals.append(val[found])
    where = np.flatnonzero(on_diag).astype(index)
    return [where, *rows], [where, *cols], [diag[where], *vals]


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
    coefficients become integer numerators over their common denominator
    (``_values`` with a unit amplitude), which the ``SectorCOO`` keeps
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
    signed, _, den = _values([term[-1] for term in compiled], np.ones(1, dtype=np.int64), 1)
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
    return OperatorExpr({(1 << i, 1 << i): Fraction(1) for i in range(table.n_modes)})


def build_momentum_op(table: ModeTable) -> tuple[OperatorExpr, OperatorExpr, OperatorExpr]:
    """Total momentum per axis, in grid units (integer coefficients)."""
    exprs = []
    for axis in range(3):
        terms: dict[Term, object] = {}
        for i, mode in enumerate(table.modes):
            comp = mode.n[axis]
            if comp:
                terms[1 << i, 1 << i] = Fraction(comp)
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
            (Fraction(1), ((CREATE, up_k), (CREATE, dn_pk))),
            (Fraction(lam), ((CREATE, up_pk), (CREATE, dn_k))),
        ]
    )


def build_gamma(table: ModeTable, k: IVec) -> OperatorExpr:
    """The antisymmetric pair creator: the lam = -1 member of build_pair."""
    return build_pair(table, k, Fraction(-1))


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
    """
    pref = Fraction(g) / table.config.volume_fraction
    points = table.shell_all
    if weights is None:
        weights = from_spec(table, "unit")[0]
    pairs = [table.pair_modes(k) for k in points]
    monomials = []
    for (c_up, c_dn), row in zip(pairs, weights):
        for (a_up, a_dn), weight in zip(pairs, row):
            coeff = pref * weight
            if coeff == 0:
                continue
            monomials.append(
                (
                    coeff,
                    (
                        (CREATE, c_up),
                        (CREATE, c_dn),
                        (ANNIHILATE, a_dn),
                        (ANNIHILATE, a_up),
                    ),
                )
            )
    return OperatorExpr.from_monomials(monomials)


def pair_commutator_rhs(
    table: ModeTable,
    k: IVec,
    lam,
    g,
    weights: Weights | None = None,
) -> OperatorExpr:
    """Independently constructed closed form of [W, build_pair(k, lam)].

    sum_i G[i][j] (g/volume) a+_{up,k_i} a+_{dn,p(k_i)} *
        (1 + lam - lam n_{up,pk} - lam n_{dn,k} - n_{up,k} - n_{dn,pk})

    with ``k = table.shell_all[j]``: G's column at k's position, over the
    rows of ``table.shell_all``.  ``weights`` is G as in ``build_w``;
    ``None`` is the unit weight.

    Each term's ``(C, A)`` key is written from the pair modes, its sign
    the parity of sorting its created modes, and a term whose number
    factor repeats a created mode is zero.  Every coefficient is an
    integer numerator over one denominator, and each distinct numerator
    becomes its ``Fraction`` once.
    """
    k = _require_shell(table, k)
    pref = Fraction(g) / table.config.volume_fraction
    lam = Fraction(lam)
    up_k, dn_pk = table.pair_modes(k)
    up_pk, dn_k = table.pair_modes(table.partner(k))
    points = table.shell_all
    if weights is None:
        weights = from_spec(table, "unit")[0]
    j = points.index(k)

    # with G[i][j] = column[i] / d, pref = a / b and lam = p / q, the term of
    # weight w (1 + lam, -lam or -1) is column[i] * a (w q) over d b q
    column, den = _numerators([row[j] for row in weights])
    a, b = pref.numerator, pref.denominator
    p, q = lam.numerator, lam.denominator
    den *= b * q
    parts = ((a * (p + q), None), (-a * p, up_pk), (-a * p, dn_k),
             (-a * q, up_k), (-a * q, dn_pk))
    as_fraction: dict[int, Fraction] = {}  # each value's Fraction, built once
    terms: dict[Term, Fraction] = {}
    for k1, weight in zip(points, column):
        c_up, c_dn = table.pair_modes(k1)
        head = 1 << c_up | 1 << c_dn
        for part, mode in parts:
            if mode is None:
                key, odd = (head, 0), c_up > c_dn
            elif mode in (c_up, c_dn):
                continue  # the number factor repeats a created mode: zero
            else:
                key = (head | 1 << mode, 1 << mode)
                odd = (c_up > c_dn) ^ (c_up > mode) ^ (c_dn > mode)
            value = -weight * part if odd else weight * part
            if value:
                if value not in as_fraction:
                    as_fraction[value] = Fraction(value, den)
                terms[key] = as_fraction[value]
    return OperatorExpr._wrap(terms)
