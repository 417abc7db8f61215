"""Occupation-number states over a fixed mode ordering.

A Fock state is an M-bit occupation pattern packed into a ``np.uint64``
(in a ``StateVector`` and a ``sector_basis`` array alike), with mode 0
at the most significant bit.  That convention makes the integer order of
packed states coincide with the lexicographic order of their printed
bitstrings (mode 0 leftmost), which is the iteration order used for
every deterministic reduction in this package.

Operators act on these states through ``operators.apply_operator``, whose
kernels carry the usual fermionic sign
``(-1)**(number of occupied modes with smaller index)``; ``mode_bit`` is
the one statement of the bit layout they and the state builders use.
A state is the exact integer record the kernels read and return.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from fractions import Fraction

import numpy as np

MAX_MODES = 64
BASIS_CAP = 2_000_000


class BasisSizeError(ValueError):
    """A requested particle-number sector exceeds the basis cap."""


def mode_bit(n_modes: int, i: int) -> int:
    """The bit of mode ``i``: mode 0 is the most significant of ``n_modes``."""
    return 1 << (n_modes - 1 - i)


def sector_basis(n_modes: int, n_particles: int, cap: int = BASIS_CAP) -> np.ndarray:
    """All C(M, N) occupations with N particles, as a strictly ascending
    ``np.uint64`` array (empty when N is outside ``0..M``).

    Built bit by bit from the least significant: the states of the low
    ``m`` bits holding ``n`` particles are those of the low ``m - 1`` bits
    holding ``n``, then those holding ``n - 1`` with bit ``m - 1`` set, so
    every level is ascending by construction.
    """
    if n_modes > MAX_MODES:
        raise ValueError(f"n_modes {n_modes} exceeds {MAX_MODES}")
    if not 0 <= n_particles <= n_modes:
        return np.empty(0, dtype=np.uint64)
    size = math.comb(n_modes, n_particles)
    if size > cap:
        raise BasisSizeError(
            f"sector dimension C({n_modes},{n_particles}) = {size} exceeds cap {cap}"
        )
    # level[n]: the low-m-bit states with n particles; only the counts from
    # which N can still be reached with the remaining bits are kept
    level = {0: np.zeros(1, dtype=np.uint64)}
    empty = np.empty(0, dtype=np.uint64)
    for m in range(1, n_modes + 1):
        top = np.uint64(1) << np.uint64(m - 1)
        low = max(0, n_particles - (n_modes - m))
        level = {
            n: np.concatenate((level.get(n, empty), level.get(n - 1, empty) | top))
            for n in range(low, min(m, n_particles) + 1)
        }
    return level[n_particles]


def _numerators(values: list) -> tuple[list[int], int]:
    """Integer numerators of int or ``Fraction`` ``values`` over their
    common denominator, and that denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _square_sum(nums: np.ndarray, den: int) -> Fraction:
    """The squared norm of the amplitudes ``nums / den``, summed on Python
    ints as one exact ``Fraction``."""
    return Fraction(sum(n * n for n in nums.tolist()), den * den)


class _Fractions(Mapping):
    """A record's ``{key: numerator}`` map over ``den`` read as ``{key:
    Fraction}``, each built when read: a state's ``amp``, an operator's ``terms``."""

    def __init__(self, nums: dict, den: int):
        self._nums, self._den = nums, den

    def __getitem__(self, key) -> Fraction:
        return Fraction(self._nums[key], self._den)

    def __iter__(self):
        return iter(self._nums)

    def __len__(self) -> int:
        return len(self._nums)


class StateVector:
    """An exact state: the amplitude ``nums[i] / den`` at occupation
    ``occs[i]``, zero elsewhere; the record every operator kernel reads
    and ``apply_operator`` returns.

    ``occs`` is strictly ascending ``np.uint64``, ``nums`` the nonzero
    integer numerators (int64 while all are below 2**53 in magnitude,
    Python ints past it) and ``den > 0`` with ``gcd(den, *nums) == 1``, so
    equal states have equal arrays and "the residual vanishes" is a
    statement about empty arrays, not about small numbers.  The
    constructor takes an ``{occupation: amplitude}`` map, drops zeros, and
    raises ``TypeError`` on an amplitude that is not an int or a
    ``Fraction`` or an occupation that is not an integer (Python or
    numpy), and ``ValueError`` on an occupation outside
    ``0 .. 2**n_modes - 1``.
    """

    __slots__ = ("n_modes", "occs", "nums", "den", "_amp")

    def __init__(self, n_modes: int, amplitudes: dict[int, int | Fraction] | None = None):
        if n_modes > MAX_MODES:
            raise ValueError(f"n_modes {n_modes} exceeds {MAX_MODES}")
        occs, amps = [], []
        for occ, a in (amplitudes or {}).items():
            if not isinstance(a, (int, Fraction)):
                raise TypeError(f"state amplitudes are exact rationals, not {type(a).__name__}")
            occ = operator.index(occ)
            if not 0 <= occ < 1 << n_modes:
                raise ValueError(f"occupation {occ!r} is not in 0 .. 2**{n_modes} - 1")
            if a:
                occs.append(occ)
                amps.append(a)
        occs = np.array(occs, dtype=np.uint64)
        order = np.argsort(occs)
        nums, den = _numerators(amps)
        self._set(n_modes, occs[order], np.array(nums, dtype=object)[order], den)

    @classmethod
    def _wrap(cls, n_modes: int, occs: np.ndarray, nums: np.ndarray, den: int) -> "StateVector":
        """Unchecked constructor for the kernels' images: strictly ascending
        ``occs`` with nonzero ``nums`` over ``den``."""
        vec = object.__new__(cls)
        vec._set(n_modes, occs, nums, den)
        return vec

    def _set(self, n_modes: int, occs: np.ndarray, nums: np.ndarray, den: int) -> None:
        """Store the record in lowest terms, its numerators int64 when they fit."""
        common = math.gcd(den, *nums.tolist())
        nums, den = nums // common, den // common
        if nums.dtype == object and max(map(abs, nums.tolist()), default=0) < 1 << 53:
            nums = nums.astype(np.int64)
        self.n_modes, self.occs, self.nums, self.den, self._amp = n_modes, occs, nums, den, None

    @property
    def amp(self) -> Mapping[int, Fraction]:
        """The amplitudes as a read-only ``{occupation: Fraction}`` view,
        its numerator map built on first read; no kernel reads it."""
        if self._amp is None:
            self._amp = _Fractions(dict(zip(self.occs.tolist(), self.nums.tolist())), self.den)
        return self._amp

    def __len__(self) -> int:
        return len(self.occs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StateVector)
            and (self.n_modes, self.den) == (other.n_modes, other.den)
            and np.array_equal(self.occs, other.occs)
            and np.array_equal(self.nums, other.nums)
        )

    def norm2(self) -> Fraction:
        return _square_sum(self.nums, self.den)

    def norm(self) -> float:
        return math.sqrt(float(self.norm2()))

    def __repr__(self) -> str:
        body = " + ".join(f"{n}|{occ:0{self.n_modes}b}>"
                          for occ, n in zip(self.occs.tolist(), self.nums.tolist()))
        if not body:
            return "StateVector(0)"
        return f"StateVector({body})" if self.den == 1 else f"StateVector(({body})/{self.den})"
