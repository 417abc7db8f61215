"""Occupation-number states over a fixed mode ordering.

A Fock state is an M-bit occupation pattern packed into an integer (a
Python int in a ``StateVector``, a ``np.uint64`` in a ``sector_basis``
array), with mode 0 at the most significant bit.  That convention makes
the integer order of packed states coincide with the lexicographic order
of their printed bitstrings (mode 0 leftmost), which is the iteration
order used for every deterministic reduction in this package.

Operators act on these states through ``operators.apply_operator``, whose
kernels carry the usual fermionic sign
``(-1)**(number of occupied modes with smaller index)``; ``mode_bit`` is
the one statement of the bit layout they and the state builders use.
Amplitudes are exact (int or ``Fraction``) throughout.
"""

from __future__ import annotations

import math
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


class StateVector:
    """Sparse amplitude map over packed Fock states.

    Amplitudes are int or ``Fraction``; zeros are dropped on insertion so
    that "the residual vanishes" is a statement about an empty map, not
    about small numbers.  ``operators.apply_operator`` raises ``TypeError``
    on any other amplitude.
    """

    __slots__ = ("n_modes", "amp")

    def __init__(self, n_modes: int, amplitudes: dict[int, Fraction] | None = None):
        if n_modes > MAX_MODES:
            raise ValueError(f"n_modes {n_modes} exceeds {MAX_MODES}")
        self.n_modes = n_modes
        self.amp: dict[int, Fraction] = {}
        if amplitudes:
            for occ, a in amplitudes.items():
                self.add_term(occ, a)

    @classmethod
    def vacuum(cls, n_modes: int) -> "StateVector":
        return cls(n_modes, {0: 1})

    def copy(self) -> "StateVector":
        out = StateVector(self.n_modes)
        out.amp = dict(self.amp)
        return out

    def add_term(self, occ: int, value: Fraction) -> None:
        cur = self.amp.get(occ, 0) + value
        if cur == 0:
            self.amp.pop(occ, None)
        else:
            self.amp[occ] = cur

    def __len__(self) -> int:
        return len(self.amp)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StateVector)
            and self.n_modes == other.n_modes
            and self.amp == other.amp
        )

    def scaled(self, factor: Fraction) -> "StateVector":
        out = StateVector(self.n_modes)
        if factor == 0:
            return out
        out.amp = {occ: a * factor for occ, a in self.amp.items()}
        return out

    def __add__(self, other: "StateVector") -> "StateVector":
        self._check_space(other)
        out = self.copy()
        for occ, a in other.amp.items():
            out.add_term(occ, a)
        return out

    def __sub__(self, other: "StateVector") -> "StateVector":
        return self + other.scaled(-1)

    def _check_space(self, other: "StateVector") -> None:
        if self.n_modes != other.n_modes:
            raise ValueError(
                f"mode table mismatch: {self.n_modes} vs {other.n_modes} modes"
            )

    def inner(self, other: "StateVector") -> Fraction:
        """<self|other>; the amplitudes are real, so nothing is conjugated."""
        self._check_space(other)
        if len(other.amp) < len(self.amp):
            keys = other.amp.keys() & self.amp.keys()
        else:
            keys = self.amp.keys() & other.amp.keys()
        total = 0
        for occ in sorted(keys):
            total += self.amp[occ] * other.amp[occ]
        return total

    def norm2(self) -> Fraction:
        total = 0
        for occ in sorted(self.amp):
            total += self.amp[occ] ** 2
        return total

    def norm(self) -> float:
        return math.sqrt(float(self.norm2()))

    def __repr__(self) -> str:
        parts = [
            f"{self.amp[occ]!r}|{occ:0{self.n_modes}b}>" for occ in sorted(self.amp)
        ]
        return "StateVector(" + " + ".join(parts) + ")" if parts else "StateVector(0)"
