"""The dictionary state: the independent oracle that the tests hold the
``StateVector`` record and its kernels to.

A ``DictState`` maps each packed occupation to its int or ``Fraction``
amplitude and does its arithmetic term by term, as the engine's states
did before they became the kernels' integer record.  ``apply_dict``
applies an operator one state and one term at a time.  The engine never
runs this code.
"""

import math
from fractions import Fraction

from darkpair.fock import StateVector
from darkpair.operators import _compile


class DictState:
    """Sparse amplitude map over packed Fock states; zeros are dropped on
    insertion, so a vanishing state is an empty map."""

    __slots__ = ("n_modes", "amp")

    def __init__(self, n_modes: int, amplitudes: dict | None = None):
        self.n_modes = n_modes
        self.amp: dict[int, Fraction] = {}
        for occ, a in (amplitudes or {}).items():
            self.add_term(occ, a)

    @classmethod
    def of(cls, vec: StateVector) -> "DictState":
        return cls(vec.n_modes, vec.amp)

    def record(self) -> StateVector:
        return StateVector(self.n_modes, self.amp)

    @classmethod
    def vacuum(cls, n_modes: int) -> "DictState":
        return cls(n_modes, {0: 1})

    def copy(self) -> "DictState":
        out = DictState(self.n_modes)
        out.amp = dict(self.amp)
        return out

    def add_term(self, occ: int, value) -> None:
        cur = self.amp.get(occ, 0) + value
        if cur == 0:
            self.amp.pop(occ, None)
        else:
            self.amp[occ] = cur

    def __len__(self) -> int:
        return len(self.amp)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DictState) and self.n_modes == other.n_modes
                and self.amp == other.amp)

    def scaled(self, factor) -> "DictState":
        out = DictState(self.n_modes)
        if factor != 0:
            out.amp = {occ: a * factor for occ, a in self.amp.items()}
        return out

    def __add__(self, other: "DictState") -> "DictState":
        self._check_space(other)
        out = self.copy()
        for occ, a in other.amp.items():
            out.add_term(occ, a)
        return out

    def __sub__(self, other: "DictState") -> "DictState":
        return self + other.scaled(-1)

    def _check_space(self, other: "DictState") -> None:
        if self.n_modes != other.n_modes:
            raise ValueError(
                f"mode table mismatch: {self.n_modes} vs {other.n_modes} modes"
            )

    def inner(self, other: "DictState"):
        """<self|other>; the amplitudes are real, so nothing is conjugated."""
        self._check_space(other)
        return sum((self.amp[occ] * other.amp[occ]
                    for occ in sorted(self.amp.keys() & other.amp.keys())), 0)

    def norm2(self):
        return sum((self.amp[occ] ** 2 for occ in sorted(self.amp)), 0)

    def norm(self) -> float:
        return math.sqrt(float(self.norm2()))


def apply_compiled(compiled: list[tuple], occ: int, amp, acc: dict) -> None:
    """Accumulate ``amp * terms|occ>`` into ``acc`` for ``_compile``'s
    terms, exact zeros kept; each term's coefficient is its numerator, so
    ``amp`` carries the record's ``1 / den``.

    Annihilators act first, right to left: a term fires when its
    annihilated modes are occupied and its created modes are empty after
    the annihilation.
    """
    for cmask, amask, cpar, apar, coeff in compiled:
        if occ & amask == amask:
            mid = occ ^ amask
            if not mid & cmask:
                res = mid | cmask
                sign = -1 if ((occ & apar) ^ (mid & cpar)).bit_count() & 1 else 1
                acc[res] = acc.get(res, 0) + coeff * amp * sign


def apply_dict(expr, state: DictState) -> DictState:
    """``expr|state>`` one occupation and one compiled term at a time."""
    compiled = _compile(expr, state.n_modes)
    acc = {}
    for occ, amp in sorted(state.amp.items()):
        apply_compiled(compiled, occ, Fraction(amp, expr.den), acc)
    return DictState(state.n_modes, acc)


def eigen_residual_dict(op, state: DictState, eigenvalue) -> float:
    """``|| A|psi> - lambda|psi> || / ||psi||`` with the image, the shifted
    state and their difference built as ``DictState``s."""
    diff = apply_dict(op, state) - state.scaled(eigenvalue)
    return diff.norm() / state.norm() if diff.amp else 0.0


def dark_residual_dict(w, state: DictState) -> float:
    """The relative dark residual ``|| W|psi> || / (||W||_1 ||psi||)`` from
    the image built as a ``DictState``."""
    image = apply_dict(w, state)
    if not image.amp:
        return 0.0
    denom = float(w.one_norm()) * state.norm()
    return image.norm() / denom if denom else image.norm()
