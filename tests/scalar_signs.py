"""Per-mode scalar sign kernel: the first-principles reference the
raw-factor oracles in the tests apply one factor at a time.

The engine itself never runs this code; every operator goes through
``operators._compile`` and ``operators._fire``, and the tests compare the
two.
"""

from darkpair.fock import mode_bit
from darkpair.operators import CREATE


def parity_sign(n_modes: int, occ: int, i: int) -> int:
    """Sign from anticommuting past the occupied modes with index < i."""
    return -1 if (occ >> (n_modes - i)).bit_count() & 1 else 1


def apply_create(n_modes: int, i: int, occ: int) -> tuple[int, int] | None:
    """Create a particle in mode ``i``; None encodes Pauli exclusion."""
    bit = mode_bit(n_modes, i)
    if occ & bit:
        return None
    return parity_sign(n_modes, occ, i), occ | bit


def apply_annihilate(n_modes: int, i: int, occ: int) -> tuple[int, int] | None:
    """Remove the particle in mode ``i``; None if the mode is empty."""
    bit = mode_bit(n_modes, i)
    if not occ & bit:
        return None
    return parity_sign(n_modes, occ, i), occ & ~bit


def apply_raw_factors(n_modes, factors, occ):
    """First-principles application of a raw factor string, right to left:
    ``(sign, occ)``, or None where a factor kills the state."""
    sign = 1
    cur = occ
    for kind, mode in reversed(factors):
        step = (apply_create(n_modes, mode, cur) if kind == CREATE
                else apply_annihilate(n_modes, mode, cur))
        if step is None:
            return None
        s, cur = step
        sign *= s
    return sign, cur
