"""Interaction weights on shell pairs.

Weights are exact rationals keyed by partner-pair classes so that the
symbolic layer stays exact, and ``operators.build_w`` uses the weight
``from_spec`` returns verbatim.  ``unit`` and ``random:<seed>`` are
invariant under the partner flip k -> 2K - k in each argument by
construction, so the paired states are dark for them; ``random`` draws
one value per ordered pair of hemisphere representatives, so it is not
exchange-symmetric, G(k1, k2) != G(k2, k1) in general, and the
Hamiltonian it gives is not Hermitian: sector "eigenvalues" reported for
it are not eigenvalues of H.  ``asymmetric:<seed>`` deliberately breaks
the flip invariance and is used as a negative control.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .lattice import IVec, ModeTable
from .operators import Formfactor, ShellDomainError, unit_formfactor

FormfactorSpec = tuple[Formfactor, str]


def random_symmetric(table: ModeTable, seed: int) -> FormfactorSpec:
    """Uniform rationals in [1/2, 2] per (rep1, rep2) hemisphere class."""
    rng = np.random.default_rng(seed)
    values: dict[tuple[IVec, IVec], Fraction] = {}
    for r1 in table.shell_plus:
        for r2 in table.shell_plus:
            values[(r1, r2)] = Fraction(int(rng.integers(32, 129)), 64)
    # hemisphere representative: the point itself on the plus side, its
    # partner on the minus side
    reps = {k: k for k in table.shell_plus}
    reps.update((k, table.partner(k)) for k in table.shell_minus)

    def g_fun(k1: IVec, k2: IVec) -> Fraction:
        try:
            return values[(reps[tuple(k1)], reps[tuple(k2)])]
        except KeyError as exc:
            raise ShellDomainError(
                f"{exc.args[0]} is not a shell point of this lattice"
            ) from None

    return g_fun, f"random:{seed}"


def asymmetric(table: ModeTable, seed: int) -> FormfactorSpec:
    """Partner-asymmetric weight: breaks the sign-flip symmetry on purpose.

    The bump sits on the second argument, the one whose symmetry the
    pair-annihilation identity actually relies on, so the interaction
    built with this weight does not leave the paired state dark.
    """
    base, _ = random_symmetric(table, seed)
    minus = set(table.shell_minus)

    def g_fun(k1: IVec, k2: IVec) -> Fraction:
        bump = Fraction(1, 3) if tuple(k2) in minus else Fraction(0)
        return base(k1, k2) + bump

    return g_fun, f"asymmetric:{seed}"


def from_spec(table: ModeTable, spec: str, master_seed: int = 0) -> FormfactorSpec:
    """Parse "unit" | "random:<seed>" | "asymmetric:<seed>".

    A missing seed falls back to the master seed so one recorded seed
    reproduces the whole run.
    """
    if spec == "unit":
        return unit_formfactor, "unit"
    name, _, seed_text = str(spec).partition(":")
    seed = int(seed_text) if seed_text else master_seed
    if name == "random":
        return random_symmetric(table, seed)
    if name == "asymmetric":
        return asymmetric(table, seed)
    raise ValueError(f"unknown formfactor spec {spec!r}")
