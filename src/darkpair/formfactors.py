"""Interaction weights on shell pairs: one exact matrix per lattice.

``from_spec`` returns G with ``G[i][j]`` weighing the pair
``table.shell_all[i], table.shell_all[j]``, and ``operators.build_w``
uses it verbatim.  The paired states are dark when each row is constant
on partner columns: ``G[i][j] == G[i][p(j)]``, with ``p(j)`` the position
of 2K - ``shell_all[j]``.  ``unit`` and ``random:<seed>`` are invariant
under the partner flip in each argument by construction, but ``random``
is not exchange-symmetric, G != G^T in general, so the Hamiltonian it
gives is not Hermitian: sector "eigenvalues" reported for it are not
eigenvalues of H.  ``asymmetric:<seed>`` breaks the flip invariance on
purpose and is used as a negative control.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .lattice import ModeTable

Weights = tuple[tuple[Fraction, ...], ...]


def from_spec(table: ModeTable, spec: str, master_seed: int = 0) -> tuple[Weights, str]:
    """Parse "unit" | "random:<seed>" | "asymmetric:<seed>" into ``(G, name)``.

    ``random`` draws uniform rationals in [1/2, 2], one per ordered pair of
    ``shell_plus`` points, row-major; every shell point takes the row and
    column of its hemisphere representative (itself on the plus side, its
    partner on the minus side).  ``asymmetric`` adds 1/3 on the columns of
    the ``shell_minus`` points: the bump sits on the second argument, the
    one whose flip invariance the pair annihilation relies on, so the
    interaction it gives does not leave the paired state dark.  A missing
    seed falls back to the master seed so one recorded seed reproduces the
    whole run.
    """
    if spec == "unit":
        row = (Fraction(1),) * len(table.shell_all)
        return (row,) * len(row), "unit"
    name, _, seed_text = str(spec).partition(":")
    seed = int(seed_text) if seed_text else master_seed
    if name not in ("random", "asymmetric"):
        raise ValueError(f"unknown formfactor spec {spec!r}")
    rng = np.random.default_rng(seed)
    plus = table.shell_plus
    drawn = [[Fraction(v, 64) for v in row]
             for row in rng.integers(32, 129, size=(len(plus),) * 2).tolist()]
    position = {k: i for i, k in enumerate(plus)}
    reps = [*range(len(plus)),
            *(position[table.partner(k)] for k in table.shell_minus)]
    rows = [tuple(row[r] for r in reps) for row in drawn]
    if name == "asymmetric":
        n, bump = len(plus), Fraction(1, 3)
        rows = [row[:n] + tuple(x + bump for x in row[n:]) for row in rows]
    return tuple(rows[r] for r in reps), f"{name}:{seed}"
