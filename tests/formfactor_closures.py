"""Weights as callables ``G(k1, k2)`` on shell points: the reference that
``formfactors.from_spec``'s matrix is tested against.

The engine itself never runs this code; ``from_spec`` builds one exact
matrix over ``table.shell_all``, and the tests compare each entry with
these closures at the same pair of points.
"""

from fractions import Fraction

import numpy as np

from darkpair.operators import ShellDomainError


def unit(k1, k2):
    return Fraction(1)


def random_symmetric(table, seed):
    """Uniform rationals in [1/2, 2] per (rep1, rep2) hemisphere class."""
    rng = np.random.default_rng(seed)
    values = {}
    for r1 in table.shell_plus:
        for r2 in table.shell_plus:
            values[(r1, r2)] = Fraction(int(rng.integers(32, 129)), 64)
    # hemisphere representative: the point itself on the plus side, its
    # partner on the minus side
    reps = {k: k for k in table.shell_plus}
    reps.update((k, table.partner(k)) for k in table.shell_minus)

    def g_fun(k1, k2):
        try:
            return values[(reps[tuple(k1)], reps[tuple(k2)])]
        except KeyError as exc:
            raise ShellDomainError(
                f"{exc.args[0]} is not a shell point of this lattice"
            ) from None

    return g_fun, f"random:{seed}"


def asymmetric(table, seed):
    """``random_symmetric`` plus 1/3 wherever the second argument lies in
    the minus hemisphere."""
    base, _ = random_symmetric(table, seed)
    minus = set(table.shell_minus)

    def g_fun(k1, k2):
        bump = Fraction(1, 3) if tuple(k2) in minus else Fraction(0)
        return base(k1, k2) + bump

    return g_fun, f"asymmetric:{seed}"


def from_spec(table, spec, master_seed=0):
    """The callable and name for "unit" | "random:<seed>" | "asymmetric:<seed>"."""
    if spec == "unit":
        return unit, "unit"
    name, _, seed_text = str(spec).partition(":")
    seed = int(seed_text) if seed_text else master_seed
    return {"random": random_symmetric, "asymmetric": asymmetric}[name](table, seed)
