"""The closed form of [W, pair(k, lam)] built monomial by monomial: the
first-principles reference that ``operators.pair_commutator_rhs`` is
tested against.

The engine writes the closed form's ``(C, A)`` keys and signs straight
from the pair modes, its coefficients as integer numerators over one
denominator.  This module writes each monomial as its factors, creations
then annihilations, multiplies every coefficient as a ``Fraction`` and
leaves the normal ordering to ``OperatorExpr.from_monomials``.
"""

from fractions import Fraction

from darkpair.formfactors import from_spec
from darkpair.operators import ANNIHILATE, CREATE, OperatorExpr


def pair_commutator_monomials(table, k, lam, g, weights=None) -> OperatorExpr:
    """sum_i G[i][j] (g/volume) a+_{up,k_i} a+_{dn,p(k_i)} *
        (1 + lam - lam n_{up,pk} - lam n_{dn,k} - n_{up,k} - n_{dn,pk})

    with ``k = table.shell_all[j]``, one monomial per term."""
    k = tuple(k)
    pref = Fraction(g) / table.config.volume_fraction
    lam = Fraction(lam)
    up_k, dn_pk = table.pair_modes(k)
    up_pk, dn_k = table.pair_modes(table.partner(k))
    points = table.shell_all
    if weights is None:
        weights = from_spec(table, "unit")[0]
    j = points.index(k)

    monomials = []
    for k1, row in zip(points, weights):
        coeff = pref * row[j]
        if coeff == 0:
            continue
        c_up, c_dn = table.pair_modes(k1)
        head = ((CREATE, c_up), (CREATE, c_dn))
        monomials.append((coeff * (1 + lam), head))
        for weight, idx in (
            (-lam, up_pk),
            (-lam, dn_k),
            (Fraction(-1), up_k),
            (Fraction(-1), dn_pk),
        ):
            monomials.append(
                (coeff * weight, head + ((CREATE, idx), (ANNIHILATE, idx)))
            )
    return OperatorExpr.from_monomials(monomials)
