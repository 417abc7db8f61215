"""The rewriting normal-orderer: the independent oracle that the tests
hold ``compose``, ``commutator`` and ``from_monomials`` to, and the
adjoint read off the masks (``dagger``), which the rewriter checks in turn.

It takes a monomial with its factors in any order and rewrites adjacent
pairs by

    a_i a+_j = delta_ij - a+_j a_i,      a_i a_j = -a_j a_i (i != j),
    a_i a_i = 0  (same for creations),

with signs tracked exactly, until every term is canonical: its creations
then its annihilations, each block ascending.  The engine never runs this
code; it reads the same canonical terms off mode bitmasks.
"""

from darkpair.operators import (
    ANNIHILATE,
    CREATE,
    OperatorExpr,
    _exact,
)

Factor = tuple[str, int]
Term = tuple[Factor, ...]


def _normal_order_term(coeff, factors: Term, out: dict) -> None:
    """Accumulate the normal-ordered expansion of one monomial into ``out``."""
    stack: list[tuple[object, Term]] = [(coeff, tuple(factors))]
    while stack:
        cf, fac = stack.pop()
        pos = 0
        resolved = True
        while pos < len(fac) - 1:
            (k1, m1), (k2, m2) = fac[pos], fac[pos + 1]
            if k1 == ANNIHILATE and k2 == CREATE:
                # a_m1 a+_m2 = delta - a+_m2 a_m1
                if m1 == m2:
                    stack.append((cf, fac[:pos] + fac[pos + 2 :]))
                stack.append(
                    (-cf, fac[:pos] + ((k2, m2), (k1, m1)) + fac[pos + 2 :])
                )
                resolved = False
                break
            if k1 == k2:
                if m1 == m2:
                    resolved = False
                    break  # nilpotent: term vanishes
                if m1 > m2:
                    stack.append(
                        (-cf, fac[:pos] + ((k2, m2), (k1, m1)) + fac[pos + 2 :])
                    )
                    resolved = False
                    break
            pos += 1
        if resolved:
            cur = out.get(fac, 0) + cf
            if cur == 0:
                out.pop(fac, None)
            else:
                out[fac] = cur


def key(factors: Term) -> tuple[int, int]:
    """The ``(C, A)`` key of a canonical factor tuple."""
    return tuple(sum(1 << m for k, m in factors if k == kind)
                 for kind in (CREATE, ANNIHILATE))


def factors(term: tuple[int, int]) -> Term:
    """The canonical factor tuple of a ``(C, A)`` key."""
    return tuple((kind, m) for kind, mask in zip((CREATE, ANNIHILATE), term)
                 for m in range(mask.bit_length()) if mask >> m & 1)


def normal_ordered_terms(monomials) -> dict[tuple[int, int], object]:
    """The sum of ``coeff * factors`` over ``monomials``, factors in any
    order, normal-ordered by the rewriter: its ``{(C, A): coefficient}``
    map, summed on ints and ``Fraction``s without an ``OperatorExpr``."""
    out: dict[Term, object] = {}
    for coeff, fs in monomials:
        coeff = _exact(coeff)
        if coeff != 0:
            _normal_order_term(coeff, tuple(fs), out)
    return {key(t): c for t, c in out.items()}


def normal_ordered(monomials) -> OperatorExpr:
    """``normal_ordered_terms`` as an operator."""
    return OperatorExpr(normal_ordered_terms(monomials))


def dagger(expr: OperatorExpr) -> OperatorExpr:
    """The adjoint read off the masks: ``(C, A)`` becomes ``(A, C)``, both
    blocks reversed back into ascending order, a sign of
    (-1)**(n (n - 1) / 2) for a block of n modes."""
    out = {}
    for (cm, am), c in expr.terms.items():
        n, m = cm.bit_count(), am.bit_count()
        out[am, cm] = -c if (n * (n - 1) + m * (m - 1)) // 2 & 1 else c
    return OperatorExpr(out)
