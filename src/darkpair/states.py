"""Builders for the named many-body states of the pairing model.

All builders return unnormalized vectors with exact amplitudes; the
fully paired shell state has norm 2^(m/2) for m hemisphere points.
Verification always works with relative residuals, so nothing here
rescales.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .fock import StateVector, mode_bit
from .lattice import SPIN_DOWN, SPIN_UP, EmptyShellError, IVec, ModeTable
from .operators import CREATE, OperatorExpr, apply_operator, build_gamma

PairCoefficients = Mapping[IVec, tuple[float, float]]


def phi_core(table: ModeTable) -> StateVector:
    """Inner sphere completely filled (both spins), amplitude +1.

    With a frozen core the table has no inner points, so this is the
    formal vacuum of the shell-only space; the table's core record
    carries the omitted particles and energy.
    """
    occ = 0
    for n in table.inner_points:
        occ |= mode_bit(table.n_modes, table.mode_index(SPIN_UP, n))
        occ |= mode_bit(table.n_modes, table.mode_index(SPIN_DOWN, n))
    return StateVector(table.n_modes, {occ: 1})


def nc_state(table: ModeTable) -> StateVector:
    """Product of antisymmetric pair creators over the plus hemisphere,
    acting on the filled core.

    The factors commute, so any order gives the same vector; the
    deterministic hemisphere order is used for reproducibility.
    """
    if not table.shell_plus:
        raise EmptyShellError("lattice has no hemisphere points to pair")
    state = phi_core(table)
    for k in table.shell_plus:
        state = apply_operator(build_gamma(table, k), state)
    return state


def bcs_state(table: ModeTable, coeffs: PairCoefficients) -> StateVector:
    """Variational product state Prod_{k in shell} (u_k + v_k a+_up,k a+_dn,pk)
    on the core, exactly.

    The product runs over the full shell (both hemispheres), mixing
    particle-number sectors.  Each coefficient is taken as the exact binary
    rational it holds (``Fraction(u)``), and each factor is applied with
    ``apply_operator``, so every amplitude is a ``Fraction``.  Every shell
    point needs a pair (u, v) with u^2 + v^2 = 1 to within 1e-9.
    """
    state = phi_core(table)
    for k in table.shell_all:
        if tuple(k) not in coeffs:
            raise ValueError(f"missing pair coefficients for shell point {k}")
        u, v = map(Fraction, coeffs[tuple(k)])
        if abs(u * u + v * v - 1) > 1e-9:
            raise ValueError(f"coefficients at {k} are not normalized")
        pair = OperatorExpr.from_monomial(v, [(CREATE, m) for m in table.pair_modes(k)])
        state = apply_operator(OperatorExpr.identity(u) + pair, state)
    return state


def phi_core_energy(table: ModeTable) -> Fraction:
    """Absolute kinetic energy of ``phi_core``: the frozen-core record plus
    two particles per live inner point."""
    return table.core_energy + 2 * sum(
        (table.epsilon(n) for n in table.inner_points), Fraction(0))


def nc_energy(table: ModeTable) -> Fraction:
    """Counting oracle for the kinetic eigenvalue of the paired state.

    The core energy plus one pair (energy eps(k)+eps(pk)) per hemisphere
    point.
    """
    e = phi_core_energy(table)
    for k in table.shell_plus:
        e += table.epsilon(k) + table.epsilon(table.partner(k))
    return e


def nc_momentum(table: ModeTable) -> IVec:
    """Counting oracle for total momentum in grid units: N * K."""
    n_tot = table.total_particles_nc()
    K = table.config.boost
    return (n_tot * K[0], n_tot * K[1], n_tot * K[2])
