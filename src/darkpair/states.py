"""Builders for the named many-body states of the pairing model.

All builders return unnormalized vectors with exact amplitudes; the
fully paired shell state has norm 2^(m/2) for m hemisphere points.
Verification always works with relative residuals, so nothing here
rescales.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

import numpy as np

from .fock import StateVector, mode_bit
from .lattice import SPIN_DOWN, SPIN_UP, EmptyShellError, IVec, ModeTable
from .operators import (
    CREATE,
    OperatorExpr,
    _compile,
    _fire,
    apply_operator,
    build_gamma,
)

PairCoefficients = Mapping[IVec, tuple[complex, complex]]


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


def fermi_state(table: ModeTable) -> StateVector:
    """Every mode within the Fermi radius occupied for both spins.

    The radius test |k - K| <= kf is relative to the drift vector, like
    all shell classification.  Amplitude normalized to +1.
    """
    kf2 = table.config.radius2_grid(table.config.kf)
    K = table.config.boost
    occ = 0
    for i, mode in enumerate(table.modes):
        u = (mode.n[0] - K[0], mode.n[1] - K[1], mode.n[2] - K[2])
        if u[0] * u[0] + u[1] * u[1] + u[2] * u[2] <= kf2:
            occ |= mode_bit(table.n_modes, i)
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
    """Variational product state Prod_{k in shell} (u_k + v_k a+_up,k a+_dn,pk).

    The product runs over the full shell (both hemispheres), mixing
    particle-number sectors.  The coefficients may be floats, which the
    exact operator kernels do not take: each pair creator is compiled once
    and fired with ``_fire`` over the current occupations, its sign taken
    from the canonical term's coefficient.  Every shell point needs a
    pair (u, v) with |u|^2 + |v|^2 = 1 to within 1e-9.
    """
    for k in table.shell_all:
        if tuple(k) not in coeffs:
            raise ValueError(f"missing pair coefficients for shell point {k}")
        u, v = coeffs[tuple(k)]
        if abs(abs(u) ** 2 + abs(v) ** 2 - 1.0) > 1e-9:
            raise ValueError(f"coefficients at {k} are not normalized")
    state = phi_core(table)
    for k in table.shell_all:
        u, v = coeffs[tuple(k)]
        up, dn = table.pair_modes(k)
        (term,) = _compile(OperatorExpr.from_monomial(1, ((CREATE, up), (CREATE, dn))),
                           table.n_modes)
        occs = sorted(state.amp)
        amps = [state.amp[occ] for occ in occs]
        at, res, odd = _fire(term, np.array(occs, dtype=np.uint64))
        odd ^= term[-1] < 0
        out = StateVector(table.n_modes)
        for occ, a in zip(occs, amps):
            out.add_term(occ, u * a)
        for i, occ, flip in zip(at.tolist(), res.tolist(), odd.tolist()):
            out.add_term(occ, -v * amps[i] if flip else v * amps[i])
        state = out
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
