"""darkpair: exact Fock-space engine for pairing-interaction dark states.

Builds discrete momentum shells around a Fermi surface, represents the
pairing Hamiltonian and its two-particle creators symbolically with
exact rational coefficients, constructs the interaction-nullified paired
state, and verifies the whole chain of operator identities both
symbolically and on explicit state vectors, including exact
diagonalization of small particle-number sectors.
"""

from .fock import StateVector, sector_basis
from .lattice import SPIN_DOWN, SPIN_UP, LatticeConfig, ModeTable, build_mode_table
from .operators import (
    OperatorExpr,
    apply_operator,
    build_gamma,
    build_h0,
    build_momentum_op,
    build_number_op,
    build_pair,
    build_w,
    commutator,
    matrix_in_sector,
)
from .spectra import (
    bcs_variational_energy,
    diagonalize_sector,
    nc_in_spectrum,
    scan_g,
)
from .states import bcs_state, nc_state, phi_core
from .verify import continuum_energy_check, run_battery

__version__ = "0.1.0"
