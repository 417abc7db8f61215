"""Shared model lattices for the test suite.

The minimal lattice is one explicit pairing pair with a frozen core and
unit interaction volume, so every coefficient below is a small exact
rational and all hand-derived amplitudes apply verbatim.
"""

import numpy as np
import pytest

from darkpair.lattice import LatticeConfig, build_mode_table


@pytest.fixture(scope="session")
def minimal_config():
    return LatticeConfig(
        kf=1.2, delta=0.5, frozen_core=True,
        shell_points=((0, 0, 1), (0, 0, -1)), volume=1,
    )


@pytest.fixture(scope="session")
def minimal_table(minimal_config):
    return build_mode_table(minimal_config)


@pytest.fixture(scope="session")
def minimal_unfrozen_table():
    return build_mode_table(
        LatticeConfig(kf=1.2, delta=0.5, shell_points=((0, 0, 1), (0, 0, -1)),
                      volume=1)
    )


@pytest.fixture(scope="session")
def twopair_table():
    return build_mode_table(
        LatticeConfig(
            kf=1.2, delta=0.5, frozen_core=True,
            shell_points=((0, 0, 1), (0, 0, -1), (0, 1, 0), (0, -1, 0)),
            volume=1,
        )
    )


@pytest.fixture(scope="session")
def threepair_table():
    # Radial shell: exactly the six unit vectors.
    return build_mode_table(
        LatticeConfig(kf=1.0, delta=0.25, frozen_core=True, volume=1)
    )


@pytest.fixture(scope="session")
def boosted_table():
    return build_mode_table(
        LatticeConfig(
            kf=1.2, delta=0.5, boost=(0, 0, 1), frozen_core=True,
            shell_points=((0, 0, 2), (0, 0, 0)), volume=1,
        )
    )


@pytest.fixture
def arpack_gives_up(monkeypatch):
    """Install, with ``values``, a ``scipy.sparse.linalg.eigsh`` that raises
    ``ArpackNoConvergence`` with those partial eigenvalues, each with the
    uniform unit vector; the list returned gets every matrix it is given."""
    linalg = pytest.importorskip("scipy.sparse.linalg")
    matrices = []

    def install(values):
        def eigsh(mat, k, **kwargs):
            matrices.append(mat)
            vecs = np.full((mat.shape[0], len(values)), mat.shape[0] ** -0.5)
            raise linalg.ArpackNoConvergence(
                "ARPACK error -1: No convergence", np.array(values, dtype=complex), vecs)

        monkeypatch.setattr(linalg, "eigsh", eigsh)
        return matrices

    return install
