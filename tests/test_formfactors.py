"""Partner-flip invariance of the weights ``from_spec`` builds.

``build_w`` uses a weight verbatim, so the paired states are dark only
because ``unit`` and ``random:<seed>`` are invariant under k -> 2K - k in
each argument by construction; ``asymmetric:<seed>`` must break it.
"""

import pytest

from darkpair.cli import bundled_config_path, load_config
from darkpair.formfactors import from_spec
from darkpair.lattice import build_mode_table

BUNDLED = ("minimal", "twopair", "threepair_core", "boosted", "broken_formfactor")
SEEDS = (0, 1, 7, 13, 107)


def bundled_table(name):
    return build_mode_table(load_config(bundled_config_path(name))["lattice"])


def flip_mismatches(table, g_fun):
    """Shell pairs where g(k1,k2), g(2K-k1,k2) and g(k1,2K-k2) disagree."""
    bad = []
    for k1 in table.shell_all:
        for k2 in table.shell_all:
            value = g_fun(k1, k2)
            if not value == g_fun(table.partner(k1), k2) == g_fun(k1, table.partner(k2)):
                bad.append((k1, k2))
    return bad


@pytest.mark.parametrize("name", BUNDLED)
@pytest.mark.parametrize("spec", ["unit"] + [f"random:{s}" for s in SEEDS])
def test_built_weights_are_partner_flip_invariant(name, spec):
    table = bundled_table(name)
    g_fun, ff_name = from_spec(table, spec)
    assert ff_name == spec
    assert flip_mismatches(table, g_fun) == []


@pytest.mark.parametrize("name", BUNDLED)
@pytest.mark.parametrize("seed", SEEDS)
def test_asymmetric_control_breaks_flip_invariance(name, seed):
    table = bundled_table(name)
    g_fun, _ = from_spec(table, f"asymmetric:{seed}")
    assert flip_mismatches(table, g_fun)
