"""The weight matrices ``from_spec`` builds.

``build_w`` uses a weight verbatim, so the paired states are dark only
because ``unit`` and ``random:<seed>`` are invariant under k -> 2K - k in
each argument by construction; ``asymmetric:<seed>`` must break it.  Each
matrix equals, entry by entry, the callable it replaced
(``formfactor_closures``).
"""

from fractions import Fraction
from pathlib import Path

import pytest

import formfactor_closures
from darkpair.cli import bundled_config_path, load_config
from darkpair.formfactors import from_spec
from darkpair.lattice import build_mode_table

BUNDLED = ("minimal", "twopair", "threepair_core", "boosted", "broken_formfactor")
SHELL10 = Path(__file__).parent / "golden" / "shell10" / "config.json"
SEEDS = (0, 1, 7, 13, 107)


def bundled_table(name):
    path = SHELL10 if name == "shell10" else bundled_config_path(name)
    return build_mode_table(load_config(path)["lattice"])


def flip_mismatches(table, weights):
    """Shell pairs where G[i][j], G[p(i)][j] and G[i][p(j)] disagree, with
    p the partner's position in ``shell_all``."""
    points = table.shell_all
    flip = [points.index(table.partner(k)) for k in points]
    return [
        (points[i], points[j])
        for i, row in enumerate(weights)
        for j, value in enumerate(row)
        if not value == weights[flip[i]][j] == row[flip[j]]
    ]


@pytest.mark.parametrize("name", BUNDLED)
@pytest.mark.parametrize("spec", ["unit"] + [f"random:{s}" for s in SEEDS])
def test_built_weights_are_partner_flip_invariant(name, spec):
    table = bundled_table(name)
    weights, ff_name = from_spec(table, spec)
    assert ff_name == spec
    assert flip_mismatches(table, weights) == []


@pytest.mark.parametrize("name", BUNDLED)
@pytest.mark.parametrize("seed", SEEDS)
def test_asymmetric_control_breaks_flip_invariance(name, seed):
    table = bundled_table(name)
    weights, _ = from_spec(table, f"asymmetric:{seed}")
    assert flip_mismatches(table, weights)


@pytest.mark.parametrize("name", (*BUNDLED, "shell10"))
@pytest.mark.parametrize("spec,master_seed", [
    *((spec, 0) for spec in ("unit", "random:0", "random:1", "random:13",
                             "random:107", "asymmetric:3", "asymmetric:7")),
    ("random", 7),
])
def test_matrix_equals_the_closure_at_every_shell_pair(name, spec, master_seed):
    table = bundled_table(name)
    weights, ff_name = from_spec(table, spec, master_seed)
    g_fun, old_name = formfactor_closures.from_spec(table, spec, master_seed)
    points = table.shell_all
    assert ff_name == old_name
    assert all(type(x) is Fraction for row in weights for x in row)
    assert weights == tuple(tuple(g_fun(k1, k2) for k2 in points) for k1 in points)
