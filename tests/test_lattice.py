"""Lattice classification, mode ordering, and dispersion."""

import math
import time
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from band_rows import row_points, row_sums
from darkpair import lattice
from darkpair.lattice import (
    BAND_MAX,
    ROW_BUDGET,
    SPIN_DOWN,
    SPIN_UP,
    EmptyShellError,
    LatticeConfig,
    LatticeError,
    Mode,
    UnpairedModeError,
    _points_between,
    _slices,
    band_sums,
    boosted_twin,
    build_mode_table,
    hemisphere_positive,
)


def brute_force_shell(kf, delta, reach=4):
    """Independent enumeration of the radial shell with exact bounds."""
    lo2 = Fraction(kf - delta) ** 2
    hi2 = Fraction(kf + delta) ** 2
    pts = []
    for z in range(-reach, reach + 1):
        for y in range(-reach, reach + 1):
            for x in range(-reach, reach + 1):
                n2 = x * x + y * y + z * z
                if lo2 <= n2 <= hi2:
                    pts.append((x, y, z))
    return set(pts)


def test_shell_enumeration_against_brute_force():
    table = build_mode_table(LatticeConfig(kf=1.2, delta=0.5))
    expected = brute_force_shell(1.2, 0.5)
    assert set(table.shell_plus) | set(table.shell_minus) == expected
    # |n|^2 = 1 and |n|^2 = 2 orbits both fall in [0.49, 2.89]
    assert len(expected) == 18
    units = {(0, 0, 1), (0, 0, -1), (0, 1, 0), (0, -1, 0), (1, 0, 0), (-1, 0, 0)}
    assert units <= expected
    assert {(0, 0, 1), (0, 1, 0), (1, 0, 0)} <= set(table.shell_plus)
    assert len(table.shell_plus) == 9


@pytest.mark.parametrize("lo, hi", [
    (0, 0), (0, 7), (1, 1), (3, 3), (4, 8), (5, 12), (9, 30), (26, 26), (7, 7),
    (4, 1), (10, 3), (1, 0), (0, -1), (-5, -1),  # empty ranges
])
def test_band_sums_against_brute_force(lo, hi):
    reach = math.isqrt(max(hi, 0)) + 1
    norms = [x * x + y * y + z * z
             for x in range(-reach, reach + 1)
             for y in range(-reach, reach + 1)
             for z in range(-reach, reach + 1)]
    band = [n2 for n2 in norms if lo <= n2 <= hi]
    assert band_sums(lo, hi) == (len(band), sum(band))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_band_sums_against_the_row_loop(data):
    hi = data.draw(st.integers(0, 3000))
    lo = data.draw(st.integers(0, hi + 1))
    assert band_sums(lo, hi) == row_sums(lo, hi)


def test_band_sums_rejects_a_ball_past_exact_int64_sums():
    with pytest.raises(LatticeError, match="exceeds 16777216"):
        band_sums(0, BAND_MAX + 1)
    # the kf = 1e5 core, about 4e15 grid points, is refused before any work
    start = time.perf_counter()
    with pytest.raises(LatticeError, match="the largest walked in about a second"):
        build_mode_table(LatticeConfig(kf=1e5, delta=0.5, frozen_core=True,
                                       shell_points=((10**5, 0, 0), (-10**5, 0, 0))))
    assert time.perf_counter() - start < 1.0


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_points_between_against_the_row_loop(data):
    hi = data.draw(st.integers(0, 300))
    lo = data.draw(st.integers(0, hi + 1))
    center = data.draw(st.tuples(*[st.integers(-3, 3)] * 3))
    got = list(_points_between(center, lo, hi))
    assert len(got) == len(set(got))
    assert sorted(got) == sorted(
        (center[0] + x, center[1] + y, center[2] + z) for x, y, z in row_points(lo, hi))


# Thin bands (delta = 1e-9) far out: the band holds at most one integer
# |n|^2, and a walk over every row of the ball took seconds to minutes.
# Past BAND_MAX = 2**24 (kf 4096) nothing is walked.
@pytest.mark.parametrize("kf, error, match", [
    (1000.5, EmptyShellError, "no grid point"),
    (3000.5, EmptyShellError, "no grid point"),
    # 9000007 = 8m + 7 is no sum of three squares
    (math.sqrt(9000007), EmptyShellError, "no grid point"),
    (100000.5, LatticeError, "the largest walked in about a second"),
    (65536, LatticeError, "the largest walked in about a second"),
    (8192, LatticeError, "the largest walked in about a second"),
    (32768, LatticeError, "the largest walked in about a second"),
    (math.sqrt(2**30 - 1), LatticeError, "the largest walked in about a second"),
])
def test_thin_far_band_fails_fast(kf, error, match):
    start = time.perf_counter()
    with pytest.raises(error, match=match):
        build_mode_table(LatticeConfig(kf=kf, delta=1e-9, frozen_core=True))
    assert time.perf_counter() - start < 1.0


def test_thin_far_band_with_points_builds_fast():
    # kf = 4096 walks the ball of BAND_MAX itself
    for kf in (2048, 4096):
        start = time.perf_counter()
        table = build_mode_table(LatticeConfig(kf=kf, delta=1e-9, frozen_core=True))
        assert time.perf_counter() - start < 2.0
        assert set(table.shell_all) == {
            tuple(s * kf * (i == axis) for i in range(3)) for axis in range(3)
            for s in (1, -1)}
        assert table.n_modes == 12


def check_against_brute_force(config):
    """Shell, frozen-core record and live inner points of ``config``
    against an enumeration of the grid about its boost."""
    table = build_mode_table(config)
    boost = config.boost
    lo2, hi2 = config.shell_bounds2
    reach = math.isqrt(math.floor(hi2)) + 1
    band, inner = set(), set()
    for z in range(-reach, reach + 1):
        for y in range(-reach, reach + 1):
            for x in range(-reach, reach + 1):
                n2 = x * x + y * y + z * z
                n = (boost[0] + x, boost[1] + y, boost[2] + z)
                if lo2 <= n2 <= hi2:
                    band.add(n)
                elif n2 < lo2:
                    inner.add(n)
                else:
                    assert not table.is_shell(n)
    assert set(table.shell_all) == band and len(table.shell_all) == len(band)
    # the frozen core is a closed-form record of the inner ball
    assert table.inner_points == ()
    assert table.core_particles == 2 * len(inner)
    assert table.core_energy == 2 * sum(config.epsilon(n) for n in inner)
    assert table.core_momentum == tuple(2 * sum(n[ax] for n in inner) for ax in range(3))
    assert f"inner={len(inner)} " in table.descriptor()
    assert table.total_particles_nc() == 2 * len(inner) + len(band)
    if len(inner) + len(band) <= 32:  # the live core fits the 64-mode word
        thawed = build_mode_table(replace(config, frozen_core=False))
        assert set(thawed.inner_points) == inner
        assert len(thawed.inner_points) == len(inner)
        assert thawed.descriptor().split()[0] == table.descriptor().split()[0]
    assert {table.partner(n) for n in table.shell_plus} == set(table.shell_minus)
    # frozen core: the modes are the plus, then the minus points, two spins each
    assert [m.n for m in table.modes] == [n for n in table.shell_all for _ in range(2)]
    for n in band | inner:
        assert table.is_shell(n) == (n in band)


GEOMETRIES = [
    (1.0, 0.25, (0, 0, 0), 2 * math.pi),
    (1.575, 0.17, (0, 0, 0), 2 * math.pi),
    (2.0, 0.05, (1, -2, 3), 2 * math.pi),
    (1.3, 0.6, (0, 1, 0), 5.0),
]


@pytest.mark.parametrize("kf, delta, boost, L", GEOMETRIES)
def test_band_and_inner_points_against_brute_force(kf, delta, boost, L):
    check_against_brute_force(
        LatticeConfig(kf=kf, delta=delta, boost=boost, L=L, frozen_core=True))


@pytest.mark.parametrize("geometry, c, mu", [
    (GEOMETRIES[3], 1.7, 0.3),
    (GEOMETRIES[2], 0.5, -1.25),
    (GEOMETRIES[1], 3.0, 2.0),
])
def test_core_record_with_dispersion_against_brute_force(geometry, c, mu):
    # mu shifts every inner point, so the core energy carries count*mu
    kf, delta, boost, L = geometry
    check_against_brute_force(LatticeConfig(kf=kf, delta=delta, boost=boost, L=L,
                                            c=c, mu=mu, frozen_core=True))


def test_three_pair_shell_is_exactly_unit_vectors(threepair_table):
    assert set(threepair_table.shell_plus) == {(0, 0, 1), (0, 1, 0), (1, 0, 0)}
    assert set(threepair_table.shell_minus) == {(0, 0, -1), (0, -1, 0), (-1, 0, 0)}
    assert threepair_table.inner_points == ()
    assert threepair_table.core_particles == 2
    assert threepair_table.descriptor().startswith("inner=1 ")


def test_hemisphere_covers_each_pair_once():
    table = build_mode_table(LatticeConfig(kf=1.2, delta=0.5))
    plus = set(table.shell_plus)
    minus = set(table.shell_minus)
    assert plus.isdisjoint(minus)
    assert {(-x, -y, -z) for x, y, z in plus} == minus
    for n in plus:
        assert hemisphere_positive(n)
        assert not hemisphere_positive((-n[0], -n[1], -n[2]))


def test_shell_symmetric_under_negation():
    table = build_mode_table(LatticeConfig(kf=1.0, delta=0.25))
    shell = set(table.shell_all)
    assert shell == {(-x, -y, -z) for x, y, z in shell}


def test_frozen_core_record(minimal_table):
    assert minimal_table.inner_points == ()
    assert minimal_table.descriptor().startswith("inner=1 ")
    assert minimal_table.core_particles == 2
    assert minimal_table.core_energy == 0
    assert len(minimal_table.modes) == 4
    assert minimal_table.modes == (
        Mode(SPIN_UP, (0, 0, 1)),
        Mode(SPIN_DOWN, (0, 0, 1)),
        Mode(SPIN_UP, (0, 0, -1)),
        Mode(SPIN_DOWN, (0, 0, -1)),
    )


def test_mode_order_partition_then_zyx_then_spin(minimal_unfrozen_table):
    t = minimal_unfrozen_table
    assert t.modes == (
        Mode(SPIN_UP, (0, 0, 0)),
        Mode(SPIN_DOWN, (0, 0, 0)),
        Mode(SPIN_UP, (0, 0, 1)),
        Mode(SPIN_DOWN, (0, 0, 1)),
        Mode(SPIN_UP, (0, 0, -1)),
        Mode(SPIN_DOWN, (0, 0, -1)),
    )
    assert t.inner_points == ((0, 0, 0),)
    assert t.shell_plus == ((0, 0, 1),)
    assert t.shell_minus == ((0, 0, -1),)


def test_build_is_pure():
    cfg = LatticeConfig(kf=1.0, delta=0.25, frozen_core=True, volume=1)
    a = build_mode_table(cfg)
    b = build_mode_table(cfg)
    assert a.modes == b.modes
    assert a.shell_plus == b.shell_plus
    assert a.shell_minus == b.shell_minus
    assert a.inner_points == b.inner_points
    assert a == b


def test_pair_modes_are_looked_up_once_and_leave_equality_alone():
    cfg = LatticeConfig(kf=1.0, delta=0.25, boost=(0, 0, 1), frozen_core=True, volume=1)
    a, b = build_mode_table(cfg), build_mode_table(cfg)
    for k in a.shell_all:
        want = (a.mode_index(SPIN_UP, k), a.mode_index(SPIN_DOWN, a.partner(k)))
        assert a.pair_modes(k) == a.pair_modes(list(k)) == want
    assert a._pairs and not b._pairs
    assert a == b and hash(a) == hash(b)
    want = [b.pair_modes(k) for k in b.shell_all]
    with mock.patch.object(type(a), "mode_index", side_effect=AssertionError):
        assert [a.pair_modes(k) for k in a.shell_all] == want
    with pytest.raises(KeyError):
        a.pair_modes((5, 5, 5))
    assert (5, 5, 5) not in a._pairs


def test_delta_reaching_origin_rejected():
    with pytest.raises(LatticeError):
        build_mode_table(LatticeConfig(kf=0.5, delta=0.5))
    with pytest.raises(LatticeError):
        build_mode_table(LatticeConfig(kf=0.4, delta=0.5))


def test_empty_shell_rejected():
    with pytest.raises(EmptyShellError):
        build_mode_table(LatticeConfig(kf=0.5, delta=0.1))


def test_unpaired_explicit_shell_rejected():
    with pytest.raises(UnpairedModeError):
        build_mode_table(
            LatticeConfig(kf=1.2, delta=0.5, shell_points=((0, 0, 1),))
        )


def test_explicit_point_outside_band_rejected():
    with pytest.raises(LatticeError):
        build_mode_table(
            LatticeConfig(kf=1.2, delta=0.5, shell_points=((0, 0, 2), (0, 0, -2)))
        )


def test_dispersion_examples():
    cfg = LatticeConfig(kf=1.2, delta=0.5)
    assert cfg.epsilon((0, 0, 1)) == 1
    cfg_mu = LatticeConfig(kf=1.2, delta=0.5, mu=1.0)
    assert cfg_mu.epsilon((1, 1, 0)) == 1
    cfg_small_box = LatticeConfig(kf=2.4, delta=1.0, L=math.pi)
    assert cfg_small_box.epsilon((0, 0, 1)) == 4


def test_boosted_partner_and_classification(boosted_table):
    t = boosted_table
    assert t.shell_plus == ((0, 0, 2),)
    assert t.shell_minus == ((0, 0, 0),)
    assert t.partner((0, 0, 2)) == (0, 0, 0)
    assert t.inner_points == ()
    assert t.descriptor().startswith("inner=1 ")
    # core record at the drift point: two particles of energy 1 each
    assert t.core_particles == 2
    assert t.core_energy == 2
    assert t.core_momentum == (0, 0, 2)


def test_boosted_radial_lattice_pairs_about_drift():
    t = build_mode_table(LatticeConfig(kf=1.0, delta=0.25, boost=(0, 0, 1)))
    assert set(t.shell_all) == {
        (0, 0, 2), (0, 0, 0), (0, 1, 1), (0, -1, 1), (1, 0, 1), (-1, 0, 1)
    }
    for n in t.shell_plus:
        assert t.partner(n) in t.shell_minus


def test_boosted_twin_preserves_relative_structure(minimal_table):
    t = boosted_twin(minimal_table, (0, 0, 1))
    assert t.shell_plus == ((0, 0, 2),)
    assert t.shell_minus == ((0, 0, 0),)


def test_too_many_modes_rejected():
    with pytest.raises(LatticeError):
        build_mode_table(LatticeConfig(kf=3.0, delta=1.0))
    # live inner points count towards the cap: 2 shell points, 57 inner
    config = LatticeConfig(kf=2.5, delta=0.1, volume=1,
                           shell_points=((1, 1, 2), (-1, -1, -2)))
    with pytest.raises(LatticeError, match="more than 64 modes"):
        build_mode_table(config)
    frozen = build_mode_table(replace(config, frozen_core=True))
    assert frozen.core_particles == 2 * 57
    assert frozen.descriptor().startswith("inner=57 ")


def test_frozen_core_is_not_enumerated():
    # the kf = 40 ball holds 258,135 grid points; the record is summed row
    # by row in closed form, never point by point
    start = time.perf_counter()
    table = build_mode_table(LatticeConfig(kf=40, delta=0.5, frozen_core=True,
                                           shell_points=((40, 0, 0), (-40, 0, 0))))
    assert time.perf_counter() - start < 1.0
    assert table.inner_points == ()
    assert table.descriptor().startswith("inner=258135 ")
    assert table.core_particles == 2 * 258135
    # the kf = 1000 ball, 4.2e9 grid points; the row loop of band_rows.py
    # takes seconds to give the same record
    table = build_mode_table(LatticeConfig(kf=1000, delta=0.5, frozen_core=True,
                                           shell_points=((1000, 0, 0), (-1000, 0, 0))))
    assert time.perf_counter() - start < 2.0
    assert table.core_particles == 2 * 4182513051
    assert table.core_energy == 5014000210392528


@pytest.mark.parametrize("frozen", [True, False])
def test_huge_band_rejected_before_enumeration(frozen):
    # the kf = 400 ball holds about 2.7e8 grid points
    start = time.perf_counter()
    with pytest.raises(LatticeError, match="more than 64 modes"):
        build_mode_table(LatticeConfig(kf=400, delta=0.5, frozen_core=frozen))
    assert time.perf_counter() - start < 1.0


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_band_walk_in_small_row_batches(data):
    # a budget below one z-slice's rows puts each slice in a batch of its own
    hi = data.draw(st.integers(0, 300))
    lo = data.draw(st.integers(0, hi + 1))
    center = data.draw(st.tuples(*[st.integers(-3, 3)] * 3))
    with mock.patch.object(lattice, "ROW_BUDGET", data.draw(st.integers(1, 60))):
        assert band_sums(lo, hi) == row_sums(lo, hi)
        got = list(_points_between(center, lo, hi))
    assert sorted(got) == sorted(
        (center[0] + x, center[1] + y, center[2] + z) for x, y, z in row_points(lo, hi))


@pytest.mark.parametrize("lo, hi", [(0, 2**18), (2**18 - 2, 2**18 + 1)])
def test_band_walk_across_row_batches(lo, hi):
    # the whole ball, and a thin band far out, span several ROW_BUDGET batches
    batches = [len(dz) for dz, *_ in _slices(lo, hi)]
    assert len(batches) > 3 and max(batches) <= ROW_BUDGET
    assert sum(batches) == sum(math.isqrt(hi - z * z) + 1 for z in range(math.isqrt(hi) + 1))
    assert band_sums(lo, hi) == row_sums(lo, hi)
    if lo:
        got = list(_points_between((1, -2, 3), lo, hi))
        assert sorted(got) == sorted((1 + x, y - 2, z + 3) for x, y, z in row_points(lo, hi))
