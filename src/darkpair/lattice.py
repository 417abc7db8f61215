"""Discrete momentum shells around a Fermi surface.

Grid points are integer triples ``n = (nx, ny, nz)``; the physical
wavevector is ``k = (2*pi/L) * n``.  A lattice splits its points into an
inner filled region (``|k - K| < kf - delta``), a thin interacting shell
(``kf - delta <= |k - K| <= kf + delta``), and everything else, where
``K`` is an optional drift wavevector the whole construction is centred
on.  Shell points come in partner pairs ``n <-> 2K - n`` and exactly one
point of each pair is in the plus hemisphere (``shell_plus``).

All membership decisions compare the integer ``|n - K|^2`` against exact
rational bounds, so boundary points are never misclassified by floating
point.  The resulting mode ordering is total and deterministic; every
fermionic sign downstream depends on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .fock import MAX_MODES

TAU = 2.0 * math.pi

SPIN_UP = 0
SPIN_DOWN = 1

IVec = tuple[int, int, int]


class LatticeError(ValueError):
    """Invalid lattice configuration or classification failure."""


class EmptyShellError(LatticeError):
    """No grid point falls inside the interacting shell."""


class UnpairedModeError(LatticeError):
    """A shell point's partner 2K - n is missing from the shell."""


def vadd(a: IVec, b: IVec) -> IVec:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def vsub(a: IVec, b: IVec) -> IVec:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def norm2(n: IVec) -> int:
    return n[0] * n[0] + n[1] * n[1] + n[2] * n[2]


def zyx_key(n: IVec) -> tuple[int, int, int]:
    """Sort key used everywhere a set of grid points needs a total order."""
    return (n[2], n[1], n[0])


def hemisphere_positive(u: IVec) -> bool:
    """Tie-broken upper-hemisphere test: u_z > 0, then u_y, then u_x.

    Applied to the offset ``u = n - K`` so that exactly one point of each
    partner pair tests positive (u = 0 never occurs in a valid shell).
    """
    return u[2] > 0 or (u[2] == 0 and (u[1] > 0 or (u[1] == 0 and u[0] > 0)))


@dataclass(frozen=True)
class LatticeConfig:
    """Physical parameters of a momentum lattice.

    ``kf`` and ``delta`` are in units of 1/length; ``L`` is the box edge.
    ``c`` scales the quadratic dispersion ``eps(k) = c*|k|^2`` and ``mu``
    (if set) shifts it to ``eps - mu``.  ``boost`` recentres the whole
    shell construction on the grid point ``K``.  ``volume`` is the volume
    factor dividing the coupling in the interaction; it defaults to L^3
    but may be pinned to an exact value (tests use 1) so that interaction
    coefficients stay rational.  ``shell_points`` optionally restricts the
    shell to an explicit partner-closed subset of the radial band; the
    shell population is an experimental knob, and small fixed shells are
    how few-pair model spaces are made.
    """

    kf: float
    delta: float
    L: float = TAU
    c: float = 1.0
    mu: float | None = None
    boost: IVec = (0, 0, 0)
    frozen_core: bool = False
    shell_points: tuple[IVec, ...] | None = None
    volume: float | Fraction | None = None

    def __post_init__(self):
        object.__setattr__(self, "boost", tuple(self.boost))
        if self.shell_points is not None:
            object.__setattr__(
                self, "shell_points", tuple(tuple(p) for p in self.shell_points)
            )

    def validate(self) -> None:
        for name in ("kf", "delta", "L", "c", "mu"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise LatticeError(f"{name} must be finite, got {value}")
        if self.volume is not None and not self.volume > 0:
            raise LatticeError("volume must be positive")
        if not self.delta > 0:
            raise LatticeError("delta must be positive")
        if not self.kf > self.delta:
            raise LatticeError("kf must exceed delta (shell must not reach the origin)")
        if not self.L > 0:
            raise LatticeError("box size L must be positive")

    # Exact rational views of the float fields.  Fraction(float) is the
    # exact binary value, so comparisons below are reproducible.  The two
    # that every energy and every W read are cached: the config is frozen.
    @cached_property
    def kunit2(self) -> Fraction:
        """(2*pi/L)^2 as an exact rational (1 for the default box)."""
        return (Fraction(TAU) / Fraction(self.L)) ** 2

    @cached_property
    def volume_fraction(self) -> Fraction:
        if self.volume is not None:
            return Fraction(self.volume)
        return Fraction(self.L) ** 3

    def radius2_grid(self, radius: float | Fraction) -> Fraction:
        """(radius / kunit)^2: squared grid-norm bound for a physical radius."""
        return Fraction(radius) ** 2 / self.kunit2

    @property
    def shell_bounds2(self) -> tuple[Fraction, Fraction]:
        lo = Fraction(self.kf) - Fraction(self.delta)
        hi = Fraction(self.kf) + Fraction(self.delta)
        return self.radius2_grid(lo), self.radius2_grid(hi)

    def energy_sum(self, count: int, moment: int) -> Fraction:
        """Summed energy c*|k|^2 (- mu if set) of ``count`` grid points
        whose |n|^2 sum to ``moment``."""
        e = Fraction(self.c) * self.kunit2 * moment
        if self.mu is not None:
            e -= count * Fraction(self.mu)
        return e

    def epsilon(self, n: IVec) -> Fraction:
        """Single-particle energy c*|k|^2 (- mu if set) at grid point n."""
        return self.energy_sum(1, norm2(n))


class Mode(NamedTuple):
    spin: int
    n: IVec


@dataclass(frozen=True)
class ModeTable:
    """Ordered single-particle modes of a lattice plus the frozen-core record.

    Mode order is (inner < shell_plus < shell_minus points, then
    (n_z, n_y, n_x) lexicographic, then spin up < down).  When the core is
    frozen, ``inner_points`` is empty: the inner ball is never enumerated,
    and ``core_particles`` / ``core_energy`` / ``core_momentum`` hold its
    closed-form sums.
    """

    config: LatticeConfig
    modes: tuple[Mode, ...]
    inner_points: tuple[IVec, ...]
    shell_plus: tuple[IVec, ...]
    shell_minus: tuple[IVec, ...]
    core_particles: int
    core_energy: Fraction
    core_momentum: IVec
    _index: dict = field(default_factory=dict, repr=False, compare=False)
    _shell: set = field(default_factory=set, repr=False, compare=False)
    _pairs: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self._index.update({m: i for i, m in enumerate(self.modes)})
        self._shell.update(self.shell_plus, self.shell_minus)

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def shell_all(self) -> tuple[IVec, ...]:
        return self.shell_plus + self.shell_minus

    def mode_index(self, spin: int, n: IVec) -> int:
        return self._index[Mode(spin, tuple(n))]

    def pair_modes(self, k: IVec) -> tuple[int, int]:
        """Modes (up at k, down at the partner 2K - k) of the pair at k,
        looked up once per point."""
        k = tuple(k)
        if k not in self._pairs:
            self._pairs[k] = (self.mode_index(SPIN_UP, k),
                              self.mode_index(SPIN_DOWN, self.partner(k)))
        return self._pairs[k]

    def partner(self, n: IVec) -> IVec:
        """Pairing partner 2K - n (plain negation for an unboosted lattice)."""
        k = self.config.boost
        return (2 * k[0] - n[0], 2 * k[1] - n[1], 2 * k[2] - n[2])

    def is_shell(self, n: IVec) -> bool:
        return tuple(n) in self._shell

    def epsilon(self, n: IVec) -> Fraction:
        return self.config.epsilon(n)

    def total_particles_nc(self) -> int:
        """Particle count of the fully paired construction, core included."""
        return (self.core_particles + 2 * len(self.inner_points)
                + 2 * len(self.shell_plus))

    def descriptor(self) -> str:
        inner = len(self.inner_points) + self.core_particles // 2
        return (
            f"inner={inner} plus={len(self.shell_plus)} "
            f"modes={self.n_modes} frozen={self.config.frozen_core} "
            f"K={self.config.boost}"
        )


# The largest ``hi`` that ``_slices`` takes.  The walk visits every row of
# the ball, about (pi / 4) hi rows, so its cost grows with ``hi``: on a
# 2-vCPU host ``band_sums(0, 2**24)`` takes about 0.5 s, where 2**30 took
# 30 s.
BAND_MAX = 1 << 24
# The most rows in one batch of ``_slices``; a z-slice has at most
# isqrt(BAND_MAX) + 1 = 4097.  It bounds the int64 sums of ``band_sums``:
# a row's weighted second moment is below 12 hi**1.5 < 2**40 at BAND_MAX,
# so a batch's sum stays below 2**56.
ROW_BUDGET = 1 << 16


def _isqrt(x: np.ndarray) -> np.ndarray:
    """Exact floor square roots of a non-negative int64 array: the float
    root, corrected by one where it is off."""
    t = np.sqrt(x).astype(np.int64)
    t -= t * t > x
    t += (t + 1) * (t + 1) <= x
    return t


def _slices(lo: int, hi: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray,
                                               np.ndarray, np.ndarray]]:
    """The offsets d with lo <= |d|^2 <= hi as batches of rows: int64
    arrays ``(dz, dy, r2, low, top)``, one entry per (dz, dy) row with
    dz, dy >= 0, z-slice after z-slice and dy ascending within a slice,
    each batch whole z-slices of at most ``ROW_BUDGET`` rows in all (one
    slice when a slice alone has more).  Row (dz, dy), at
    r2 = dy^2 + dz^2, holds the dx with low <= |dx| <= top, and none when
    low > top.  The other offsets are
    these mirrored over the signs of dz, dy and dx.  An empty range yields
    nothing; a ``hi`` above ``BAND_MAX`` raises ``LatticeError``.
    """
    if hi > BAND_MAX:
        raise LatticeError(
            f"a ball of |d|^2 up to {hi} exceeds {BAND_MAX}, the largest "
            "walked in about a second; shrink kf"
        )
    lo = max(lo, 0)
    if hi < lo:
        return
    z = np.arange(math.isqrt(hi) + 1, dtype=np.int64)
    width = _isqrt(hi - z * z) + 1  # the rows dy = 0 .. isqrt(hi - dz^2) of each slice
    ends = np.cumsum(width)
    first = 0
    while first < len(z):
        last = max(int(np.searchsorted(ends, ends[first] - width[first] + ROW_BUDGET,
                                       side="right")), first + 1)
        span = width[first:last]
        dz = np.repeat(z[first:last], span)
        dy = np.arange(len(dz), dtype=np.int64) - np.repeat(np.cumsum(span) - span, span)
        r2 = dy * dy + dz * dz
        # low: the least x >= 0 with x^2 >= lo - r2
        low = np.where(lo > r2, _isqrt(np.maximum(lo - r2 - 1, 0)) + 1, 0)
        yield dz, dy, r2, low, _isqrt(hi - r2)
        first = last


def _points_between(center: IVec, lo: int, hi: int) -> Iterator[IVec]:
    """Grid points n with lo <= |n - center|^2 <= hi: the non-empty rows of
    ``_slices``, mirrored over the signs of dz, dy and dx."""
    cx, cy, cz = center
    for dz, dy, _, low, top in _slices(lo, hi):
        full = low <= top
        for z, y, a, b in zip(dz[full].tolist(), dy[full].tolist(),
                              low[full].tolist(), top[full].tolist()):
            xs = (*range(-b, 1 - a), *range(max(a, 1), b + 1))
            for zz in {z, -z}:  # a set: the sign of 0 is taken once
                for yy in {y, -y}:
                    for x in xs:
                        yield (cx + x, cy + yy, cz + zz)


def band_sums(lo: int, hi: int) -> tuple[int, int]:
    """Count and sum of |d|^2 over the integer offsets d with
    lo <= |d|^2 <= hi; ``(0, 0)`` when there are none.

    Each batch of ``_slices`` rows is summed as int64 arrays, each row in
    closed form, sum_{x=1..t} x^2 = t(t+1)(2t+1)/6, and weighted by the
    signs it stands for: twice at dy > 0, twice again at dz > 0.
    """

    def squares(t):
        return t * (t + 1) * (2 * t + 1) // 6  # 0 at t = -1

    count = moment = 0
    for dz, dy, r2, low, top in _slices(lo, hi):
        n = 2 * (top - low + 1) - (low == 0)  # low <= top + 1: never negative
        m2 = n * r2 + 2 * (squares(top) - squares(low - 1))
        twice = (1 + (dy > 0)) * (1 + (dz > 0))
        count += int((twice * n).sum())
        moment += int((twice * m2).sum())
    return count, moment


def _capped(points: Iterable[IVec], limit: int) -> list[IVec]:
    """The points as a list; a LatticeError as soon as there are more than
    ``limit``, before the rest are enumerated."""
    out = []
    for n in points:
        out.append(n)
        if len(out) > limit:
            raise LatticeError(f"more than {MAX_MODES} modes, the width of the "
                               "occupation word; shrink the shell or freeze the core")
    return out


def build_mode_table(config: LatticeConfig) -> ModeTable:
    """Classify the grid and fix the global mode order.

    Pure: identical configs produce identical tables.  Raises
    EmptyShellError / UnpairedModeError / LatticeError on bad inputs.
    """
    config.validate()
    lo2, hi2 = config.shell_bounds2
    K = config.boost
    two_k = vadd(K, K)  # partner of n is 2K - n

    # |n - K|^2 is an integer: the band is ceil(lo2)..floor(hi2), the
    # inner region everything below.
    band_lo, band_hi = math.ceil(lo2), math.floor(hi2)
    limit = MAX_MODES // 2  # grid points; each holds two spin modes
    if config.shell_points is not None:
        shell: list[IVec] = []
        seen = set()
        for n in config.shell_points:
            if n in seen:
                raise LatticeError(f"duplicate shell point {n}")
            seen.add(n)
            u2 = norm2(vsub(n, K))
            if not (lo2 <= u2 <= hi2):
                raise LatticeError(
                    f"explicit shell point {n} lies outside the shell band"
                )
            shell.append(tuple(n))
        shell = _capped(shell, limit)
    else:
        shell = _capped(_points_between(K, band_lo, band_hi), limit)
    if not shell:
        raise EmptyShellError("no grid point falls inside the shell band")
    shell_set = set(shell)
    for n in shell_set:
        if vsub(two_k, n) not in shell_set:
            raise UnpairedModeError(f"shell point {n} is unpaired")
    if config.frozen_core:  # the inner ball, counted and summed in closed form
        count, moment = band_sums(0, band_lo - 1)
        inner: list[IVec] = []
    else:
        count = moment = 0
        inner = _capped(_points_between(K, 0, band_lo - 1), limit - len(shell))

    plus = sorted((n for n in shell if hemisphere_positive(vsub(n, K))), key=zyx_key)
    plus_set = set(plus)
    minus = sorted((n for n in shell if n not in plus_set), key=zyx_key)
    inner.sort(key=zyx_key)

    modes: list[Mode] = []
    for group in (inner, plus, minus):
        for n in group:
            modes.append(Mode(SPIN_UP, n))
            modes.append(Mode(SPIN_DOWN, n))
    return ModeTable(
        config=config,
        modes=tuple(modes),
        inner_points=tuple(inner),
        shell_plus=tuple(plus),
        shell_minus=tuple(minus),
        # two particles a point; the ball's offsets d from K sum to 0, so
        # sum |n|^2 = sum |d|^2 + count*|K|^2 and sum n = count*K
        core_particles=2 * count,
        core_energy=2 * config.energy_sum(count, moment + count * norm2(K)),
        core_momentum=(2 * count * K[0], 2 * count * K[1], 2 * count * K[2]),
    )


def boosted_twin(table: ModeTable, K: IVec) -> ModeTable:
    """The same relative lattice recentred on drift vector K."""
    cfg = table.config
    shift = vsub(tuple(K), cfg.boost)
    pts = cfg.shell_points
    if pts is not None:
        pts = tuple(vadd(p, shift) for p in pts)
    return build_mode_table(replace(cfg, boost=tuple(K), shell_points=pts))
