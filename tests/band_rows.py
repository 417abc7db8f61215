"""Row-by-row band walks: the first-principles reference that
``lattice.band_sums`` and ``lattice._points_between`` are tested against.

The engine itself never runs this code; it walks the same rows as int64
arrays, several z-slices to a batch (``lattice._slices``), and weighs each
row by the signs it stands for.  These loops visit every (z, y) row of the
ball, both signs of each, in Python ints and are only right for
``0 <= lo <= hi + 1``.
"""

import math
from typing import Iterator


def band_rows(lo: int, hi: int) -> Iterator[tuple[int, int, int, int]]:
    """Rows ``(dz, dy, low, top)`` of the offsets d with lo <= |d|^2 <= hi,
    one (z, y) row at a time: the row holds the dx with low <= |dx| <= top."""
    reach = math.isqrt(hi)
    for dz in range(-reach, reach + 1):
        ry = math.isqrt(hi - dz * dz)
        for dy in range(-ry, ry + 1):
            r2 = dz * dz + dy * dy
            # low: the least x >= 0 with x^2 >= lo - r2
            low = math.isqrt(lo - r2 - 1) + 1 if lo > r2 else 0
            yield dz, dy, low, math.isqrt(hi - r2)


def row_points(lo: int, hi: int) -> list[tuple[int, int, int]]:
    """The offsets d with lo <= |d|^2 <= hi, row by row."""
    return [(dx, dy, dz) for dz, dy, low, top in band_rows(lo, hi)
            for dx in (*range(-top, 1 - low), *range(max(low, 1), top + 1))]


def row_sums(lo: int, hi: int) -> tuple[int, int]:
    """Count and sum of |d|^2 over the offsets d with lo <= |d|^2 <= hi,
    each (z, y) row summed in closed form."""

    def squares(t: int) -> int:
        return t * (t + 1) * (2 * t + 1) // 6  # 0 at t = -1

    count = moment = 0
    for dz, dy, low, top in band_rows(lo, hi):
        n = 2 * (top - low + 1) - (low == 0)
        count += n
        moment += n * (dz * dz + dy * dy) + 2 * (squares(top) - squares(low - 1))
    return count, moment
