"""Row-by-row band sums: the first-principles reference that
``lattice.band_sums`` is tested against.

The engine itself never runs this code; ``band_sums`` sums the same rows
one z-slice at a time as int64 arrays.  This loop walks every row of
``lattice._band_rows`` and is only right for ``0 <= lo <= hi + 1``.
"""

from darkpair.lattice import _band_rows


def row_sums(lo: int, hi: int) -> tuple[int, int]:
    """Count and sum of |d|^2 over the offsets d with lo <= |d|^2 <= hi,
    each (z, y) row summed in closed form."""

    def squares(t: int) -> int:
        return t * (t + 1) * (2 * t + 1) // 6  # 0 at t = -1

    count = moment = 0
    for dz, dy, low, top in _band_rows(lo, hi):
        n = 2 * (top - low + 1) - (low == 0)
        count += n
        moment += n * (dz * dz + dy * dy) + 2 * (squares(top) - squares(low - 1))
    return count, moment
