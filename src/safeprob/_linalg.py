"""Exact Gauss-Jordan elimination on integers, fraction-free.

Small dense systems only. ``solve_linear`` and ``matrix_rank`` both take
integer rows; ``integer_row`` scales a ``Fraction`` row to one.
Following Bareiss (1968), with pivot ``d`` in row ``r`` and ``prev`` the
pivot used before it (1 at first), every other row, also one with a 0 in
the pivot column, becomes ``(d*row_i - row_i[c]*row_r) // prev``: an
exact division, since every entry is then a minor of the input. Each
pivot row ends with the last pivot on its diagonal, so a unique solution
is integer numerators over that one denominator. Nothing rounds and
nothing is compared with a tolerance.
"""

from __future__ import annotations

from math import lcm
from operator import attrgetter

UNIQUE = "unique"
INCONSISTENT = "inconsistent"
UNDERDETERMINED = "underdetermined"

_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")


def integer_row(row) -> list[int]:
    """``row`` scaled to integers by the lcm of its denominators."""
    scale = lcm(*map(_denominator, row))
    if scale == 1:
        return list(map(_numerator, row))
    return [v.numerator * (scale // v.denominator) for v in row]


def _rref(rows: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Reduce the integer ``rows`` in place over their first ``ncols``
    columns until each pivot column is zero outside its pivot row;
    returns the pivot columns and the last pivot (1 when there is none).
    While ``prev`` is 1 the exact division by it is left out."""
    nrows = len(rows)
    pivot_cols: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for p in range(r, nrows):
            if rows[p][c]:
                break
        else:
            continue
        prow = rows[p]
        rows[p] = rows[r]
        rows[r] = prow
        d = prow[c]
        for i in range(nrows):
            if i == r:
                continue
            row = rows[i]
            f = row[c]
            if f:
                if prev == 1:
                    rows[i] = [d * vi - f * vr for vi, vr in zip(row, prow)]
                else:
                    rows[i] = [(d * vi - f * vr) // prev for vi, vr in zip(row, prow)]
            elif d != prev:
                rows[i] = [d * vi for vi in row] if prev == 1 else [d * vi // prev for vi in row]
        pivot_cols.append(c)
        prev = d
        r += 1
    return pivot_cols, prev


def solve_linear(
    a: list[list[int]], b: list[int]
) -> tuple[str, list[int] | None, int | None]:
    """Solve ``a @ x = b`` exactly, for integer ``a`` and ``b``.

    Returns ``(status, nums, den)`` where status is one of UNIQUE,
    INCONSISTENT or UNDERDETERMINED. Only when it is unique, ``nums`` and
    ``den > 0`` are integers with ``x_i = nums[i] / den``; otherwise both
    are None. The system may be rectangular.
    """
    ncols = len(a[0]) if a else 0
    aug = [[*row, v] for row, v in zip(a, b)]
    pivot_cols, den = _rref(aug, ncols)
    if any(row[ncols] for row in aug[len(pivot_cols):]):
        return INCONSISTENT, None, None
    if len(pivot_cols) < ncols:
        return UNDERDETERMINED, None, None
    # every column is a pivot, so row i holds den * x_i in its last entry
    nums = [row[ncols] for row in aug[:ncols]]
    if den < 0:
        return UNIQUE, [-v for v in nums], -den
    return UNIQUE, nums, den


def matrix_rank(a: list[list[int]]) -> int:
    """Rank of an integer matrix."""
    return len(_rref(list(a), len(a[0]) if a else 0)[0])
