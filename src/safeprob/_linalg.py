"""Exact Gaussian elimination over the rationals, run on integers.

Small dense systems only. Entries may be ``int`` or ``fractions.Fraction``.
Each row is scaled to integers once, by the lcm of its denominators, and
eliminated without division: an updated row ``d*row_i - f*row_r`` is
divided by the gcd of its entries, which keeps the integers small. A
solution becomes rational only at the end, as ``Fraction(rhs, pivot)``.
Nothing rounds and nothing is compared with a tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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


def _rref(rows: list[list[int]], ncols: int) -> list[int]:
    """Reduce the integer ``rows`` in place over their first ``ncols``
    columns until each pivot column is zero outside its pivot row;
    returns the pivot columns."""
    nrows = len(rows)
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        d = prow[c]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                row = [d * vi - f * vr for vi, vr in zip(rows[i], prow)]
                g = gcd(*row)
                rows[i] = [v // g for v in row] if g > 1 else row
        pivot_cols.append(c)
        r += 1
    return pivot_cols


def solve_linear(
    a: list[list[Fraction]], b: list[Fraction]
) -> tuple[str, tuple[Fraction, ...] | None]:
    """Solve ``a @ x = b`` exactly.

    Returns ``(status, x)`` where status is one of UNIQUE, INCONSISTENT or
    UNDERDETERMINED; ``x`` is the solution tuple only when unique. The
    system may be rectangular.
    """
    ncols = len(a[0]) if a else 0
    aug = [integer_row([*row, b[i]]) for i, row in enumerate(a)]
    pivot_cols = _rref(aug, ncols)
    if any(row[ncols] for row in aug[len(pivot_cols):]):
        return INCONSISTENT, None
    if len(pivot_cols) < ncols:
        return UNDERDETERMINED, None
    # every column is a pivot, so row i holds x_i = rhs / pivot
    return UNIQUE, tuple(Fraction(row[ncols], row[i]) for i, row in enumerate(aug[:ncols]))


def matrix_rank(a: list[list[Fraction]]) -> int:
    """Rank of a rational matrix."""
    return len(_rref([integer_row(row) for row in a], len(a[0]) if a else 0))
