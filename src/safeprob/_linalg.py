"""Exact Gaussian elimination over the rationals.

Small dense systems only; every entry is a fractions.Fraction and no
rounding ever occurs.
"""

from __future__ import annotations

from fractions import Fraction

UNIQUE = "unique"
INCONSISTENT = "inconsistent"
UNDERDETERMINED = "underdetermined"


def _rref(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Reduce ``rows`` in place to reduced row echelon form over their
    first ``ncols`` columns; returns the pivot columns."""
    nrows = len(rows)
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [vi - factor * vr for vi, vr in zip(rows[i], rows[r])]
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
    aug = [[Fraction(v) for v in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    pivot_cols = _rref(aug, ncols)
    if any(row[ncols] != 0 for row in aug[len(pivot_cols):]):
        return INCONSISTENT, None
    if len(pivot_cols) < ncols:
        return UNDERDETERMINED, None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivot_cols):
        x[c] = aug[i][ncols]
    return UNIQUE, tuple(x)


def matrix_rank(a: list[list[Fraction]]) -> int:
    """Rank of a rational matrix."""
    return len(_rref([list(map(Fraction, row)) for row in a], len(a[0]) if a else 0))
