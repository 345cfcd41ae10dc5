"""Smith normal form over the integers: one exact elimination on sparse rows.

Rows map column -> entry; `smith_diagonal` turns dense rows into such maps.
The least entry is the pivot, row operations clear its column by floor
division, then column operations reduce the pivot row modulo the pivot.
Once a pivot's column is zero in every other row, a column operation (adding
a multiple of the pivot column to another column) changes only the rows
nonzero in the pivot column, so only the pivot row; the pivot row can then
be reduced without touching the others.  A remainder becomes the next pivot;
a pivot alone in its row and column is a diagonal entry.  gcd/lcm exchanges
over all pairs, a selection sort of each prime's exponents, order the
diagonal by divisibility.  The package measures the rank of the star side
of `freequotient` here.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from operator import index

__all__ = ["smith_diagonal", "matrix_rank"]


def _add(row: dict[int, int], q: int, other: dict[int, int]) -> None:  # row += q * other
    for j, v in other.items():
        if w := row.get(j, 0) + q * v:
            row[j] = w
        else:
            del row[j]


def _eliminate(rows: list[dict[int, int]]) -> list[int]:
    """The nonzero diagonal of the nonzero rows, in divisibility order."""
    diag: list[int] = []
    while rows:
        _, i, j = min((abs(v), i, j) for i, row in enumerate(rows) for j, v in row.items())
        pivot_row = rows.pop(i)
        p = pivot_row[j]
        for row in rows:
            if j in row:
                _add(row, -(row[j] // p), pivot_row)
        rows = [row for row in rows if row]
        if not any(j in row for row in rows):  # column ops now touch the pivot row only
            pivot_row = {k: r for k, v in pivot_row.items() if (r := v % p)}
            if not pivot_row:
                diag.append(abs(p))
                continue
            pivot_row[j] = p
        rows.append(pivot_row)
    for i, k in combinations(range(len(diag)), 2):
        g = gcd(diag[i], diag[k])
        diag[i], diag[k] = g, diag[i] * diag[k] // g
    return diag


def smith_diagonal(rows: list[list[int]], ncols: int | None = None) -> list[int]:
    """Diagonal of the Smith form, nonnegative, divisibility-ordered.

    The result has length min(nrows, ncols) and is padded with zeros past the
    rank.  An empty row list is allowed when ncols is given (rank 0).
    """
    if ncols is None:
        if not rows:
            raise ValueError("ncols is required for an empty matrix")
        ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    entries = ({j: v for j, v in enumerate(map(index, row)) if v} for row in rows)
    diag = _eliminate([row for row in entries if row])
    return diag + [0] * (min(len(rows), ncols) - len(diag))


def matrix_rank(rows: list[list[int]], ncols: int | None = None) -> int:
    return sum(1 for d in smith_diagonal(rows, ncols) if d)
