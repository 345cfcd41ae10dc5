"""Smith normal form over the integers: one exact elimination on sparse rows.

Rows map column -> entry; `smith_diagonal` turns dense rows into such maps.
Both phases rest on one fact: once a pivot's column is zero in every other
row, a column operation (adding a multiple of the pivot column to another
column) changes only the rows nonzero in the pivot column, so only the pivot
row; the pivot row can then be reduced without touching the others.

The first phase pivots on unit entries, as Havas and Sterling (1979) do for
relation matrices of finitely presented abelian groups; each pivot is one
unit factor.  Clearing is lazy: a visited row adds the rows of its pivot
columns, and a new pivot row clears its column from the earlier ones.
Passes visit rows shortest first, under a length limit that grows when a
pass adds no pivot.  The second phase reduces the rows left in place: the
least entry is the pivot, row operations clear its column by floor division,
then column operations reduce the pivot row modulo the pivot.  A remainder
becomes the next pivot; a pivot alone in its row and column is a diagonal
entry.  gcd/lcm exchanges over all pairs, a selection sort of each prime's
exponents, order the diagonal by divisibility.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from operator import index

__all__ = ["smith_diagonal", "invariant_factors", "matrix_rank"]


def _add(row: dict[int, int], q: int, other: dict[int, int]) -> None:  # row += q * other
    for j, v in other.items():
        if w := row.get(j, 0) + q * v:
            row[j] = w
        else:
            del row[j]


def _unit_pivots(rows: list[dict[int, int]]) -> tuple[int, list[dict[int, int]]]:
    """First phase: the number of unit pivots and the nonzero rows left without one."""
    basis: dict[int, dict[int, int]] = {}  # pivot column -> its row, +-1 there
    limit, pivots, rest = 1, -1, rows
    while len(basis) > pivots or limit < max(map(len, rest), default=0):
        limit += len(basis) == pivots
        pending, rest, pivots = sorted(rest, key=len), [], len(basis)
        for row in pending:
            for j in [j for j in row if j in basis]:
                _add(row, -row[j] * basis[j][j], basis[j])  # a unit is its own inverse
            unit = [j for j, v in row.items() if v in (1, -1)] if len(row) <= limit else ()
            if unit:
                pj = max(unit)  # the last: callers order columns to make it the best
                for other in basis.values():
                    if pj in other:
                        _add(other, -other[pj] * row[pj], row)
                basis[pj] = row
            elif row:
                rest.append(row)
    return len(basis), rest


def _eliminate(rows: list[dict[int, int]]) -> list[int]:
    """Second phase: the nonzero diagonal of the rows, in divisibility order."""
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


def _diagonal(rows: list[dict[int, int]], ncols: int) -> list[int]:
    """The nonzero Smith diagonal, units included, in divisibility order."""
    if bad := set().union(*rows).difference(range(ncols)):
        raise ValueError(f"column {bad.pop()!r} is outside range({ncols})")
    work = [{j: v for j, v in zip(row, map(index, row.values())) if v} for row in rows]
    units, rest = _unit_pivots(work)
    return [1] * units + _eliminate(rest)


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
    diag = _diagonal([dict(enumerate(r)) for r in rows], ncols)
    return diag + [0] * (min(len(rows), ncols) - len(diag))


def matrix_rank(rows: list[list[int]], ncols: int | None = None) -> int:
    return sum(1 for d in smith_diagonal(rows, ncols) if d)


def invariant_factors(rows: list[dict[int, int]], ncols: int) -> list[int]:
    """Invariant factors of Z^ncols modulo the span of the (sparse) rows.

    Torsion factors greater than 1 in divisibility order, then one 0 per free
    rank.  Unit factors are dropped, so equality of two such lists is exactly
    isomorphism of the described groups.  Entries must be integers and
    columns must lie in range(ncols).
    """
    diag = _diagonal(rows, ncols)
    return [d for d in diag if d > 1] + [0] * (ncols - len(diag))
