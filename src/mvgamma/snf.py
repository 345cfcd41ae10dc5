"""Smith normal form over the integers, exact, dependency-free.

`smith_diagonal` takes lists of equal-length integer rows.  Python ints are
unbounded, so there is no overflow regime to guard.  The reduction is one
loop: move the smallest nonzero entry of the remaining block to (t, t) as the
pivot, clear column t with row operations, then reduce row t modulo the pivot
(with column t clear, those column operations touch row t only).  Any
remainder left in column t or row t is smaller than the pivot and becomes the
next pivot; once both are clear the pivot is a diagonal entry.  Then gcd/lcm
exchanges, the one divisibility step, put the diagonal in divisibility order.

`invariant_factors` takes sparse rows (column -> entry) and first pivots on
unit entries, as Havas and Sterling (1979) do for relation matrices of
finitely presented abelian groups.  A pivot +-1 at (i, j) keeps the
invariant factors: row operations clear column j, which is then zero outside
row i, so column operations clear row i touching no other row; (+-1), one
unit factor, is left beside the other rows without column j.  Clearing is
lazy, so a redundant row is reduced to zero once: a visited row adds the
rows of its pivot columns, and a new pivot row clears its column from the
earlier ones.  A pass visits rows shortest first, pivoting on those within a
length limit that grows when a pass adds no pivot; after that last pass each
pivot column is zero outside its row.  The rest goes to `smith_diagonal`.
"""

from __future__ import annotations

from math import gcd

__all__ = ["smith_diagonal", "invariant_factors", "matrix_rank"]


def _pivot(a: list[list[int]], t: int) -> tuple[int, int] | None:
    best = None
    best_val = None
    for i in range(t, len(a)):
        row = a[i]
        for j in range(t, len(row)):
            v = abs(row[j])
            if v and (best_val is None or v < best_val):
                best, best_val = (i, j), v
                if v == 1:
                    return best
    return best


def smith_diagonal(rows: list[list[int]], ncols: int | None = None) -> list[int]:
    """Diagonal of the Smith form, nonnegative, divisibility-ordered.

    The result has length min(nrows, ncols) and is padded with zeros past the
    rank.  An empty row list is allowed when ncols is given (rank 0).
    """
    if ncols is None:
        if not rows:
            raise ValueError("ncols is required for an empty matrix")
        ncols = len(rows[0])
    a = [list(map(int, r)) for r in rows]
    for r in a:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
    m, n = len(a), ncols
    bound = min(m, n)
    diag: list[int] = []
    t = 0
    while t < bound:
        pv = _pivot(a, t)
        if pv is None:
            break
        pi, pj = pv
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
        pivot_row = a[t]
        p = pivot_row[t]
        for i in range(t + 1, m):
            q = a[i][t] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], pivot_row)]
        if any(a[i][t] for i in range(t + 1, m)):
            continue  # a remainder below the pivot: the next pivot
        for j in range(t + 1, n):
            pivot_row[j] %= p
        if any(pivot_row[t + 1 :]):
            continue  # likewise in row t
        diag.append(abs(p))
        t += 1
    diag.extend(0 for _ in range(bound - len(diag)))
    # divisibility order (zeros count as divisible by everything, so they sink)
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            x, y = diag[i], diag[i + 1]
            divides = (y % x == 0) if x else (y == 0)
            if not divides:
                g = gcd(x, y)
                diag[i] = g
                diag[i + 1] = 0 if (x == 0 or y == 0) else x * y // g
                changed = True
    return diag


def matrix_rank(rows: list[list[int]], ncols: int | None = None) -> int:
    return sum(1 for d in smith_diagonal(rows, ncols) if d)


def _add(row: dict[int, int], q: int, other: dict[int, int]) -> None:  # row += q * other
    for j, v in other.items():
        if w := row.get(j, 0) + q * v:
            row[j] = w
        else:
            del row[j]


def invariant_factors(rows: list[dict[int, int]], ncols: int) -> list[int]:
    """Invariant factors of Z^ncols modulo the span of the (sparse) rows.

    Torsion factors greater than 1 in divisibility order, then one 0 per free
    rank.  Unit factors are dropped, so equality of two such lists is exactly
    isomorphism of the described groups.
    """
    basis: dict[int, dict[int, int]] = {}  # pivot column -> its row, +-1 there
    rest = [r for r in ({j: v for j, v in row.items() if v} for row in rows) if r]
    limit, pivots = 1, -1
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
    cols = sorted({j for row in rest for j in row})
    diag = smith_diagonal([[row.get(j, 0) for j in cols] for row in rest], len(cols))
    rank = len(basis) + sum(1 for d in diag if d)
    return [d for d in diag if d > 1] + [0] * (ncols - rank)
