"""Dense Smith reduction, kept as an independent oracle for `mvgamma.snf`,
and the relation matrices `freequotient` once reduced, as the oracle for
its closed form.

`smith_diagonal` reduces a list of equal-length integer rows in one loop:
move the smallest nonzero entry of the remaining block to (t, t) by row and
column swaps, clear column t with row operations, then reduce row t modulo
the pivot.  Any remainder becomes the next pivot; once both are clear the
pivot is a diagonal entry.  gcd/lcm exchanges then put the diagonal, zeros
included, in divisibility order.  `_pivot` finds the smallest entry.
`dense_factors` reads invariant factors off that diagonal,
`relation_matrix` builds the pairwise-relation rows of an algebra, and
`relation_diagonal` reduces them once.
"""

from __future__ import annotations

import functools
from math import gcd

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


def factors_of(diag: list[int], ncols: int) -> list[int]:
    """Invariant factors of Z^ncols modulo a row span with Smith diagonal
    diag: torsion factors greater than 1 in divisibility order, then one 0
    per free rank."""
    return [d for d in diag if d > 1] + [0] * (ncols - sum(1 for d in diag if d))


def dense_factors(rows: list[list[int]], ncols: int) -> list[int]:
    """The invariant factors read off the dense reduction."""
    return factors_of(smith_diagonal(rows, ncols), ncols)


def relation_matrix(algebra, identify_zero: bool) -> list[list[int]]:
    """Rows e_a + e_b - e_{a(+)b} - e_{a(.)b} for a <= b, plus e_0 when
    `identify_zero`: the presentation `freequotient` describes."""
    n = algebra.size
    rows = []
    for a in range(n):
        for b in range(a, n):
            row = [0] * n
            row[a] += 1
            row[b] += 1
            row[algebra.oplus[a][b]] -= 1
            row[algebra.odot[a][b]] -= 1
            rows.append(row)
    if identify_zero:
        rows.append([1] + [0] * (n - 1))
    return rows


@functools.cache
def relation_diagonal(algebra, identify_zero: bool, /) -> list[int]:
    """The dense diagonal of `relation_matrix`, reduced once per algebra and
    flag for every test that compares with it (callers must not mutate it)."""
    return smith_diagonal(relation_matrix(algebra, identify_zero), algebra.size)
