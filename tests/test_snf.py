"""Exact integer Smith form against three oracles: the determinantal
divisors, a reduction that absorbs every entry its pivot fails to divide
before moving on, and the dense reduction of `smith_oracle`.  The package's
one elimination, on sparse rows, answers for `smith_diagonal` and
`matrix_rank` alike, and both are checked against the dense oracle on every
input here."""

from __future__ import annotations

import itertools
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgamma.mv_core import make_chain, make_product
from mvgamma.snf import matrix_rank, smith_diagonal
from mvgamma.sweeps import generated_algebras
from smith_oracle import _pivot, relation_diagonal, relation_matrix
from smith_oracle import smith_diagonal as dense_diagonal
from test_mv_core import relabelled


def _det(mat: list[list[int]]) -> int:
    """Exact determinant by cofactor expansion (tiny matrices only)."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    sign = 1
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += sign * mat[0][j] * _det(minor)
        sign = -sign
    return total


def divisor_chain(rows: list[list[int]], ncols: int) -> list[int]:
    """Oracle: d_k = gcd of all k x k minors; factors are d_k / d_{k-1}."""
    m = len(rows)
    chain = []
    prev = 1
    for k in range(1, min(m, ncols) + 1):
        g = 0
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(ncols), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = gcd(g, abs(_det(sub)))
        if g == 0:
            break
        chain.append(g // prev)
        prev = g
    return chain


def check_against_the_dense_oracle(rows: list[list[int]], ncols: int) -> None:
    """Both views of the one elimination answer as the dense reduction."""
    diag = dense_diagonal(rows, ncols)
    assert smith_diagonal(rows, ncols) == diag
    assert matrix_rank(rows, ncols) == sum(1 for d in diag if d)


EXAMPLES = [
    [[1, 0], [0, 1]],
    [[2, 0], [0, 3]],
    [[2, 0], [0, 4]],
    [[0, 0], [0, 0]],
    [[4, 6]],
    [[1, 2, 3], [2, 4, 6], [1, 0, 1]],
    [[6, 0, 0], [0, 10, 0], [0, 0, 15]],
]


def test_identity_and_diagonal_examples():
    for rows in EXAMPLES:
        check_against_the_dense_oracle(rows, len(rows[0]))
    assert smith_diagonal([[1, 0], [0, 1]]) == [1, 1]
    assert smith_diagonal([[2, 0], [0, 3]]) == [1, 6]
    assert smith_diagonal([[2, 0], [0, 4]]) == [2, 4]
    assert smith_diagonal([[0, 0], [0, 0]]) == [0, 0]


def test_single_row_and_empty():
    assert smith_diagonal([[4, 6]]) == [2]
    assert smith_diagonal([], ncols=3) == []
    check_against_the_dense_oracle([], 3)


def test_rectangular_rank_deficient():
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    diag = smith_diagonal(rows)
    # second determinantal divisor is 2 (every 2x2 minor is even, -2 occurs)
    assert diag == [1, 2, 0]
    assert diag[:2] == divisor_chain(rows, 3)
    assert matrix_rank(rows) == 2


def test_divisibility_chain_is_enforced():
    rows = [[6, 0, 0], [0, 10, 0], [0, 0, 15]]
    diag = smith_diagonal(rows)
    for a, b in zip(diag, diag[1:]):
        assert (b % a == 0) if a else (b == 0)
    # product of factors preserves the determinant up to sign
    assert diag[0] * diag[1] * diag[2] == 6 * 10 * 15


@pytest.mark.parametrize("seed", range(8))
def test_random_matrices_match_divisor_oracle(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 4)
    n = rng.randint(1, 4)
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    diag = smith_diagonal(rows)
    nonzero = [d for d in diag if d]
    assert nonzero == divisor_chain(rows, n)
    check_against_the_dense_oracle(rows, n)
    for a, b in zip(diag, diag[1:]):
        assert (b % a == 0) if a else (b == 0)


def test_float_entries_are_rejected():
    # read through operator.index: 2.5 and 3.9 are not truncated to 2 and 3
    with pytest.raises(TypeError):
        smith_diagonal([[2.5, 0], [0, 3.9]])


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError):
        smith_diagonal([[1, 2], [3]])


ENTRIES = [0, 1, -1, 2, -2, 3, 4, -4, 6, 9, 12]


@st.composite
def small_matrices(draw):
    """Up to 4 x 4, entries with shared factors, sometimes a zero row and a
    zero column."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    rows = [draw(st.lists(st.sampled_from(ENTRIES), min_size=n, max_size=n)) for _ in range(m)]
    zero_row = draw(st.none() | st.integers(0, m - 1))
    zero_col = draw(st.none() | st.integers(0, n - 1))
    if zero_row is not None:
        rows[zero_row] = [0] * n
    if zero_col is not None:
        for row in rows:
            row[zero_col] = 0
    return rows


@settings(max_examples=300, deadline=None)
@given(small_matrices())
def test_smith_diagonal_matches_divisor_oracle(rows):
    n = len(rows[0])
    diag = smith_diagonal(rows)
    assert len(diag) == min(len(rows), n)
    nonzero = [d for d in diag if d]
    assert nonzero == divisor_chain(rows, n)
    check_against_the_dense_oracle(rows, n)
    assert diag == nonzero + [0] * (len(diag) - len(nonzero))
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0


def smith_diagonal_with_absorb(rows: list[list[int]], ncols: int) -> list[int]:
    """Reference reduction: clear the pivot's row and column, swapping in any
    remainder as the new pivot, then absorb a row holding an entry the pivot
    fails to divide and start over; a gcd/lcm pass repairs the diagonal at
    the end."""
    a = [list(r) for r in rows]
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
        while True:
            p = a[t][t]
            dirty = False
            for i in range(t, m):
                if i == t or a[i][t] == 0:
                    continue
                q = a[i][t] // p
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                if a[i][t]:
                    a[t], a[i] = a[i], a[t]
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(t, n):
                if j == t or a[t][j] == 0:
                    continue
                q = a[t][j] // p
                for row in a:
                    row[j] -= q * row[t]
                if a[t][j]:
                    for row in a:
                        row[t], row[j] = row[j], row[t]
                    dirty = True
                    break
            if dirty:
                continue
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
        diag.append(abs(a[t][t]))
        t += 1
    diag.extend(0 for _ in range(bound - len(diag)))
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


@pytest.mark.parametrize("identify_zero", [True, False])
def test_relation_matrices_match_the_absorbing_reduction(identify_zero):
    for algebra in generated_algebras(16):
        rows = relation_matrix(algebra, identify_zero)
        assert smith_diagonal(rows, algebra.size) == smith_diagonal_with_absorb(
            rows, algebra.size
        )
        check_against_the_dense_oracle(rows, algebra.size)


def test_wide_relation_matrix_matches_the_absorbing_reduction():
    algebra = make_product(make_chain(4), make_chain(7))  # 40 columns
    rows = relation_matrix(algebra, identify_zero=True)
    assert smith_diagonal(rows, 40) == smith_diagonal_with_absorb(rows, 40)
    check_against_the_dense_oracle(rows, 40)


@pytest.mark.parametrize("identify_zero", [True, False])
def test_sparse_route_matches_the_dense_route_on_relation_matrices(identify_zero):
    for algebra in generated_algebras(64):
        rows = relation_matrix(algebra, identify_zero)
        diag = relation_diagonal(algebra, identify_zero)
        assert smith_diagonal(rows, algebra.size) == diag
        assert matrix_rank(rows, algebra.size) == sum(1 for d in diag if d)


def test_sparse_route_matches_the_dense_route_on_relabelled_carriers():
    # relabelling reorders the rows the sparse route visits and the columns it pivots on
    for seed, algebra in enumerate(generated_algebras(24)):
        for identify_zero in (True, False):
            rows = relation_matrix(relabelled(algebra, seed), identify_zero)
            check_against_the_dense_oracle(rows, algebra.size)


@st.composite
def unit_free_or_not_matrices(draw):
    """Up to 6 x 6, mostly zero entries; half the draws have no unit entry
    at all, so no pivot is a unit until a remainder makes one."""
    entries = [0, 0, 0, 2, -2, 3, 4, -6, 9, 12]
    if draw(st.booleans()):
        entries += [1, -1, 1, -1]
    n = draw(st.integers(1, 6))
    row = st.lists(st.sampled_from(entries), min_size=n, max_size=n)
    return draw(st.lists(row, max_size=6)), n


@settings(max_examples=400, deadline=None)
@given(unit_free_or_not_matrices())
def test_sparse_route_matches_the_dense_route(case):
    rows, n = case
    before = [list(row) for row in rows]
    diag = smith_diagonal(rows, n)
    assert rows == before  # the input rows are left as they were
    check_against_the_dense_oracle(rows, n)
    if len(rows) <= 4 and n <= 4:
        assert [d for d in diag if d] == divisor_chain(rows, n)
