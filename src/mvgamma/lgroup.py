"""Lattice-ordered abelian groups built from finite chains.

A chain C with top element 1 generates a totally ordered group whose elements
are pairs (m, a): integer m counts whole copies of the chain, a is an offset
strictly below the top.  Addition carries: if the offsets already saturate
(a oplus b = top), the copy index bumps by one and the offset restarts at
a odot b.  Negation reflects: -(m, a) = (-m-1, neg a), renormalized when the
offset is 0.  The order is lexicographic (copy index first, then the chain
order on offsets), which makes the group totally ordered.

Products of finitely many such fiber groups, with a coordinatewise order and
a distinguished strictly positive unit u, are the ambient groups everything
else in this package lives in.  All integer arithmetic here is exact.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import InternalInvariantError
from .mv_core import (
    FiniteMVAlgebra,
    chain_rank,
    check_mv_axioms,
    is_totally_ordered,
    make_product_many,
)

__all__ = [
    "ChangPair",
    "GroupElement",
    "ChangChainGroup",
    "ProductLuGroup",
    "make_product_group",
    "require_positive_unit",
    "abs_decompose",
    "GammaSegment",
    "gamma_segment",
    "coordinate_zero_sets",
    "fiber_window",
]


class ChangPair(NamedTuple):
    """One fiber element: copy index m, offset a (never the chain top)."""

    m: int
    a: int


GroupElement = tuple[ChangPair, ...]


class ChangChainGroup:
    """The totally ordered group of pairs over one finite chain; two such
    groups are equal when their chains are."""

    def __init__(self, chain: FiniteMVAlgebra):
        if not is_totally_ordered(chain):
            raise ValueError("fiber groups are built over chains only")
        self.chain = chain
        self.top = chain.top
        rank = chain_rank(chain)
        self.rank = [int(r) for r in rank]
        inv = np.empty(chain.size, dtype=np.int64)
        inv[rank] = np.arange(chain.size)
        self.by_rank = [int(v) for v in inv]
        self.height = chain.size - 1  # rank of the top; copies have this many steps
        self._op = chain.oplus_rows
        self._od = chain.odot_rows
        self._ng = chain.neg_list

    # -- constructors ----------------------------------------------------

    @property
    def zero(self) -> ChangPair:
        return ChangPair(0, 0)

    @property
    def unit(self) -> ChangPair:
        """The class of the chain top: one whole copy."""
        return ChangPair(1, 0)

    def normalize(self, m: int, a: int) -> ChangPair:
        """Push a top offset into the copy index."""
        if a == self.top:
            return ChangPair(m + 1, 0)
        return ChangPair(m, a)

    def pair(self, m: int, a: int) -> ChangPair:
        if not 0 <= a < self.chain.size:
            raise ValueError("offset out of chain carrier")
        return self.normalize(m, a)

    # -- group and lattice operations ------------------------------------

    def add(self, x: ChangPair, y: ChangPair) -> ChangPair:
        s = self._op[x.a][y.a]
        if s == self.top:
            return ChangPair(x.m + y.m + 1, self._od[x.a][y.a])
        return ChangPair(x.m + y.m, s)

    def neg(self, x: ChangPair) -> ChangPair:
        if x.a == 0:
            return ChangPair(-x.m, 0)
        return ChangPair(-x.m - 1, self._ng[x.a])

    def sub(self, x: ChangPair, y: ChangPair) -> ChangPair:
        return self.add(x, self.neg(y))

    def leq(self, x: ChangPair, y: ChangPair) -> bool:
        if x.m != y.m:
            return x.m < y.m
        return self.rank[x.a] <= self.rank[y.a]

    def meet(self, x: ChangPair, y: ChangPair) -> ChangPair:
        return x if self.leq(x, y) else y

    def join(self, x: ChangPair, y: ChangPair) -> ChangPair:
        return y if self.leq(x, y) else x

    def mul(self, k: int, x: ChangPair) -> ChangPair:
        """k-fold sum (k may be negative) by double-and-add: O(log |k|)
        additions, built from `add` and `neg` alone."""
        if k < 0:
            k, x = -k, self.neg(x)
        acc = self.zero
        while k:
            if k & 1:
                acc = self.add(acc, x)
            k >>= 1
            if k:
                x = self.add(x, x)
        return acc

    # -- linearization: reserved for oracles and enumeration -------------

    def phi(self, x: ChangPair) -> int:
        """Order iso onto Z: m copies of `height` steps plus the offset rank.

        The group operations never call this; it exists so tests can compare
        the pair arithmetic against plain integers, and so enumerations can
        bound ranges.
        """
        return x.m * self.height + self.rank[x.a]

    def pair_of_phi(self, t: int) -> ChangPair:
        m, r = divmod(t, self.height)
        return ChangPair(m, self.by_rank[r])

    def interval(self, lo: ChangPair, hi: ChangPair) -> list[ChangPair]:
        """All pairs between lo and hi inclusive, ascending."""
        out = []
        for m in range(lo.m, hi.m + 1):
            for r in range(self.chain.size - 1):
                p = ChangPair(m, self.by_rank[r])
                if self.leq(lo, p) and self.leq(p, hi):
                    out.append(p)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChangChainGroup):
            return NotImplemented
        return self.chain == other.chain

    def __hash__(self) -> int:
        return hash(self.chain)

    def __repr__(self) -> str:
        return f"ChangChainGroup(height={self.height})"


@functools.cache
def fiber_window(g: ChangChainGroup, up: ChangPair, bound: int) -> tuple[ChangPair, ...]:
    """The pairs p of g with -bound·up <= p <= bound·up, ascending."""
    cap = g.mul(bound, up)
    return tuple(g.interval(g.neg(cap), cap))


def require_positive_unit(fibers: Sequence[ChangChainGroup], u: GroupElement) -> None:
    """Raise ValueError unless u is strictly positive in every fiber."""
    for g, p in zip(fibers, u):
        if not (g.leq(g.zero, p) and p != g.zero):
            raise ValueError("the unit must be strictly positive in every fiber")


class ProductLuGroup:
    """A finite product of chain groups with a strictly positive unit.

    Two product groups are equal when their fibers and units are.
    """

    def __init__(self, fibers: Sequence[ChangChainGroup], u: GroupElement):
        if not fibers:
            raise ValueError("a product group needs at least one fiber")
        self.fibers = tuple(fibers)
        u = tuple(ChangPair(*p) for p in u)
        if len(u) != len(self.fibers):
            raise ValueError("unit must have one coordinate per fiber")
        for g, p in zip(self.fibers, u):
            if p != g.normalize(p.m, p.a):
                raise ValueError("unit coordinates must be normalized pairs")
        require_positive_unit(self.fibers, u)
        self.u = u
        self.zero: GroupElement = tuple(g.zero for g in self.fibers)
        self._hash = hash((self.fibers, u))

    @property
    def k(self) -> int:
        return len(self.fibers)

    def validate(self, x: GroupElement) -> GroupElement:
        if len(x) != self.k:
            raise ValueError("element arity does not match fiber count")
        return tuple(
            g.pair(p[0], p[1]) if not isinstance(p, ChangPair) else g.normalize(p.m, p.a)
            for g, p in zip(self.fibers, x)
        )

    def add(self, x: GroupElement, y: GroupElement) -> GroupElement:
        return tuple(g.add(a, b) for g, a, b in zip(self.fibers, x, y))

    def neg(self, x: GroupElement) -> GroupElement:
        return tuple(g.neg(a) for g, a in zip(self.fibers, x))

    def sub(self, x: GroupElement, y: GroupElement) -> GroupElement:
        return tuple(g.sub(a, b) for g, a, b in zip(self.fibers, x, y))

    def meet(self, x: GroupElement, y: GroupElement) -> GroupElement:
        return tuple(g.meet(a, b) for g, a, b in zip(self.fibers, x, y))

    def join(self, x: GroupElement, y: GroupElement) -> GroupElement:
        return tuple(g.join(a, b) for g, a, b in zip(self.fibers, x, y))

    def leq(self, x: GroupElement, y: GroupElement) -> bool:
        return all(g.leq(a, b) for g, a, b in zip(self.fibers, x, y))

    def mul(self, n: int, x: GroupElement) -> GroupElement:
        return tuple(g.mul(n, a) for g, a in zip(self.fibers, x))

    def window(self, bound: int) -> Iterator[GroupElement]:
        """All x with |x| <= bound * u, coordinatewise product enumeration."""
        return itertools.product(*self.fiber_windows(bound))

    def fiber_windows(self, bound: int) -> tuple[tuple[ChangPair, ...], ...]:
        """The factors of the window: each fiber's pairs p with |p| <= bound * u."""
        return tuple(fiber_window(g, up, bound) for g, up in zip(self.fibers, self.u))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProductLuGroup):
            return NotImplemented
        return self.fibers == other.fibers and self.u == other.u

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        heights = [g.height for g in self.fibers]
        return f"ProductLuGroup(heights={heights}, u={list(self.u)})"


def make_product_group(
    fibers: Sequence[ChangChainGroup], u: Sequence[tuple[int, int]]
) -> ProductLuGroup:
    coords = tuple(ChangPair(int(m), int(a)) for m, a in u)
    return ProductLuGroup(fibers, coords)


def abs_decompose(
    group: ProductLuGroup, x: GroupElement
) -> tuple[GroupElement, GroupElement, GroupElement]:
    """Split x into positive part, negative part, absolute value.

    The defining identities x = pos - neg and |x| = pos + neg are re-verified
    on every call; they are cheap and catch any drift in the pair arithmetic.
    """
    zero = group.zero
    pos = group.join(zero, x)
    neg_part = group.join(zero, group.neg(x))
    absolute = group.add(pos, neg_part)
    if group.sub(pos, neg_part) != x or not group.leq(zero, absolute):
        raise InternalInvariantError("absolute-value decomposition failed")
    return pos, neg_part, absolute


@dataclass(frozen=True)
class GammaSegment:
    """The unit segment [0, u] of a product group, packaged as an MV-algebra.

    `elements[i]` is the group element behind carrier index i (row-major over
    the fibers' ascending segment values, so index 0 is 0); `index` is the
    inverse lookup.
    """

    group: ProductLuGroup
    algebra: FiniteMVAlgebra
    elements: tuple[GroupElement, ...]
    index: dict[GroupElement, int]


@functools.cache
def gamma_segment(group: ProductLuGroup) -> GammaSegment:
    """Carve the MV-algebra out of [0, u]: x oplus y = u meet (x + y),
    neg x = u - x.  The operations act coordinatewise, so each fiber's
    segment is an algebra of its own and the segment is their product; the
    finished product is re-checked against the MV laws before being returned.
    """
    per_fiber: list[list[ChangPair]] = []
    factors: list[FiniteMVAlgebra] = []
    for g, up in zip(group.fibers, group.u):
        values = g.interval(g.zero, up)
        idx = {p: i for i, p in enumerate(values)}
        add_cap = [[idx[g.meet(up, g.add(p, q))] for q in values] for p in values]
        neg_t = [idx[g.sub(up, p)] for p in values]
        per_fiber.append(values)
        factors.append(FiniteMVAlgebra(len(values), add_cap, neg_t))
    algebra = make_product_many(factors)
    report = check_mv_axioms(algebra)
    if not report.ok:
        raise InternalInvariantError(
            f"unit segment failed the MV laws: {report.violations[:3]}"
        )
    elements = tuple(itertools.product(*per_fiber))
    index = {x: i for i, x in enumerate(elements)}
    if elements[0] != group.zero or elements[-1] != group.u:
        raise InternalInvariantError("segment enumeration must run from 0 to u")
    return GammaSegment(
        group=group,
        algebra=algebra,
        elements=elements,
        index=index,
    )


def coordinate_zero_sets(segment: GammaSegment) -> tuple[frozenset[int], ...]:
    """For each fiber, the carrier indices of the segment elements vanishing
    on it: the segment traces of the fiber kernels."""
    return tuple(
        frozenset(i for i, x in enumerate(segment.elements) if x[j] == z)
        for j, z in enumerate(segment.group.zero)
    )
