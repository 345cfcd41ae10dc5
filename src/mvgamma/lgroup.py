"""Lattice-ordered abelian groups built from finite chains.

A chain C of height h with top element 1 generates a totally ordered group
(Chang 1958).  Its elements are carry pairs (m, a): integer m counts whole
copies of the chain, a is an offset strictly below the top.  Addition
carries: if the offsets already saturate (a oplus b = top), the copy index
bumps by one and the offset restarts at a odot b.  Negation reflects:
-(m, a) = (-m-1, neg a), renormalized when the offset is 0.  The order is
lexicographic (copy index first, then the chain order on offsets).

The pairs are the definition, and `ChangChainGroup.add`, `neg`, `leq` and
`mul` keep it.  The sweep certifies the rule by transport through the
order isomorphism phi(m, a) = m·h + rank(a) onto (Z, <=), under which one
copy of the chain is the integer h and the unit segment [0, h] is the
chain again (Cignoli, D'Ottaviano and Mundici 2000, ch. 2): on a window,
each operation must return exactly the pair phi sends to the integers'
result.  Everything else computes on those integers: a group element is a
tuple of ints, one per fiber, and carry pairs appear only where elements
cross the JSON boundary (`ProductLuGroup.from_pairs` and `to_pairs`).

Products of finitely many fiber groups, with a coordinatewise order and a
distinguished strictly positive unit u, are the ambient groups everything
else in this package lives in.  All integer arithmetic here is exact.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import NamedTuple, Sequence

from .errors import InternalInvariantError
from .mv_core import (
    FiniteMVAlgebra,
    chain_rank,
    check_mv_axioms,
    make_chain,
    make_product_many,
)

__all__ = [
    "ChangPair",
    "GroupElement",
    "ChangChainGroup",
    "chain_fiber",
    "ProductLuGroup",
    "make_product_group",
    "require_positive_unit",
    "abs_decompose",
    "GammaSegment",
    "gamma_segment",
    "unit_segment",
]


class ChangPair(NamedTuple):
    """One fiber element as a carry pair: copy index m, offset a (never the
    chain top)."""

    m: int
    a: int


GroupElement = tuple[int, ...]


class ChangChainGroup:
    """The totally ordered group over one finite chain; two such groups are
    equal when their chains are."""

    def __init__(self, chain: FiniteMVAlgebra):
        self.chain = chain
        self.top = chain.top
        self.rank = chain_rank(chain)  # ValueError off chains
        self.by_rank = sorted(range(chain.size), key=self.rank.__getitem__)
        self.height = chain.size - 1  # rank of the top: one copy is this integer

    # -- the carry rule on pairs: the definition, certified by transport ---

    def add(self, x: ChangPair, y: ChangPair) -> ChangPair:
        s = self.chain.oplus[x.a][y.a]
        if s == self.top:
            return ChangPair(x.m + y.m + 1, self.chain.odot[x.a][y.a])
        return ChangPair(x.m + y.m, s)

    def neg(self, x: ChangPair) -> ChangPair:
        if x.a == 0:
            return ChangPair(-x.m, 0)
        return ChangPair(-x.m - 1, self.chain.neg[x.a])

    def leq(self, x: ChangPair, y: ChangPair) -> bool:
        if x.m != y.m:
            return x.m < y.m
        return self.rank[x.a] <= self.rank[y.a]

    def mul(self, k: int, x: ChangPair) -> ChangPair:
        """k-fold sum (k may be negative) by double-and-add: O(log |k|)
        additions, built from `add` and `neg` alone."""
        if k < 0:
            k, x = -k, self.neg(x)
        acc = ChangPair(0, 0)
        while k:
            if k & 1:
                acc = self.add(acc, x)
            k >>= 1
            if k:
                x = self.add(x, x)
        return acc

    # -- the order isomorphism onto the integers ---------------------------

    def phi(self, x: tuple[int, int]) -> int:
        """The integer of the pair (m, a): m copies of `height` steps plus
        the offset rank.  An offset outside the carrier is a ValueError; the
        top offset needs no normalizing, since phi(m, top) = (m+1)·height."""
        m, a = x
        if not 0 <= a < self.chain.size:
            raise ValueError("offset out of chain carrier")
        return m * self.height + self.rank[a]

    def pair_of_phi(self, t: int) -> ChangPair:
        m, r = divmod(t, self.height)
        return ChangPair(m, self.by_rank[r])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChangChainGroup):
            return NotImplemented
        return self.chain == other.chain

    def __hash__(self) -> int:
        return hash(self.chain)

    def __repr__(self) -> str:
        return f"ChangChainGroup(height={self.height})"


@functools.cache
def chain_fiber(n: int, /) -> ChangChainGroup:
    """The fiber group over the chain of height n, built once per height."""
    return ChangChainGroup(make_chain(n))


def require_positive_unit(u: GroupElement) -> None:
    """Raise ValueError unless u is strictly positive in every fiber."""
    if not all(t > 0 for t in u):
        raise ValueError("the unit must be strictly positive in every fiber")


class ProductLuGroup:
    """A finite product of chain groups with a strictly positive unit.

    Elements are tuples of integers, one per fiber, so the operations are
    the integers' own, coordinatewise.  Two product groups are equal when
    their fibers and units are.
    """

    def __init__(self, fibers: Sequence[ChangChainGroup], u: GroupElement):
        if not fibers:
            raise ValueError("a product group needs at least one fiber")
        self.fibers = tuple(fibers)
        u = tuple(u)
        if len(u) != len(self.fibers):
            raise ValueError("unit must have one coordinate per fiber")
        require_positive_unit(u)
        self.u = u
        self.zero: GroupElement = (0,) * len(u)

    @property
    def k(self) -> int:
        return len(self.fibers)

    def from_pairs(self, x: Sequence[tuple[int, int]]) -> GroupElement:
        """The element given by one carry pair (m, a) per fiber."""
        if len(x) != self.k:
            raise ValueError(f"element arity {len(x)} does not match fiber count {self.k}")
        return tuple(g.phi(p) for g, p in zip(self.fibers, x))

    def to_pairs(self, x: GroupElement) -> tuple[ChangPair, ...]:
        """The carry pairs of an element, for writing it out."""
        return tuple(g.pair_of_phi(t) for g, t in zip(self.fibers, x))

    def add(self, x: GroupElement, y: GroupElement) -> GroupElement:
        return tuple(map(operator.add, x, y))

    def neg(self, x: GroupElement) -> GroupElement:
        return tuple(-t for t in x)

    def sub(self, x: GroupElement, y: GroupElement) -> GroupElement:
        return tuple(map(operator.sub, x, y))

    def meet(self, x: GroupElement, y: GroupElement) -> GroupElement:
        return tuple(map(min, x, y))

    def join(self, x: GroupElement, y: GroupElement) -> GroupElement:
        return tuple(map(max, x, y))

    def leq(self, x: GroupElement, y: GroupElement) -> bool:
        return all(map(operator.le, x, y))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProductLuGroup):
            return NotImplemented
        return self.fibers == other.fibers and self.u == other.u

    def __hash__(self) -> int:
        return hash((self.fibers, self.u))

    def __repr__(self) -> str:
        heights = [g.height for g in self.fibers]
        return f"ProductLuGroup(heights={heights}, u={list(self.u)})"


def make_product_group(
    fibers: Sequence[ChangChainGroup], u: Sequence[tuple[int, int]]
) -> ProductLuGroup:
    """The product group whose unit is given as one carry pair per fiber."""
    if len(u) != len(fibers):
        raise ValueError(f"unit must have one coordinate per fiber, not {len(u)} for {len(fibers)}")
    return ProductLuGroup(fibers, tuple(g.phi(p) for g, p in zip(fibers, u)))


def abs_decompose(
    group: ProductLuGroup, x: GroupElement
) -> tuple[GroupElement, GroupElement, GroupElement]:
    """Split x into positive part x ∨ 0, negative part (-x) ∨ 0 and absolute
    value, their sum; x is their difference."""
    pos = group.join(group.zero, x)
    neg_part = group.join(group.zero, group.neg(x))
    return pos, neg_part, group.add(pos, neg_part)


class GammaSegment(NamedTuple):
    """The unit segment [0, u], packaged as an MV-algebra.

    It reads only the unit: fiber t's segment [0, u_t] is the chain of u_t
    steps over any fiber chain (Γ(ℤ, n) ≅ Łₙ), so it names u, not a group.
    `elements[i]` is the element behind carrier index i (row-major over the
    fibers' ascending values, so index 0 is 0); `index` inverts it;
    `zero_sets[j]` lists the indices of the elements vanishing on fiber j,
    the segment traces of the fiber kernels.
    """

    u: GroupElement
    algebra: FiniteMVAlgebra
    elements: tuple[GroupElement, ...]
    index: dict[GroupElement, int]
    zero_sets: tuple[frozenset[int], ...]


def gamma_segment(group: ProductLuGroup) -> GammaSegment:
    """The segment [0, u] of the group's unit u, all it reads of the group."""
    return unit_segment(group.u)


@functools.cache
def unit_segment(u: GroupElement, /) -> GammaSegment:
    """Carve the MV-algebra out of [0, u]: x oplus y = u meet (x + y),
    neg x = u - x.  The operations act coordinatewise, so the segment is the
    product of the chains `make_chain(u_t)`, carrier index = value; it is
    re-checked against the MV laws, associativity through its isomorphism
    onto a product of chains (`check_mv_axioms`), before being returned.
    Built once per unit.
    """
    require_positive_unit(u)
    algebra = make_product_many([make_chain(up) for up in u])
    report = check_mv_axioms(algebra)
    if not report.ok:
        raise InternalInvariantError(
            f"unit segment failed the MV laws: {report.violations[:3]}"
        )
    elements = tuple(itertools.product(*(range(up + 1) for up in u)))
    return GammaSegment(
        u=u,
        algebra=algebra,
        elements=elements,
        index={x: i for i, x in enumerate(elements)},
        zero_sets=tuple(
            frozenset(i for i, x in enumerate(elements) if x[j] == 0)
            for j in range(len(u))
        ),
    )
