"""Ideals, prime ideals, quotients, and the maps quotients induce.

An ideal is a subset containing 0, downward closed, and closed under oplus.
In a finite algebra every ideal is the downset of a unique oplus-idempotent,
which is what makes the enumeration cheap: the idempotents are the elements
squaring reaches, and their downsets are the ideals.  Quotients use the same
fact: the class of a is keyed by a odot neg(e), where e is the ideal's
idempotent.  The embedding into the prime quotients is `star_algebra`'s iota.

The spectrum is the set of proper prime ideals in a fixed canonical order
(ascending membership bitmask), so everything downstream that says "the j-th
fiber" is reproducible across runs.  The primes and their quotients are read
off the certified chain decomposition (`prime_quotients`), no ideal enumerated.
"""

from __future__ import annotations

import functools
import operator
from typing import Hashable, NamedTuple, Sequence

from .errors import InternalInvariantError
from .mv_core import FiniteMVAlgebra, MVMorphism, chain_decomposition

__all__ = [
    "Ideal",
    "Spectrum",
    "QuotientResult",
    "ideal_violations",
    "enumerate_ideals",
    "ideals_by_subset_filter",
    "spectrum",
    "prime_quotients",
    "quotient",
    "preimage_ideal",
    "class_values",
    "induced_morphism",
    "restrict_morphism",
    "SUBSET_ORACLE_CAP",
]

SUBSET_ORACLE_CAP = 12  # carrier size; the oracle builds a down-set for all 2^size masks


class Ideal(NamedTuple):
    algebra: FiniteMVAlgebra
    members: frozenset[int]

    @property
    def bitmask(self) -> int:
        return sum(1 << a for a in self.members)

    @property
    def proper(self) -> bool:
        return len(self.members) < self.algebra.size

    def __contains__(self, a: int) -> bool:
        return a in self.members

    def __repr__(self) -> str:
        return f"Ideal({sorted(self.members)})"


class Spectrum(NamedTuple):
    """The proper primes of an algebra; `len` counts the primes."""

    algebra: FiniteMVAlgebra
    primes: tuple[Ideal, ...]

    def __len__(self) -> int:
        return len(self.primes)

    def index_of(self, members: frozenset[int]) -> int:
        for j, p in enumerate(self.primes):
            if p.members == members:
                return j
        raise KeyError(f"no prime with members {sorted(members)}")


@functools.cache
def ideal_violations(algebra: FiniteMVAlgebra, members: frozenset[int], /) -> tuple[str, ...]:
    """Human-readable reasons a subset fails to be an ideal (empty if none).
    Some x outside lies below a member y when neg(x) oplus y = top."""
    out = [] if 0 in members else ["does not contain 0"]
    if not members:
        return tuple(out)
    op, ng, top = algebra.oplus, algebra.neg, algebra.top
    at_members = operator.itemgetter(*members, min(members))  # a tuple even for one member
    if any(top in at_members(op[ng[x]]) for x in range(algebra.size) if x not in members):
        out.append("not downward closed")
    if not all(members.issuperset(at_members(op[a])) for a in members):
        out.append("not closed under oplus")
    return tuple(out)


def _idempotent_above(algebra: FiniteMVAlgebra, a: int) -> int:
    """Least idempotent bounding every finite oplus-multiple of a: the one
    its squares reach.  On a lawful table they rise until they reach it, so
    within size steps; a ValueError names squares that cycle instead."""
    rows, e = algebra.oplus, a
    for _ in range(algebra.size):
        if rows[e][e] == e:
            return e
        e = rows[e][e]
    raise ValueError(f"the squares of {a} cycle through non-idempotents (not an MV-algebra)")


def enumerate_ideals(algebra: FiniteMVAlgebra) -> list[Ideal]:
    """All ideals, {0} and the improper one included, in bitmask order.

    Each ideal is the downset of its largest member, an idempotent, and each
    idempotent is the one its own squares reach, so `gens` holds them all.
    No join needs adding: e oplus f is idempotent again, (e + f) + (e + f) =
    (e + e) + (f + f) = e + f by associativity and commutativity.
    """
    gens = {_idempotent_above(algebra, a) for a in range(algebra.size)}
    return sorted((Ideal(algebra, algebra.below[e]) for e in gens), key=lambda i: i.bitmask)


def ideals_by_subset_filter(algebra: FiniteMVAlgebra) -> list[Ideal]:
    """Brute-force cross-check, deliberately independent of enumerate_ideals:
    every subset with 0, as a bitmask in bitmask order, filtered by the
    definition.  Capped at carrier size 12.  below[y] masks the x with
    neg(x) oplus y = top, so one pass over the masks gives each mask's
    down-set from the mask less its lowest member; only subsets whose
    down-set adds no element are checked for closure under oplus.
    """
    s, op, ng, top = algebra.size, algebra.oplus, algebra.neg, algebra.top
    if s > SUBSET_ORACLE_CAP:
        raise ValueError(f"subset oracle capped at size {SUBSET_ORACLE_CAP}")
    below = {1 << y: sum(1 << x for x in range(s) if op[ng[x]][y] == top) for y in range(s)}
    down = [0]
    for bits in range(1, 1 << s):
        down.append(down[bits & bits - 1] | below[bits & -bits])
    closed = (b for b in range(1, 1 << s, 2) if not down[b] & ~b)  # with 0, downward closed
    subsets = (frozenset(a for a in range(s) if bits >> a & 1) for bits in closed)
    return [Ideal(algebra, m) for m in subsets if m.issuperset(op[a][b] for a in m for b in m)]


class QuotientResult(NamedTuple):
    quotient: FiniteMVAlgebra
    class_of: tuple[int, ...]


@functools.cache
def prime_quotients(algebra: FiniteMVAlgebra, /) -> tuple[tuple[Ideal, QuotientResult], ...]:
    """Each proper prime with `quotient(algebra, prime)`, in spectrum order,
    read off the chain decomposition f: prime i is the kernel of coordinate
    i of f(k), the class of x is that coordinate of x, numbered by first
    appearance in carrier order, and the table is chain i's, min(n, a + b)
    and n - a, under that numbering.  A ValueError names a table with no
    decomposition, as every table that fails the MV laws is."""
    found = chain_decomposition(algebra)
    if found is None:
        raise ValueError("spectrum: the algebra fails the MV laws (no chain decomposition)")
    (f, heights), out = found, []
    index, stride = sorted(range(len(f)), key=f.__getitem__), len(f)  # index[f(k)] = k
    for n in heights:
        stride //= n + 1
        column = [k // stride % (n + 1) for k in index]
        values = list(dict.fromkeys(column))  # the coordinate of each class
        rank = {v: c for c, v in enumerate(values)}
        q_oplus = tuple(tuple(rank[min(n, v + w)] for w in values) for v in values)
        q = FiniteMVAlgebra._built(n + 1, q_oplus, tuple(rank[n - v] for v in values))
        class_of = tuple(map(rank.__getitem__, column))
        prime = Ideal(algebra, frozenset(x for x, c in enumerate(class_of) if not c))
        out.append((prime, QuotientResult(q, class_of)))
    return tuple(sorted(out, key=lambda pq: pq[0].bitmask))


@functools.cache
def spectrum(algebra: FiniteMVAlgebra, /) -> Spectrum:
    """Proper prime ideals in canonical (bitmask-ascending) order, read off
    the chain decomposition (`prime_quotients`): the ideals of a product of
    chains are the products of one ideal, {0} or all, per chain, and the
    quotient by one is a chain exactly when it keeps one coordinate (CDM ch. 3)."""
    return Spectrum(algebra, tuple(p for p, _ in prime_quotients(algebra)))


@functools.cache
def quotient(algebra: FiniteMVAlgebra, ideal: Ideal, /) -> QuotientResult:
    """Quotient by the congruence a ~ b iff (a ominus b) oplus (b ominus a) lies
    in the ideal.  Classes are indexed by first appearance, so the class of 0
    is 0 and quotients of identity congruences reuse the original indexing.

    The ideal is the downset of its largest member e, an idempotent (the
    oplus of all members), and a |-> a odot neg(e) has kernel exactly that
    downset, so it keys the classes without comparing pairs of elements.  A
    ValueError names a subset that is no ideal, or the improper one.
    """
    bad = ideal_violations(algebra, ideal.members)
    if bad:
        raise ValueError("not an ideal: " + "; ".join(bad))
    if not ideal.proper:
        raise ValueError("quotient by the improper ideal would be the excluded one-element algebra")
    op, ng = algebra.oplus, algebra.neg
    e = functools.reduce(lambda e, a: op[e][a], ideal.members, 0)
    key = [ng[op[na][e]] for na in ng]
    reps = list(dict.fromkeys(key))
    rank = {r: c for c, r in enumerate(reps)}
    class_of = tuple(map(rank.__getitem__, key))
    classes = class_of.__getitem__
    q_oplus = tuple(tuple(map(classes, map(op[r].__getitem__, reps))) for r in reps)
    q = FiniteMVAlgebra._built(len(reps), q_oplus, tuple(map(classes, map(ng.__getitem__, reps))))
    return QuotientResult(q, class_of)


def preimage_ideal(h: MVMorphism, ideal: Ideal) -> Ideal:
    """h^{-1} of an ideal of the codomain; prime pulls back to prime."""
    if ideal.algebra != h.cod:
        raise ValueError("ideal does not live in the morphism codomain")
    members = frozenset(a for a in range(h.dom.size) if h.map[a] in ideal.members)
    return Ideal(h.dom, members)


def class_values(q: QuotientResult, values: Sequence[Hashable]) -> tuple | None:
    """The value of each class of q, in class order, given one value per
    carrier element; None when some class holds two different values."""
    found: dict[int, Hashable] = {}
    for c, v in zip(q.class_of, values):
        if found.setdefault(c, v) != v:
            return None
    return tuple(found[c] for c in range(q.quotient.size))


def induced_morphism(h: MVMorphism, dom_q: QuotientResult, cod_q: QuotientResult) -> MVMorphism:
    """The map dom_q -> cod_q sending the class of a to the class of h(a).

    Raises if that assignment is not constant on classes, which would signal
    a broken congruence rather than a legitimate outcome.
    """
    assignment = class_values(dom_q, [cod_q.class_of[b] for b in h.map])
    if assignment is None:
        raise InternalInvariantError("induced map not constant on congruence classes")
    return MVMorphism(dom_q.quotient, cod_q.quotient, assignment)


def restrict_morphism(h: MVMorphism, prime: Ideal) -> MVMorphism:
    """The induced map dom/h^{-1}(P) -> cod/P on quotient classes."""
    return induced_morphism(
        h, quotient(h.dom, preimage_ideal(h, prime)), quotient(h.cod, prime)
    )
