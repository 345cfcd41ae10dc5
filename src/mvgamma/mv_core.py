"""Finite MV-algebras as integer Cayley tables.

An algebra is a carrier {0, .., size-1} together with a binary table for the
truncated addition ``oplus`` and a unary table for the involution ``neg``.
Element 0 is always the bottom.  Everything else (the product, the order)
is derived from those two tables.  A table is a tuple of Python ints, or of
row tuples, held once: cells read ``oplus[a][b]``, and whole rows are
gathered by index with ``map`` and ``operator.itemgetter``.
"""

from __future__ import annotations

import functools
import itertools
import operator
import weakref
from typing import NamedTuple, Sequence

__all__ = [
    "FiniteMVAlgebra",
    "AxiomReport",
    "MVMorphism",
    "MorphismReport",
    "make_chain",
    "make_product",
    "make_product_many",
    "check_mv_axioms",
    "check_morphism",
    "compose",
    "find_morphisms",
    "chain_rank",
    "chain_decomposition",
]

_VIOLATION_CAP = 100  # per axiom; garbage tables can fail on O(size^3) triples


def _shape(values, depth: int = 2) -> tuple[int, ...]:
    """The length of values, then of its first entry, down to depth 2."""
    if not depth or not hasattr(values, "__len__"):
        return ()
    return (len(values), *(_shape(values[0], depth - 1) if len(values) else ()))


def _table(values, shape: tuple[int, ...], name: str) -> tuple:
    """values as a tuple of ints in range(shape[0]), or of such row tuples
    for a square shape; a ValueError names a wrong shape or range.  Entries
    that are not ints but integer-like go through `operator.index`."""
    if _shape(values) != shape:
        raise ValueError(f"{name} must have shape {shape}, got {_shape(values)}")
    rows = tuple(map(tuple, values)) if len(shape) == 2 else (tuple(values),)
    if any(len(row) != shape[0] for row in rows):
        raise ValueError(f"{name} must have shape {shape}, got ragged rows")
    entries = set().union(*rows)
    if any(type(v) is not int for v in entries):
        rows = tuple(tuple(map(operator.index, row)) for row in rows)
        entries = set().union(*rows)
    if min(entries) < 0 or max(entries) >= shape[0]:
        raise ValueError(f"{name} entries out of carrier range")
    return rows if len(shape) == 2 else rows[0]


class _DownSets(dict):
    """The down-set {a : a <= b} of each element b, found when first read:
    a <= b iff neg(a) oplus b = top, read down column b of the rows neg(a)."""

    def __init__(self, algebra: FiniteMVAlgebra):
        self.rows, self.top = tuple(map(algebra.oplus.__getitem__, algebra.neg)), algebra.top

    def __missing__(self, b: int) -> frozenset[int]:
        at_top = map(self.top.__eq__, map(operator.itemgetter(b), self.rows))
        down = self[b] = frozenset(itertools.compress(itertools.count(), at_top))
        return down


# The live algebra of each (size, oplus, neg) key, while it lives.
_LIVE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class FiniteMVAlgebra:
    """A finite algebra (carrier, oplus table, neg table) with 0 as bottom.

    An algebra is its tables: constructing one returns the live algebra with
    equal tables if there is one, so equal tables are one object and algebras
    compare and hash by identity.  The tables (tuples, so read-only) are the
    interning key itself.

    Construction validates shapes and value ranges only; whether the tables
    satisfy the MV laws is a separate question answered by check_mv_axioms.
    One-element carriers are rejected: the degenerate algebra where 0 = 1 is
    outside every construction here, which keeps quotients by proper ideals
    and spectra well behaved.
    """

    def __new__(cls, size: int, oplus, neg):
        if size < 2:
            raise ValueError("carrier must have at least two elements")
        size = operator.index(size)
        key = (size, _table(oplus, (size, size), "oplus"), _table(neg, (size,), "neg"))
        algebra = _LIVE.get(key)
        if algebra is None:
            algebra = super().__new__(cls)
            algebra.size, algebra.oplus, algebra.neg = key
            _LIVE[key] = algebra
        return algebra

    def __init__(self, size: int, oplus, neg):
        """Nothing left to do after `__new__`; the hook perfbench traces as table_build."""

    @classmethod
    def _built(cls, size: int, oplus: tuple, neg: tuple) -> FiniteMVAlgebra:
        """Tables the package built, tuples of int tuples: the live algebra is looked up first."""
        return _LIVE.get((size, oplus, neg)) or cls(size, oplus, neg)

    def __reduce__(self):  # copies and unpickled algebras are interned too
        return FiniteMVAlgebra, (self.size, self.oplus, self.neg)

    @property
    def top(self) -> int:
        return self.neg[0]

    # -- derived tables (computed once; all follow from oplus and neg) --

    @functools.cached_property
    def odot(self) -> tuple[tuple[int, ...], ...]:
        """odot[a][b] = neg(neg(a) oplus neg(b))."""
        op, ng = self.oplus, self.neg
        at_negs = operator.itemgetter(*ng)
        return tuple(tuple(map(ng.__getitem__, at_negs(op[na]))) for na in ng)

    @functools.cached_property
    def below(self) -> _DownSets:
        """below[b] is the down-set {a : a <= b} of b, found when first read."""
        return _DownSets(self)

    def __repr__(self) -> str:
        return f"FiniteMVAlgebra(size={self.size})"


class AxiomReport(NamedTuple):
    """Outcome of check_mv_axioms: ok, plus (axiom, args) witnesses if not."""

    ok: bool
    violations: tuple[tuple[str, tuple[int, ...]], ...] = ()
    truncated: bool = False

    def __bool__(self) -> bool:
        return self.ok


class _MorphismFields(NamedTuple):
    dom: FiniteMVAlgebra
    cod: FiniteMVAlgebra
    map: tuple[int, ...]


class MVMorphism(_MorphismFields):
    """A carrier map dom -> cod given as a tuple; laws via check_morphism.
    An immutable record whose map is checked against both carriers whenever
    one is built, `_replace` included."""

    __slots__ = ()

    def __new__(cls, dom: FiniteMVAlgebra, cod: FiniteMVAlgebra, map: tuple[int, ...]):
        if len(map) != dom.size:
            raise ValueError("morphism map length must equal dom carrier size")
        if any(not (0 <= v < cod.size) for v in map):
            raise ValueError("morphism map value out of cod carrier range")
        return super().__new__(cls, dom, cod, map)

    @classmethod
    def _make(cls, values) -> MVMorphism:
        return cls(*values)

    def __call__(self, a: int) -> int:
        return self.map[a]

    def is_injective(self) -> bool:
        return len(set(self.map)) == self.dom.size

    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.cod.size


class MorphismReport(NamedTuple):
    ok: bool
    violations: tuple[tuple[str, tuple[int, ...]], ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def make_chain(n: int) -> FiniteMVAlgebra:
    """The (n+1)-element chain on {0..n}: a oplus b = min(n, a+b), neg a = n-a.

    n >= 1; n = 0 would be the excluded one-element algebra.
    """
    if n < 1:
        raise ValueError("chain parameter must be >= 1")
    oplus = tuple(tuple(range(a, n + 1)) + (n,) * a for a in range(n + 1))
    return FiniteMVAlgebra._built(n + 1, oplus, tuple(range(n, -1, -1)))


def make_product_many(factors: Sequence[FiniteMVAlgebra]) -> FiniteMVAlgebra:
    """Pointwise product with row-major index pairing (first factor slowest),
    built once per tuple of factors."""
    if not factors:
        raise ValueError("product needs at least one factor")
    return factors[0] if len(factors) == 1 else _product(tuple(factors))


@functools.cache
def _product(factors: tuple[FiniteMVAlgebra, ...], /) -> FiniteMVAlgebra:
    """Folding in a factor of size n, row (i, y) is the row i so far with
    each entry a replaced by the factor's row y shifted by a·n."""
    oplus, neg = ((0,),), (0,)
    for f in factors:
        n = f.size
        shifted = [[tuple(a * n + b for b in row) for a in range(len(neg))] for row in f.oplus]
        oplus = tuple(
            tuple(itertools.chain.from_iterable(map(by_a.__getitem__, row)))
            for row in oplus
            for by_a in shifted
        )
        neg = tuple(a * n + b for a in neg for b in f.neg)
    return FiniteMVAlgebra._built(len(neg), oplus, neg)


def make_product(a: FiniteMVAlgebra, b: FiniteMVAlgebra) -> FiniteMVAlgebra:
    """Binary pointwise product; index of (x, y) is x * b.size + y."""
    return make_product_many([a, b])


def _where(left, right, *prefix: int) -> list[tuple[int, ...]]:
    """(*prefix, i) for each position i where two rows differ."""
    return [(*prefix, i) for i, (x, y) in enumerate(zip(left, right)) if x != y]


def _cells(left, right) -> list[tuple[int, int]]:
    """The (a, b) where two tables (sequences of rows) differ, row-major."""
    return [cell for a, (x, y) in enumerate(zip(left, right)) if x != y for cell in _where(x, y, a)]


def _assoc_failures(op: tuple) -> list[tuple[int, int, int]]:
    """The (a, b, c) with (a+b)+c != a+(b+c) in row-major order, one row a at
    a time, up to the row passing the cap.  Row a compares the rows
    op[a+b] with row a read at the entries of the rows op[b]."""
    at_rows = [operator.itemgetter(*row) for row in op]
    found = []
    for a, row in enumerate(op):
        found += [(a, b, c) for b, c in _cells(map(op.__getitem__, row), [g(row) for g in at_rows])]
        if len(found) > _VIOLATION_CAP:
            break
    return found


@functools.cache
def chain_decomposition(algebra: FiniteMVAlgebra, /) -> tuple | None:
    """(f, heights): an isomorphism f from the product of the chains
    `make_chain(n)` for n in heights onto the algebra, as the element f[k] of
    each product index k; None when the tables are not such an image.
    O(s^2), never raises.

    f is read off the tables: the minimal nonzero idempotents e_i of the
    order x <= y iff neg x oplus y = top, n_i the count of nonzero elements
    below e_i, the least of them a_i, and f(k) = sum_i k_i·a_i (on a lawful
    table, the decomposition into chains of CDM ch. 3).  Acceptance proves
    every law: f is onto, so every tuple of elements is an image under f,
    and f carries the laws of the product of the chains min(n, a + b),
    n - a (CDM ch. 1; tested against every law) onto them.
    """
    s, op, below = algebra.size, algebra.oplus, algebra.below
    idem = frozenset(e for e in range(1, s) if op[e][e] == e)
    # the largest first: on a product's own table that is the first factor's,
    # so the chains come in factor order and their product is this algebra
    minimal = [e for e in sorted(idem, reverse=True) if len(below[e] & idem) == 1]
    f, heights = (0,), []
    for e in minimal:
        under = sorted(below[e] - {0})
        if not under or len(f) * (len(under) + 1) > s:  # each chain doubles len(f) or more
            return None
        atom, multiples = min(under, key=lambda x: len(below[x])), [0]
        for _ in under:
            multiples.append(op[multiples[-1]][atom])
        at_multiples = operator.itemgetter(*multiples)
        f = tuple(itertools.chain.from_iterable(at_multiples(op[x]) for x in f))
        heights.append(len(under))
    if len(f) != s or len(set(f)) != s:
        return None
    product, at_f = make_product_many([make_chain(n) for n in heights]), operator.itemgetter(*f)
    # a product of chains itself is accepted without comparing: f is the identity
    if product is algebra or at_f(algebra.neg) == operator.itemgetter(*product.neg)(f) and all(
        at_f(op[x]) == operator.itemgetter(*row)(f) for x, row in zip(f, product.oplus)
    ):
        return f, tuple(heights)
    return None


@functools.cache
def check_mv_axioms(algebra: FiniteMVAlgebra, /) -> AxiomReport:
    """Check the six defining laws on the whole carrier.

    Laws: associativity and commutativity of oplus, 0 as unit, neg involutive,
    top absorbing, and the characteristic law
    neg(neg a oplus b) oplus b = neg(neg b oplus a) oplus a.  All six hold
    exactly when the table has a `chain_decomposition` (every finite
    MV-algebra is a product of chains, CDM ch. 3); otherwise the failing
    arguments of each law are found exhaustively, in row-major order.
    """
    if chain_decomposition(algebra) is not None:
        return AxiomReport(ok=True)
    s, op, ng, top = algebra.size, algebra.oplus, algebra.neg, algebra.top
    carrier, columns = tuple(range(s)), tuple(zip(*op))
    luk = [tuple(op[ng[v]][b] for b, v in enumerate(op[na])) for na in ng]
    out: list[tuple[str, tuple[int, ...]]] = []
    truncated = False
    for name, found in (
        ("assoc", _assoc_failures(op)),
        ("comm", _cells(op, columns)),
        ("unit", _where(columns[0], carrier)),
        ("involution", _where(map(ng.__getitem__, ng), carrier)),
        ("absorb", _where(columns[top], (top,) * s)),
        ("characteristic", _cells(luk, zip(*luk))),
    ):
        out += [(name, args) for args in found[:_VIOLATION_CAP]]
        truncated |= len(found) > _VIOLATION_CAP
    return AxiomReport(ok=not out, violations=tuple(out), truncated=truncated)


@functools.cache
def check_morphism(h: MVMorphism, /) -> MorphismReport:
    """Check h(0)=0, h(a oplus b) = h(a) oplus h(b), h(neg a) = neg h(a).
    The identity holds on any tables, so it passes unread: it is the iota of
    an algebra written as its own product of chains, interned as its segment."""
    if h.dom is h.cod and h.map == tuple(range(h.dom.size)):
        return MorphismReport(ok=True)
    m, cod, at_images = h.map, h.cod, operator.itemgetter(*h.map)
    out = [("zero", (0,))] if m[0] != 0 else []
    left = [operator.itemgetter(*row)(m) for row in h.dom.oplus]
    bad = _cells(left, [at_images(cod.oplus[y]) for y in m])
    out += [("oplus", cell) for cell in bad[:_VIOLATION_CAP]]
    bad = _where(operator.itemgetter(*h.dom.neg)(m), at_images(cod.neg))
    out += [("neg", a) for a in bad[:_VIOLATION_CAP]]
    return MorphismReport(ok=not out, violations=tuple(out))


def compose(first: MVMorphism, then: MVMorphism) -> MVMorphism:
    """compose(h1, h2) applies h1 first: the result maps a to h2(h1(a))."""
    if first.cod is not then.dom:
        raise ValueError("compose: cod of first must equal dom of second")
    return MVMorphism(first.dom, then.cod, tuple(then.map[v] for v in first.map))


def chain_rank(algebra: FiniteMVAlgebra) -> tuple[int, ...]:
    """Position of each element in the total order; error on non-chains.

    rank[a] counts the elements strictly below a, so rank is the unique
    order iso onto {0..size-1} and the unique MV iso onto the same-size
    Lukasiewicz chain (finite chains are rigid).
    """
    below = algebra.below
    if not all(a in below[b] or b in below[a] for b in range(algebra.size) for a in range(b)):
        raise ValueError("algebra is not totally ordered")
    return tuple(len(below[a]) - 1 for a in range(algebra.size))


@functools.cache
def find_morphisms(dom: FiniteMVAlgebra, cod: FiniteMVAlgebra, /) -> tuple[MVMorphism, ...]:
    """All morphisms dom -> cod, in ascending order of their map tuples.

    Read through the chain decompositions f of dom and g of cod, of heights
    n_i and m_j: a morphism into a chain has a prime kernel, so it factors
    through one coordinate, and chains of heights n -> m have a morphism
    exactly when n | m, a -> a·m/n (CDM ch. 3).  So each choice sigma of an
    i with n_i | m_j for every j gives the one morphism sending f(k) to g of
    the tuple (k_sigma(j)·m_j/n_sigma(j))_j.  A ValueError names a table
    with no decomposition, as every table that fails the MV laws is.
    """
    found = chain_decomposition(dom), chain_decomposition(cod)
    for name, decomposition in zip(("dom", "cod"), found):
        if decomposition is None:
            raise ValueError(f"find_morphisms: {name} fails the MV laws (no chain decomposition)")
    (f, ns), (g, ms) = found
    # each element f(k) of dom with its coordinates k, in carrier order
    elements = sorted(zip(f, itertools.product(*(range(n + 1) for n in ns))))
    at_coords = dict(zip(itertools.product(*(range(m + 1) for m in ms)), g))
    maps = sorted(
        tuple(at_coords[tuple(k[i] * (m // ns[i]) for i, m in zip(sigma, ms))] for _, k in elements)
        for sigma in itertools.product(*[[i for i, n in enumerate(ns) if m % n == 0] for m in ms])
    )
    return tuple(MVMorphism(dom, cod, m) for m in maps)
