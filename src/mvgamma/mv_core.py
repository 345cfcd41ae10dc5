"""Finite MV-algebras as integer Cayley tables.

An algebra is a carrier {0, .., size-1} together with a binary table for the
truncated addition ``oplus`` and a unary table for the involution ``neg``.
Element 0 is always the bottom.  Everything else (the product, the order, the
lattice) is derived from those two tables.  Tables are numpy int arrays so
the law checks run vectorized and whole rows, columns and sub-tables can be
gathered by index; single-cell lookups in hot paths go through plain nested
lists (see ``oplus_rows`` etc.).
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
    "is_totally_ordered",
    "chain_rank",
]

_VIOLATION_CAP = 100  # per axiom; garbage tables can fail on O(size^3) triples
_ASSOC_BLOCK_CELLS = 1 << 20  # associativity is checked in row blocks of about this many cells
_NODE_CAP = 10**6  # partial maps a morphism search may try, so sweeps stay bounded


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _table_bytes(values, shape, name: str) -> bytes:
    arr = np.asarray(values, dtype=np.int64)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr.tobytes()


# The live algebra of each (size, oplus bytes, neg bytes) key, while it lives.
_LIVE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class FiniteMVAlgebra:
    """A finite algebra (carrier, oplus table, neg table) with 0 as bottom.

    An algebra is its tables: constructing one returns the live algebra with
    equal tables if there is one, so equal tables are one object and algebras
    compare and hash by identity.  The tables are read-only views of the key.

    Construction validates shapes and value ranges only; whether the tables
    satisfy the MV laws is a separate question answered by check_mv_axioms.
    One-element carriers are rejected: the degenerate algebra where 0 = 1 is
    outside every construction here, which keeps quotients by proper ideals
    and spectra well behaved.
    """

    def __new__(cls, size: int, oplus, neg):
        if size < 2:
            raise ValueError("carrier must have at least two elements")
        key = (
            int(size),
            _table_bytes(oplus, (size, size), "oplus"),
            _table_bytes(neg, (size,), "neg"),
        )
        algebra = _LIVE.get(key)
        if algebra is None:
            algebra = super().__new__(cls)
            algebra.size = key[0]
            algebra.oplus = np.frombuffer(key[1], dtype=np.int64).reshape(size, size)
            algebra.neg = np.frombuffer(key[2], dtype=np.int64)
            if algebra.oplus.min() < 0 or algebra.oplus.max() >= size:
                raise ValueError("oplus entries out of carrier range")
            if algebra.neg.min() < 0 or algebra.neg.max() >= size:
                raise ValueError("neg entries out of carrier range")
            _LIVE[key] = algebra
        return algebra

    def __init__(self, size: int, oplus, neg):
        """Nothing left to do after `__new__`; the hook perfbench traces as table_build."""

    def __reduce__(self):  # copies and unpickled algebras are interned too
        return FiniteMVAlgebra, (self.size, self.oplus, self.neg)

    @property
    def zero(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return int(self.neg[0])

    # -- derived tables (computed once; all follow from oplus and neg) --

    @functools.cached_property
    def odot(self) -> np.ndarray:
        """odot[a,b] = neg(neg(a) oplus neg(b))."""
        return _frozen(self.neg[self.oplus[self.neg[:, None], self.neg[None, :]]])

    @functools.cached_property
    def ominus(self) -> np.ndarray:
        """ominus[a,b] = a odot neg(b); zero exactly when a <= b."""
        return _frozen(self.odot[:, self.neg])

    @functools.cached_property
    def leq(self) -> np.ndarray:
        """Boolean matrix of the induced partial order."""
        return _frozen(self.ominus == 0)

    @functools.cached_property
    def join(self) -> np.ndarray:
        """join[a,b] = (a ominus b) oplus b."""
        return _frozen(self.oplus[self.ominus, np.arange(self.size)[None, :]])

    @functools.cached_property
    def meet(self) -> np.ndarray:
        return _frozen(self.neg[self.join[self.neg[:, None], self.neg[None, :]]])

    # -- fast scalar access for backtracking searches and pair arithmetic --

    @functools.cached_property
    def oplus_rows(self) -> list[list[int]]:
        return self.oplus.tolist()

    @functools.cached_property
    def odot_rows(self) -> list[list[int]]:
        return self.odot.tolist()

    @functools.cached_property
    def neg_list(self) -> list[int]:
        return self.neg.tolist()

    def __repr__(self) -> str:
        return f"FiniteMVAlgebra(size={self.size})"


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of check_mv_axioms: ok, plus (axiom, args) witnesses if not."""

    ok: bool
    violations: tuple[tuple[str, tuple[int, ...]], ...] = ()
    truncated: bool = False

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class MVMorphism:
    """A carrier map dom -> cod given as a tuple; laws via check_morphism."""

    dom: FiniteMVAlgebra
    cod: FiniteMVAlgebra
    map: tuple[int, ...]

    def __post_init__(self):
        if len(self.map) != self.dom.size:
            raise ValueError("morphism map length must equal dom carrier size")
        if any(not (0 <= v < self.cod.size) for v in self.map):
            raise ValueError("morphism map value out of cod carrier range")

    def __call__(self, a: int) -> int:
        return self.map[a]

    def is_injective(self) -> bool:
        return len(set(self.map)) == self.dom.size

    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.cod.size


@dataclass(frozen=True)
class MorphismReport:
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
    a = np.arange(n + 1)
    oplus = np.minimum(n, a[:, None] + a[None, :])
    neg = n - a
    return FiniteMVAlgebra(n + 1, oplus, neg)


def make_product_many(factors: Sequence[FiniteMVAlgebra]) -> FiniteMVAlgebra:
    """Pointwise product with row-major index pairing (first factor slowest)."""
    if not factors:
        raise ValueError("product needs at least one factor")
    if len(factors) == 1:
        return factors[0]
    sizes = [f.size for f in factors]
    total = int(np.prod(sizes))
    idx = np.arange(total)
    digits = np.array(np.unravel_index(idx, sizes))  # (k, total)
    strides = np.array([int(np.prod(sizes[i + 1 :])) for i in range(len(sizes))])
    oplus = np.zeros((total, total), dtype=np.int64)
    neg = np.zeros(total, dtype=np.int64)
    for i, f in enumerate(factors):
        d = digits[i]
        oplus += strides[i] * f.oplus[d[:, None], d[None, :]]
        neg += strides[i] * f.neg[d]
    return FiniteMVAlgebra(total, oplus, neg)


def make_product(a: FiniteMVAlgebra, b: FiniteMVAlgebra) -> FiniteMVAlgebra:
    """Binary pointwise product; index of (x, y) is x * b.size + y."""
    return make_product_many([a, b])


def _collect(name: str, where: np.ndarray, arity: int, out: list) -> bool:
    """Append up to the cap of violating argument tuples; return truncation."""
    for row in where[:_VIOLATION_CAP]:
        out.append((name, tuple(int(v) for v in row[:arity])))
    return len(where) > _VIOLATION_CAP


def _assoc_failures(op: np.ndarray) -> np.ndarray:
    """The (a, b, c) with (a+b)+c != a+(b+c) in row-major order, one block of
    rows a at a time (memory O(size^2)), up to the block passing the cap."""
    s = len(op)
    step = max(1, _ASSOC_BLOCK_CELLS // (s * s))
    found = []
    for i in range(0, s, step):
        rows = op[i : i + step]
        found.append(np.argwhere(op[rows] != rows[:, op]) + [i, 0, 0])
        if sum(map(len, found)) > _VIOLATION_CAP:
            break
    return np.concatenate(found)


def _chain_product_certificate(op: np.ndarray, ng: np.ndarray) -> bool:
    """Whether an explicit f from a product of chains onto the carrier
    carries the product's oplus and neg onto the tables; O(s^2), never raises.

    f is read off the tables: the minimal nonzero idempotents e_i of the
    order x <= y iff neg x oplus y = top, n_i the count of nonzero elements
    below e_i, the least of them a_i, and f(k) = sum_i k_i·a_i (on a lawful
    table, the decomposition into chains of CDM ch. 3).  Acceptance proves
    associativity: f is onto, so every triple is (f x, f y, f z), and f
    carries the associativity of the product of the `make_chain` chains
    min(n, a + b), n - a (CDM ch. 1; tested against every law) onto it.
    """
    s = len(op)
    leq = op[ng[:, None], np.arange(s)] == ng[0]
    idem = np.flatnonzero(op.diagonal()[1:] == np.arange(1, s)) + 1
    minimal = idem[leq[np.ix_(idem, idem)].sum(axis=0) == 1]
    down, f, heights = leq.sum(axis=0), np.zeros(1, dtype=np.int64), []
    for e in minimal:
        under = np.flatnonzero(leq[1:, e]) + 1
        if not len(under) or len(f) * (len(under) + 1) > s:  # each chain doubles len(f) or more
            return False
        atom, multiples = under[np.argmin(down[under])], [0]
        for _ in under:
            multiples.append(op[multiples[-1], atom])
        f = op[f[:, None], multiples].ravel()
        heights.append(len(under))
    if len(f) != s or np.bincount(f, minlength=s).max() != 1:
        return False
    product = make_product_many([make_chain(n) for n in heights])
    return bool((op[f[:, None], f] == f[product.oplus]).all() and (ng[f] == f[product.neg]).all())


@functools.cache
def check_mv_axioms(algebra: FiniteMVAlgebra) -> AxiomReport:
    """Check the six defining laws on the whole carrier.

    Laws: associativity and commutativity of oplus, 0 as unit, neg involutive,
    top absorbing, and the characteristic law
    neg(neg a oplus b) oplus b = neg(neg b oplus a) oplus a.  Associativity
    holds if `_chain_product_certificate` accepts; otherwise its failing
    triples are found exhaustively, like those of the other laws.
    """
    s = algebra.size
    op, ng = algebra.oplus, algebra.neg
    idx = np.arange(s)
    out: list[tuple[str, tuple[int, ...]]] = []
    truncated = False

    if not _chain_product_certificate(op, ng):
        truncated |= _collect("assoc", _assoc_failures(op), 3, out)
    truncated |= _collect("comm", np.argwhere(op != op.T), 2, out)
    truncated |= _collect("unit", np.argwhere(op[:, 0] != idx), 1, out)
    truncated |= _collect("involution", np.argwhere(ng[ng] != idx), 1, out)
    truncated |= _collect("absorb", np.argwhere(op[:, algebra.top] != algebra.top), 1, out)
    luk = op[ng[op[ng[:, None], idx[None, :]]], idx[None, :]]
    truncated |= _collect("characteristic", np.argwhere(luk != luk.T), 2, out)

    return AxiomReport(ok=not out, violations=tuple(out), truncated=truncated)


@functools.cache
def check_morphism(h: MVMorphism) -> MorphismReport:
    """Check h(0)=0, h(a oplus b) = h(a) oplus h(b), h(neg a) = neg h(a)."""
    m = np.asarray(h.map, dtype=np.int64)
    out: list[tuple[str, tuple[int, ...]]] = []
    if h.map[0] != 0:
        out.append(("zero", (0,)))
    bad = m[h.dom.oplus] != h.cod.oplus[m[:, None], m[None, :]]
    _collect("oplus", np.argwhere(bad), 2, out)
    _collect("neg", np.argwhere(m[h.dom.neg] != h.cod.neg[m]), 1, out)
    return MorphismReport(ok=not out, violations=tuple(out))


def compose(first: MVMorphism, then: MVMorphism) -> MVMorphism:
    """compose(h1, h2) applies h1 first: the result maps a to h2(h1(a))."""
    if first.cod is not then.dom:
        raise ValueError("compose: cod of first must equal dom of second")
    return MVMorphism(first.dom, then.cod, tuple(then.map[v] for v in first.map))


def is_totally_ordered(algebra: FiniteMVAlgebra) -> bool:
    return bool((algebra.leq | algebra.leq.T).all())


def chain_rank(algebra: FiniteMVAlgebra) -> np.ndarray:
    """Position of each element in the total order; error on non-chains.

    rank[a] counts the elements strictly below a, so rank is the unique
    order iso onto {0..size-1} and the unique MV iso onto the same-size
    Lukasiewicz chain (finite chains are rigid).
    """
    if not is_totally_ordered(algebra):
        raise ValueError("algebra is not totally ordered")
    return algebra.leq.sum(axis=0) - 1


class SearchBudgetExceeded(RuntimeError):
    """Raised when a backtracking enumeration exceeds its node budget."""


def _prefix_consistent(img: list[int], k: int, op_d, ng_d, op_c, ng_c) -> bool:
    """Whether the partial map img[0..k] respects every neg and oplus fact
    whose arguments and value all lie in 0..k; img[k] is the fresh image.
    The tables are the domain's and codomain's oplus rows and neg lists."""
    y = img[k]
    nk = ng_d[k]
    if nk <= k and img[nk] != ng_c[y]:
        return False
    for a in range(k + 1):
        xa = img[a]
        r = op_d[a][k]
        if r <= k and op_c[xa][y] != img[r]:
            return False
        r = op_d[k][a]
        if r <= k and op_c[y][xa] != img[r]:
            return False
    # freshly assigned k may itself be the value of earlier pairs
    for a in range(k):
        for b in range(k):
            if op_d[a][b] == k and op_c[img[a]][img[b]] != y:
                return False
    return True


@functools.cache
def find_morphisms(dom: FiniteMVAlgebra, cod: FiniteMVAlgebra) -> tuple[MVMorphism, ...]:
    """All morphisms dom -> cod by backtracking over partial carrier maps.

    Images are assigned in carrier order; a constraint is checked as soon as
    every element it mentions has an image.  Node count is capped at
    `_NODE_CAP` so sweeps stay bounded and reproducible.
    """
    s = dom.size
    op_d, ng_d, op_c, ng_c = dom.oplus_rows, dom.neg_list, cod.oplus_rows, cod.neg_list
    img = [-1] * s
    img[0] = 0
    found: list[MVMorphism] = []
    nodes = 0

    def rec(k: int):
        nonlocal nodes
        if k == s:
            found.append(MVMorphism(dom, cod, tuple(img)))
            return
        for y in range(cod.size):
            nodes += 1
            if nodes > _NODE_CAP:
                raise SearchBudgetExceeded(f"morphism search exceeded {_NODE_CAP} nodes")
            img[k] = y
            if _prefix_consistent(img, k, op_d, ng_d, op_c, ng_c):
                rec(k + 1)
            img[k] = -1

    if not _prefix_consistent(img, 0, op_d, ng_d, op_c, ng_c):
        return ()
    rec(1)
    return tuple(found)

