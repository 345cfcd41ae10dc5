"""Core algebra layer: tables, laws, morphisms, products, and the backtracking
morphism search kept as the oracle of the closed form."""

from __future__ import annotations

import copy
import itertools
import math
import pickle
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgamma import mv_core
from mvgamma.mv_core import (
    AxiomReport,
    FiniteMVAlgebra,
    MVMorphism,
    check_morphism,
    check_mv_axioms,
    compose,
    find_morphisms,
    chain_rank,
    make_chain,
    make_product,
    make_product_many,
)
from mvgamma.lgroup import unit_segment
from mvgamma.sweeps import SweepContext, generated_algebras


def brute_morphisms(dom: FiniteMVAlgebra, cod: FiniteMVAlgebra) -> set[tuple[int, ...]]:
    """Oracle: filter every carrier map by the three laws directly."""
    found = set()
    for img in itertools.product(range(cod.size), repeat=dom.size):
        if img[0] != 0:
            continue
        if any(
            img[dom.oplus[a][b]] != cod.oplus[img[a]][img[b]]
            for a in range(dom.size)
            for b in range(dom.size)
        ):
            continue
        if any(img[dom.neg[a]] != cod.neg[img[a]] for a in range(dom.size)):
            continue
        found.add(img)
    return found


def isomorphisms(a: FiniteMVAlgebra, b: FiniteMVAlgebra) -> list[MVMorphism]:
    """The bijective morphisms a -> b, filtered from the morphism search."""
    return [h for h in find_morphisms(a, b) if h.is_injective() and h.is_surjective()]


def permuted_copy(algebra: FiniteMVAlgebra, perm: list[int]) -> FiniteMVAlgebra:
    """Relabel the carrier along a permutation fixing 0."""
    assert perm[0] == 0
    inv = sorted(range(algebra.size), key=perm.__getitem__)
    op, ng = algebra.oplus, algebra.neg
    return FiniteMVAlgebra(
        algebra.size, [[perm[op[x][y]] for y in inv] for x in inv], [perm[ng[x]] for x in inv]
    )


def reversed_copy(algebra: FiniteMVAlgebra) -> FiniteMVAlgebra:
    """The algebra with the labels 1..s-1 reversed: a fixed relabelling that
    keeps 0 and takes no random numbers."""
    return permuted_copy(algebra, [0, *range(algebra.size - 1, 0, -1)])


def with_reversed_copies(algebras: list[FiniteMVAlgebra]) -> list[FiniteMVAlgebra]:
    """The algebras, then the reversed copy of each, every algebra once (the
    two-element chain is its own copy)."""
    return list(dict.fromkeys(algebras + [reversed_copy(a) for a in algebras]))


# -- chains -----------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 9))
def test_chains_satisfy_axioms(n):
    assert check_mv_axioms(make_chain(n)).ok


def ominus(algebra: FiniteMVAlgebra, a: int, b: int) -> int:
    return algebra.odot[a][algebra.neg[b]]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_chain_derived_ops_match_integer_formulas(n):
    c = make_chain(n)
    ng = c.neg
    for a in range(n + 1):
        assert c.neg[a] == n - a
        assert c.below[a] == frozenset(range(a + 1))
        for b in range(n + 1):
            assert c.oplus[a][b] == min(n, a + b)
            assert c.odot[a][b] == max(0, a + b - n)
            assert ominus(c, a, b) == max(0, a - b)
            assert c.oplus[ominus(c, a, b)][b] == max(a, b)  # the join
            assert ng[c.oplus[ominus(c, ng[a], ng[b])][ng[b]]] == min(a, b)  # the meet
            assert (a in c.below[b]) == (a <= b)


def test_chain_is_totally_ordered_with_identity_rank():
    assert chain_rank(make_chain(4)) == (0, 1, 2, 3, 4)
    with pytest.raises(ValueError, match="not totally ordered"):
        chain_rank(make_product(make_chain(1), make_chain(1)))


def test_trivial_algebra_is_rejected():
    with pytest.raises(ValueError):
        make_chain(0)
    with pytest.raises(ValueError, match="^carrier must have at least two elements$"):
        FiniteMVAlgebra(1, [[0]], [0])


# -- interning: an algebra is its tables ---------------------------------------


def tables_equal(x: tuple, y: tuple) -> bool:
    """Oracle: two (size, oplus, neg) triples compared by value, table by table."""
    rows = [list(map(int, row)) for row in x[1]], [list(map(int, row)) for row in y[1]]
    return x[0] == y[0] and rows[0] == rows[1] and list(map(int, x[2])) == list(map(int, y[2]))


class IntLike:
    """An integer-like entry that is not an int: it has only `__index__`."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value

    __int__ = __index__


@st.composite
def raw_tables(draw):
    s = draw(st.integers(min_value=2, max_value=4))
    cells = st.integers(min_value=0, max_value=s - 1)
    oplus = draw(st.lists(st.lists(cells, min_size=s, max_size=s), min_size=s, max_size=s))
    neg = draw(st.lists(cells, min_size=s, max_size=s))
    return s, oplus, neg


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_equal_tables_are_one_algebra(data):
    x = data.draw(raw_tables())
    # the second tables: a copy of the first, the first with one cell redrawn
    # (which may leave it unchanged), or fresh tables of either size
    kind = data.draw(st.sampled_from(["copy", "cell", "fresh"]))
    if kind == "fresh":
        y = data.draw(raw_tables())
    else:
        s, oplus, neg = x[0], [list(row) for row in x[1]], list(x[2])
        if kind == "cell":
            a, b = data.draw(st.tuples(st.integers(0, s - 1), st.integers(0, s - 1)))
            oplus[a][b] = data.draw(st.integers(0, s - 1))
        y = (s, oplus, neg)
    # equal tables given as lists or with integer-like entries are still equal
    if data.draw(st.booleans()):
        y = (y[0], [[IntLike(v) for v in row] for row in y[1]], [IntLike(v) for v in y[2]])
    A = FiniteMVAlgebra(*x)
    B = FiniteMVAlgebra(*y)
    assert (A is B) == tables_equal(x, y)
    assert tables_equal((A.size, A.oplus, A.neg), x)
    assert tables_equal((B.size, B.oplus, B.neg), y)
    for algebra in (A, B):  # read-only tables of plain ints
        assert type(algebra.oplus) is tuple and type(algebra.neg) is tuple
        assert {type(row) for row in algebra.oplus} == {tuple}
        assert {type(v) for v in itertools.chain(algebra.neg, *algebra.oplus)} == {int}


def test_numpy_arrays_are_read_as_int_tables():
    np = pytest.importorskip("numpy")
    c = make_chain(3)
    as_arrays = [np.asarray(t, dtype=np.int32) for t in (c.oplus, c.neg)]
    assert FiniteMVAlgebra(4, *as_arrays) is c


def test_algebras_compare_and_hash_by_identity():
    assert "__eq__" not in vars(FiniteMVAlgebra) and "__hash__" not in vars(FiniteMVAlgebra)
    a = make_chain(3)
    assert a is make_chain(3) is FiniteMVAlgebra(4, a.oplus, a.neg)
    assert copy.deepcopy(a) is a and pickle.loads(pickle.dumps(a)) is a
    assert make_product(make_chain(1), make_chain(1)) is not make_chain(3)


INVALID_TABLES = [
    (2, [[0, 1]], [1, 0], "oplus must have shape (2, 2), got (1, 2)"),
    # the entries of a valid two-element table, in the wrong shape
    (2, [0, 1, 1, 1], [1, 0], "oplus must have shape (2, 2), got (4,)"),
    (2, [[0, 1], [1, 1]], [[1, 0]], "neg must have shape (2,), got (1, 2)"),
    (2, [[0, 1], [1, 5]], [1, 0], "oplus entries out of carrier range"),
    (2, [[0, -1], [1, 1]], [1, 0], "oplus entries out of carrier range"),
    (2, [[0, 1], [1, 1]], [1, -1], "neg entries out of carrier range"),
    (2, [[0, 1], [1, 1]], [2, 0], "neg entries out of carrier range"),
    # a string has a length at every depth: read two levels down, no further
    (2, [[0, 1], [1, 1]], "10", "neg must have shape (2,), got (2, 1)"),
    (2, [[0, 1], [1]], [1, 0], "oplus must have shape (2, 2), got ragged rows"),
]


def test_shape_and_range_validation():
    live = make_chain(1)  # a valid algebra of the same size is already interned
    for size, oplus, neg, message in INVALID_TABLES:
        for _ in range(2):  # a rejected table is not interned either
            with pytest.raises(ValueError) as err:
                FiniteMVAlgebra(size, oplus, neg)
            assert str(err.value) == message
    assert live is make_chain(1)


def test_built_tables_meet_the_live_algebra_before_validation(monkeypatch):
    # chains, products and quotients build tuples of int tuples, which are
    # looked up first; user tables are validated before any lookup
    from mvgamma.spectrum import quotient, spectrum

    chain, square = make_chain(5), make_product(make_chain(1), make_chain(2))
    prime = spectrum(square).primes[0]
    fiber = quotient(square, prime).quotient
    validated = []
    original = mv_core._table

    def spy(*args):
        validated.append(args[2])
        return original(*args)

    monkeypatch.setattr(mv_core, "_table", spy)
    assert make_chain(5) is chain
    assert mv_core._product.__wrapped__(tuple(map(make_chain, (1, 2)))) is square
    assert quotient.__wrapped__(square, prime).quotient is fiber
    assert validated == []
    assert FiniteMVAlgebra(6, chain.oplus, chain.neg) is chain
    assert validated == ["oplus", "neg"]
    # float or ragged tables equal to, or shaped like, a live key are refused as before
    live = make_chain(1)
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        FiniteMVAlgebra(2, ((0.0, 1.0), (1.0, 1.0)), (1.0, 0.0))
    with pytest.raises(ValueError, match=r"^oplus must have shape \(2, 2\), got ragged rows$"):
        FiniteMVAlgebra(2, ((0, 1), (1,)), (1, 0))
    assert FiniteMVAlgebra(2, ((False, True), (True, True)), (True, False)) is live


def test_axiom_checker_catches_broken_tables():
    c = make_chain(2)
    op = [list(row) for row in c.oplus]
    op[1][2] = 0  # break commutativity and more
    broken = FiniteMVAlgebra(3, op, c.neg)
    report = check_mv_axioms(broken)
    assert not report.ok
    names = {v[0] for v in report.violations}
    assert "comm" in names


def assoc_brute(op) -> list[tuple[int, int, int]]:
    """Oracle: every (a, b, c) with (a+b)+c != a+(b+c), by a triple loop."""
    carrier = range(len(op))
    return [
        (a, b, c)
        for a in carrier
        for b in carrier
        for c in carrier
        if op[op[a][b]][c] != op[a][op[b][c]]
    ]


def axioms_full(algebra: FiniteMVAlgebra) -> AxiomReport:
    """Oracle: the six laws checked cell by cell (associativity by a triple
    loop), each law's failing arguments in row-major order up to 100."""
    s, op, ng, top = algebra.size, algebra.oplus, algebra.neg, algebra.top
    carrier = range(s)

    def luk(a, b):
        return op[ng[op[ng[a]][b]]][b]

    out: list = []
    truncated = False
    for name, found in (
        ("assoc", assoc_brute(op)),
        ("comm", [(a, b) for a in carrier for b in carrier if op[a][b] != op[b][a]]),
        ("unit", [(a,) for a in carrier if op[a][0] != a]),
        ("involution", [(a,) for a in carrier if ng[ng[a]] != a]),
        ("absorb", [(a,) for a in carrier if op[a][top] != top]),
        ("characteristic", [(a, b) for a in carrier for b in carrier if luk(a, b) != luk(b, a)]),
    ):
        out += [(name, args) for args in found[:100]]
        truncated |= len(found) > 100
    return AxiomReport(ok=not out, violations=tuple(out), truncated=truncated)


def exhaustive_axioms(algebra: FiniteMVAlgebra) -> AxiomReport:
    """`check_mv_axioms` with the chain decomposition turned off: every law
    is checked on every tuple of arguments."""
    with mock.patch.object(mv_core, "chain_decomposition", return_value=None):
        return check_mv_axioms.__wrapped__(algebra)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_row_wise_checks_match_the_triple_loop(data):
    # garbage tables: a chain with a few cells overwritten (few violations,
    # spread over several rows) or a wholly random table (past the cap)
    s = data.draw(st.integers(min_value=2, max_value=9))
    if data.draw(st.booleans()):
        op = [list(row) for row in make_chain(s - 1).oplus]
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            a, b = data.draw(st.tuples(st.integers(0, s - 1), st.integers(0, s - 1)))
            op[a][b] = data.draw(st.integers(0, s - 1))
    else:
        cells = st.lists(st.integers(0, s - 1), min_size=s, max_size=s)
        op = data.draw(st.lists(cells, min_size=s, max_size=s))
    algebra = FiniteMVAlgebra(s, op, make_chain(s - 1).neg)
    found, brute = mv_core._assoc_failures(algebra.oplus), assoc_brute(algebra.oplus)
    assert found == brute[: len(found)] and found[:100] == brute[:100]
    assert (len(found) > 100) == (len(brute) > 100)
    assert exhaustive_axioms(algebra) == axioms_full(algebra)
    assert check_mv_axioms.__wrapped__(algebra) == axioms_full(algebra)


def test_row_wise_associativity_truncates_like_the_triple_loop():
    # xor-like garbage on 8 elements fails associativity on hundreds of
    # triples; the rows stop after the one passing the cap, with the same
    # first 100 in row-major order
    s = 8
    op = [[(a * 3 + b * 5) % s for b in range(s)] for a in range(s)]
    algebra = FiniteMVAlgebra(s, op, make_chain(s - 1).neg)
    full, brute = axioms_full(algebra), assoc_brute(algebra.oplus)
    assert full.truncated and sum(name == "assoc" for name, _ in full.violations) == 100
    found = mv_core._assoc_failures(algebra.oplus)
    assert 100 < len(found) < len(brute) and found == brute[: len(found)]
    assert exhaustive_axioms(algebra) == full
    assert check_mv_axioms.__wrapped__(algebra) == full


def test_axiom_checker_catches_broken_involution():
    broken = FiniteMVAlgebra(3, make_chain(2).oplus, [2, 2, 0])
    report = check_mv_axioms(broken)
    assert not report.ok
    assert any(v[0] == "involution" for v in report.violations)


# -- associativity by an isomorphism onto a product of chains ------------------


def chain_product(heights) -> FiniteMVAlgebra:
    return make_product_many([make_chain(n) for n in heights])


def relabelled(algebra: FiniteMVAlgebra, seed: int) -> FiniteMVAlgebra:
    """The algebra relabelled along a random permutation that fixes 0 and
    moves every other element (one cycle through 1..s-1)."""
    order = random.Random(seed).sample(range(1, algebra.size), algebra.size - 1)
    perm = [0] * algebra.size
    for x, y in zip(order, order[1:] + order[:1]):
        perm[x] = y
    return permuted_copy(algebra, perm)


def overwritten(algebra: FiniteMVAlgebra, cells=(), negs=()) -> FiniteMVAlgebra:
    """The tables with ((a, b), v) written to oplus at (a, b) and (b, a),
    and (a, v) to neg at a."""
    op, ng = [list(row) for row in algebra.oplus], list(algebra.neg)
    for (a, b), v in cells:
        op[a][b] = op[b][a] = v
    for a, v in negs:
        ng[a] = v
    return FiniteMVAlgebra(algebra.size, op, ng)


def certified(algebra: FiniteMVAlgebra) -> bool:
    return mv_core.chain_decomposition(algebra) is not None


def test_certificate_accepts_every_lawful_table_it_meets():
    # the certificate alone, not the exhaustive fallback
    ctx = SweepContext(16, 4)
    segments = {unit_segment(ctx.group(c, h).u).algebra for c, h in ctx.group_configs()}
    shapes = [(255,), (1, 127), (15, 15), (3,) * 4, (1,) * 8]
    products = [relabelled(chain_product(hs), seed) for seed, hs in enumerate(shapes)]
    assert [a.size for a in products] == [256] * 5
    for algebra in [*generated_algebras(81), *segments, *products]:
        assert certified(algebra), algebra
        # the exhaustive check the certificate stands in for agrees
        assert exhaustive_axioms(algebra).ok, algebra
    for hs, algebra in zip(shapes, products):
        # on a product's own table the chains come in factor order, and f
        # is the identity; on a relabelled copy f is an isomorphism onto it
        assert mv_core.chain_decomposition(chain_product(hs)) == (tuple(range(256)), hs)
        f, heights = mv_core.chain_decomposition(algebra)
        h = MVMorphism(chain_product(heights), algebra, f)
        assert sorted(heights) == sorted(hs) and h.is_injective() and check_morphism(h).ok


def test_triple_loop_passes_every_generated_algebra():
    ctx = SweepContext(16, 4)
    segments = {unit_segment(ctx.group(c, h).u).algebra for c, h in ctx.group_configs()}
    generated = generated_algebras(81)
    relabelled_ones = [relabelled(a, seed) for seed, a in enumerate(generated)]
    for algebra in [*generated, *segments, *relabelled_ones]:
        assert axioms_full(algebra).ok, algebra
        assert check_mv_axioms(algebra).ok, algebra


@pytest.mark.parametrize(
    "mutant",
    [
        overwritten(make_chain(4), cells=[((2, 2), 3)]),  # 2 + 2 = 3: assoc fails
        # neg (1, 0) = (0, 1): f and oplus pass, only the transport of neg fails
        overwritten(chain_product((2, 1)), negs=[(2, 1)]),
        # a relabelled lawful product with one symmetric oplus cell changed
        overwritten(relabelled(chain_product((2, 1, 3)), 7), cells=[((5, 9), 17)]),
        # f transports oplus but is not onto: the cube with 0 + 2 = 6, 0 + 4 = 0
        overwritten(chain_product((1, 1, 1)), cells=[((0, 2), 6), ((0, 4), 0)]),
    ],
)
def test_certificate_rejects_mutants_and_the_full_check_reports_them(mutant):
    assert not certified(mutant)
    report = check_mv_axioms.__wrapped__(mutant)
    assert not report.ok and report == axioms_full(mutant)


def test_certificate_gives_up_before_the_chains_outgrow_the_carrier():
    # eight minimal idempotents 1..8 of a lawless order, each with 248
    # nonzero elements below it: their chains would multiply up to 249^8
    # elements, so the certificate must stop at the second chain
    s, k = 256, 8
    ng = range(s)  # top = neg 0 = 0, so x <= y reads oplus[x][y] == 0
    op = [[0] * s] + [[1] * s for _ in range(1, s)]
    idem = range(1, k + 1)
    for i in idem:
        op[i][i] = i
        op[i % k + 1][i] = 0  # the one idempotent below i is i's successor
        for x in range(k + 1, s):
            op[x][i] = 0  # every non-idempotent lies below every idempotent
    assert not certified(FiniteMVAlgebra(s, op, ng))


@st.composite
def near_products(draw):
    """A relabelled chain product with 1-3 oplus cells overwritten (each one
    cell or a symmetric pair), or a wholly random small table."""
    if draw(st.booleans()):
        return FiniteMVAlgebra(*draw(raw_tables()))
    product = chain_product(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    s = product.size
    algebra = permuted_copy(product, [0] + draw(st.permutations(range(1, s))))
    op = [list(row) for row in algebra.oplus]
    elements = st.integers(0, s - 1)
    for _ in range(draw(st.integers(1, 3))):
        a, b, v = draw(st.tuples(elements, elements, elements))
        op[a][b] = v
        if draw(st.booleans()):
            op[b][a] = v
    return FiniteMVAlgebra(s, op, algebra.neg)


@settings(max_examples=60, deadline=None)
@given(near_products())
def test_certified_axioms_match_full_arrays(algebra):
    full = axioms_full(algebra)
    assert check_mv_axioms.__wrapped__(algebra) == full
    assert full.ok or not certified(algebra)


# -- products ----------------------------------------------------------------


def test_product_size_and_frozen_example():
    p = make_product(make_chain(2), make_chain(3))
    assert p.size == 12
    # (1,2) has index 1*4+2 = 6; (1,2)+(1,2) = (2,3) has index 2*4+3 = 11
    assert p.oplus[6][6] == 11
    assert check_mv_axioms(p).ok


def test_product_projections_are_morphisms():
    a, b = make_chain(1), make_chain(3)
    prod = make_product(a, b)
    p1 = MVMorphism(prod, a, tuple(i // b.size for i in range(prod.size)))
    p2 = MVMorphism(prod, b, tuple(i % b.size for i in range(prod.size)))
    assert check_morphism(p1).ok and check_morphism(p2).ok
    assert p1.is_surjective() and p2.is_surjective()


def test_product_tables_are_componentwise():
    a, b = make_chain(2), make_chain(2)
    p = make_product(a, b)
    for (x1, x2), (y1, y2) in itertools.product(
        itertools.product(range(3), repeat=2), repeat=2
    ):
        i, j = x1 * 3 + x2, y1 * 3 + y2
        expected = min(2, x1 + y1) * 3 + min(2, x2 + y2)
        assert p.oplus[i][j] == expected


def test_many_fold_product_matches_iterated_binary():
    chains = [make_chain(1), make_chain(2), make_chain(1)]
    direct = make_product_many(chains)
    nested = make_product(make_product(chains[0], chains[1]), chains[2])
    assert direct == nested


# -- morphisms ----------------------------------------------------------------


def test_check_morphism_frozen_examples():
    l1, l2 = make_chain(1), make_chain(2)
    good = MVMorphism(l1, l2, (0, 2))
    assert check_morphism(good).ok
    bad = MVMorphism(l1, l2, (0, 1))
    report = check_morphism(bad)
    assert not report.ok


def morphism_violations(h: MVMorphism) -> list:
    """Oracle: the three morphism laws checked cell by cell, in row-major
    order, up to 100 failures per law."""
    d, c, m = h.dom, h.cod, h.map
    carrier = range(d.size)
    oplus = [(a, b) for a in carrier for b in carrier if m[d.oplus[a][b]] != c.oplus[m[a]][m[b]]]
    neg = [(a,) for a in carrier if m[d.neg[a]] != c.neg[m[a]]]
    zero = [("zero", (0,))] if m[0] else []
    return zero + [("oplus", x) for x in oplus[:100]] + [("neg", x) for x in neg[:100]]


def test_row_wise_morphism_check_matches_the_cell_by_cell_oracle():
    sq = make_product(make_chain(1), make_chain(1))
    cases = [(make_chain(2), make_chain(3)), (sq, make_chain(2)), (make_chain(3), sq)]
    for dom, cod in cases:  # every carrier map
        for img in itertools.product(range(cod.size), repeat=dom.size):
            h = MVMorphism(dom, cod, img)
            assert list(check_morphism.__wrapped__(h).violations) == morphism_violations(h)
    # only the neg law fails; and a constant 1 fails oplus on all 144 cells
    h = MVMorphism(make_chain(2), make_chain(2), (0, 2, 2))
    assert check_morphism(h).violations == (("neg", (1,)),)
    big = make_product(make_chain(2), make_chain(3))
    h = MVMorphism(big, make_chain(3), (1,) * 12)
    assert list(check_morphism(h).violations) == morphism_violations(h)
    assert sum(name == "oplus" for name, _ in check_morphism(h).violations) == 100


def test_the_identity_passes_unread_and_other_maps_read_the_tables():
    # the identity holds on any tables: a lawless 3-element table too
    cycling = FiniteMVAlgebra(3, [[0, 1, 2], [1, 2, 2], [2, 2, 1]], [2, 1, 0])
    assert check_morphism(MVMorphism(cycling, cycling, (0, 1, 2))) == (True, ())
    # the swap of chain 1 * chain 1 is an automorphism, read off the tables:
    # after 1 + 1 is overwritten to 3, the identity still passes and the swap fails
    sq = make_product(make_chain(1), make_chain(1))
    swap = (0, 2, 1, 3)
    assert check_morphism(MVMorphism(sq, sq, swap)).ok
    broken = overwritten(sq, cells=[((1, 1), 3)])
    assert check_morphism(MVMorphism(broken, broken, (0, 1, 2, 3))).ok
    h = MVMorphism(broken, broken, swap)
    assert list(check_morphism(h).violations) == morphism_violations(h) != []
    # near-identity maps fail with the violations the full check found
    a = make_product(make_chain(2), make_chain(1))
    h = MVMorphism(a, a, (0, 1, 1, 3, 4, 5))
    assert check_morphism(h).violations == (
        *(("oplus", cell) for cell in ((1, 2), (2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (4, 2))),
        ("neg", (2,)),
        ("neg", (3,)),
    )
    for image in itertools.permutations(range(1, 6)):
        h = MVMorphism(a, a, (0, *image))
        assert list(check_morphism(h).violations) == morphism_violations(h)


def test_down_sets_read_by_column_match_the_row_loop():
    generated = generated_algebras(81)
    for algebra in generated + [relabelled(a, seed) for seed, a in enumerate(generated)]:
        rows, top = [algebra.oplus[na] for na in algebra.neg], algebra.top
        down = mv_core._DownSets(algebra)
        for b in range(algebra.size):
            assert down[b] == frozenset([a for a, row in enumerate(rows) if row[b] == top])


def test_compose_and_identity():
    l1, l2 = make_chain(1), make_chain(2)
    h = MVMorphism(l1, l2, (0, 2))
    assert compose(MVMorphism(l1, l1, (0, 1)), h).map == h.map
    assert compose(h, MVMorphism(l2, l2, (0, 1, 2))).map == h.map
    l4 = make_chain(4)
    g = MVMorphism(l2, l4, (0, 2, 4))
    assert check_morphism(g).ok
    hg = compose(h, g)
    assert hg.map == (0, 4)
    assert check_morphism(hg).ok


def test_compose_rejects_mismatched_boundary():
    l1, l2 = make_chain(1), make_chain(2)
    h = MVMorphism(l1, l2, (0, 2))
    with pytest.raises(ValueError):
        compose(h, h)


@pytest.mark.parametrize(
    "dom,cod",
    [
        (make_chain(1), make_chain(2)),
        (make_chain(2), make_chain(4)),
        (make_chain(2), make_chain(3)),
        (make_product(make_chain(1), make_chain(1)), make_chain(1)),
        (make_chain(1), make_product(make_chain(1), make_chain(1))),
        (make_chain(3), make_chain(3)),
    ],
)
def test_find_morphisms_agrees_with_brute_force(dom, cod):
    got = {h.map for h in find_morphisms(dom, cod)}
    assert got == brute_morphisms(dom, cod)
    for h in find_morphisms(dom, cod):
        assert check_morphism(h).ok


def test_find_morphisms_returns_a_shared_tuple():
    sq = make_product(make_chain(1), make_chain(1))
    found = find_morphisms(sq, make_chain(1))
    assert isinstance(found, tuple)
    assert find_morphisms(make_product(make_chain(1), make_chain(1)), make_chain(1)) is found


def test_morphism_counts_frozen():
    assert len(find_morphisms(make_chain(1), make_chain(2))) == 1
    assert len(find_morphisms(make_chain(2), make_chain(3))) == 0
    sq = make_product(make_chain(1), make_chain(1))
    assert len(find_morphisms(sq, make_chain(1))) == 2
    assert len(find_morphisms(sq, sq)) == 4


@pytest.mark.parametrize(
    "lawless",
    [
        FiniteMVAlgebra(3, make_chain(2).oplus, [2, 2, 0]),  # neg is no involution
        overwritten(relabelled(chain_product((2, 1, 3)), 7), cells=[((5, 9), 17)]),
    ],
)
def test_find_morphisms_raises_on_lawless_tables(lawless):
    assert not check_mv_axioms(lawless).ok
    for dom, cod, name in [(lawless, make_chain(2), "dom"), (make_chain(2), lawless, "cod")]:
        with pytest.raises(ValueError, match=f"^find_morphisms: {name} fails the MV laws"):
            find_morphisms(dom, cod)


def test_morphisms_at_a_size_the_search_cannot_reach():
    # every pair of generated_algebras(36): 1,089 pairs and 679 maps, which
    # the backtracking search took minutes over
    shapes = [(n,) for n in range(1, 9)] + [
        (m, n) for m in range(1, 9) for n in range(m, 9) if (m + 1) * (n + 1) <= 36
    ]
    algebras = generated_algebras(36)
    assert [chain_product(hs) for hs in shapes] == algebras
    total = 0
    for (ns, dom), (ms, cod) in itertools.product(zip(shapes, algebras), repeat=2):
        maps = [h.map for h in find_morphisms(dom, cod)]
        # one coordinate of dom read by each coordinate of cod, where n | m
        assert len(maps) == math.prod(sum(m % n == 0 for n in ns) for m in ms)
        assert maps == sorted(set(maps))
        assert all(check_morphism(h).ok for h in find_morphisms(dom, cod))
        total += len(maps)
    assert total == 679


# -- the oracle: backtracking over partial carrier maps -------------------------


class SearchBudgetExceeded(RuntimeError):
    """Raised when the backtracking search exceeds its node budget."""


def _prefix_consistent(img: list[int], k: int, op_d, ng_d, op_c, ng_c) -> bool:
    """Whether the partial map img[0..k] respects every neg and oplus fact
    whose arguments and value all lie in 0..k; img[k] is the fresh image.
    The tables are the domain's and codomain's oplus and neg."""
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


def search_morphisms(dom, cod, node_cap: int = 10**6) -> list[tuple[int, ...]]:
    """Oracle: the maps of all morphisms dom -> cod by backtracking over
    partial carrier maps, lexicographic in the map tuple.  Images are
    assigned in carrier order, each constraint checked as soon as every
    element it mentions has an image; more than node_cap candidate images
    raise."""
    s = dom.size
    op_d, ng_d, op_c, ng_c = dom.oplus, dom.neg, cod.oplus, cod.neg
    img = [-1] * s
    img[0] = 0
    found: list[tuple[int, ...]] = []
    nodes = 0

    def rec(k: int):
        nonlocal nodes
        if k == s:
            found.append(tuple(img))
            return
        for y in range(cod.size):
            nodes += 1
            if nodes > node_cap:
                raise SearchBudgetExceeded(f"morphism search exceeded {node_cap} nodes")
            img[k] = y
            if _prefix_consistent(img, k, op_d, ng_d, op_c, ng_c):
                rec(k + 1)
            img[k] = -1

    if not _prefix_consistent(img, 0, op_d, ng_d, op_c, ng_c):
        return []
    rec(1)
    return found


def generation_order(algebra: FiniteMVAlgebra) -> list[int]:
    """0, then everything that neg and oplus make of the elements listed so
    far, ascending; when that is nothing new, the least element not listed."""
    order = [0]
    while len(order) < algebra.size:
        made = {algebra.neg[x] for x in order} | {algebra.oplus[x][y] for x in order for y in order}
        new = sorted(made - set(order)) or [min(set(range(algebra.size)) - set(order))]
        order += new
    return order


def search_in_generation_order(dom, cod) -> list[tuple[int, ...]]:
    """The search on dom relabelled in `generation_order`, so that every
    image but those of a few generators is forced as soon as it is tried,
    with its maps read back on dom's own carrier and sorted."""
    label = [0] * dom.size
    for k, x in enumerate(generation_order(dom)):
        label[x] = k
    found = search_morphisms(permuted_copy(dom, label), cod)
    return sorted(tuple(m[label[x]] for x in range(dom.size)) for m in found)


def test_searches_stop_at_their_node_cap():
    sq = make_product(make_chain(1), make_chain(1))
    with pytest.raises(SearchBudgetExceeded, match="morphism search exceeded 3 nodes"):
        search_morphisms(sq, sq, node_cap=3)
    assert len(search_morphisms(sq, sq)) == 4


@pytest.mark.parametrize("max_size, total", [(12, 171), (16, 283)])
def test_closed_form_matches_the_search_on_generated_algebras(max_size, total):
    algebras = generated_algebras(max_size)
    found = 0
    for dom, cod in itertools.product(algebras, repeat=2):
        maps = [h.map for h in find_morphisms(dom, cod)]
        assert maps == search_morphisms(dom, cod), (dom, cod)
        found += len(maps)
    assert found == total


def test_closed_form_matches_the_search_on_relabelled_tables():
    # relabelled copies of generated_algebras(16) against
    # generated_algebras(12), in both directions
    small = generated_algebras(12)
    found = 0
    for seed, algebra in enumerate(generated_algebras(16)):
        shuffled = relabelled(algebra, seed)
        for dom, cod in [(shuffled, b) for b in small] + [(b, shuffled) for b in small]:
            maps = [h.map for h in find_morphisms(dom, cod)]
            assert maps == search_morphisms(dom, cod), (dom, cod)
            found += len(maps)
    assert found == 438


@st.composite
def shuffled_products(draw, max_size: int = 24):
    """A product of chains with at most max_size elements, relabelled along
    a drawn permutation that fixes 0."""
    heights: list[int] = []
    while draw(st.booleans()) or not heights:
        room = max_size // math.prod(n + 1 for n in heights) - 1
        if room < 1:
            break
        heights.append(draw(st.integers(1, room)))
    product = chain_product(heights)
    return permuted_copy(product, [0] + draw(st.permutations(range(1, product.size))))


@settings(max_examples=40, deadline=None)
@given(shuffled_products(), shuffled_products())
def test_closed_form_matches_the_search_on_shuffled_products(dom, cod):
    assert [h.map for h in find_morphisms(dom, cod)] == search_in_generation_order(dom, cod)


# -- isomorphisms as bijective morphisms ----------------------------------------


def test_isomorphism_of_swapped_product_factors():
    a = make_product(make_chain(1), make_chain(3))
    b = make_product(make_chain(3), make_chain(1))
    # the factor swap (x, y) -> (y, x): index 4x + y goes to 2y + x
    assert [h.map for h in isomorphisms(a, b)] == [tuple(2 * (i % 4) + i // 4 for i in range(8))]


def test_non_isomorphic_same_size():
    assert isomorphisms(make_product(make_chain(1), make_chain(1)), make_chain(3)) == []


def test_isomorphism_rejects_size_mismatch():
    assert isomorphisms(make_chain(2), make_chain(3)) == []


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_permuted_chains_are_isomorphic(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    rest = data.draw(st.permutations(list(range(1, n + 1))))
    perm = [0] + list(rest)
    c = make_chain(n)
    shuffled = permuted_copy(c, perm)
    assert check_mv_axioms(shuffled).ok
    assert [list(h.map) for h in isomorphisms(c, shuffled)] == [perm]
