"""Pair arithmetic over chains, product groups, segments.

The independent oracle for the carry arithmetic is the order isomorphism onto
plain integers (m copies of `height` steps plus the offset rank).  The pair
operations never consult it, so agreement across whole windows is a real
check of the carry/borrow rules; and since product groups compute on those
integers, the same agreement read the other way round checks the product
operations against the carry rule.
"""

from __future__ import annotations

import pytest
from fiber_oracles import window
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgamma.lgroup import (
    ChangChainGroup,
    ChangPair,
    ProductLuGroup,
    abs_decompose,
    gamma_segment,
    make_product_group,
)
from mvgamma.mv_core import make_chain, make_product
from mvgamma.spectrum import spectrum


def fiber(n: int) -> ChangChainGroup:
    return ChangChainGroup(make_chain(n))


def pairs_in(g: ChangChainGroup, lo: int, hi: int) -> list[ChangPair]:
    return [g.pair_of_phi(t) for t in range(lo, hi + 1)]


# -- single fiber -------------------------------------------------------------


def test_carry_examples_frozen():
    g = fiber(2)
    assert g.add(ChangPair(0, 1), ChangPair(0, 1)) == ChangPair(1, 0)
    assert g.add(ChangPair(0, 1), ChangPair(1, 0)) == ChangPair(1, 1)
    assert g.neg(ChangPair(0, 1)) == ChangPair(-1, 1)
    assert g.neg(ChangPair(0, 0)) == ChangPair(0, 0)
    # a top offset normalizes for free: (3, top) is (4, 0)
    assert g.phi((3, 2)) == g.phi(ChangPair(4, 0)) == 8


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_pair_arithmetic_matches_integer_oracle(n):
    g = fiber(n)
    window = pairs_in(g, -4 * n, 4 * n)
    for x in window:
        assert g.phi(g.neg(x)) == -g.phi(x)
        assert g.pair_of_phi(g.phi(x)) == x
        for y in window:
            assert g.phi(g.add(x, y)) == g.phi(x) + g.phi(y)
            assert g.leq(x, y) == (g.phi(x) <= g.phi(y))
            assert g.phi(g.add(x, g.neg(y))) == g.phi(x) - g.phi(y)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_scalar_multiples_match_oracle(n):
    g = fiber(n)
    for x in pairs_in(g, -2 * n, 2 * n):
        for k in range(-5, 6):
            assert g.phi(g.mul(k, x)) == k * g.phi(x)


def mul_by_repeated_addition(g: ChangChainGroup, k: int, x: ChangPair) -> ChangPair:
    """Oracle: |k| additions of x (or of -x when k < 0)."""
    step = x if k >= 0 else g.neg(x)
    acc = ChangPair(0, 0)
    for _ in range(abs(k)):
        acc = g.add(acc, step)
    return acc


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=-300, max_value=300),
    st.integers(min_value=-30, max_value=30),
)
def test_mul_matches_repeated_addition(n, k, t):
    g = fiber(n)
    x = g.pair_of_phi(t)
    additions = []

    def counted_add(a, b):
        additions.append((a, b))
        return ChangChainGroup.add(g, a, b)

    g.add = counted_add  # shadows the method on this instance only
    assert g.mul(k, x) == mul_by_repeated_addition(fiber(n), k, x)
    assert len(additions) <= 2 * abs(k).bit_length()


def test_fibers_are_equal_by_chain():
    assert fiber(2) is not fiber(2)
    assert fiber(2) == fiber(2) and hash(fiber(2)) == hash(fiber(2))
    assert fiber(2) != fiber(3)


def test_fiber_rejects_non_chain():
    with pytest.raises(ValueError):
        ChangChainGroup(make_product(make_chain(1), make_chain(1)))


def test_pair_constructor_validates_offset():
    # phi is the one constructor from pairs
    g = fiber(2)
    assert g.pair_of_phi(g.phi((0, 2))) == ChangPair(1, 0)
    for offset in (3, -1):
        with pytest.raises(ValueError, match="offset out of chain carrier"):
            g.phi((0, offset))


# -- product groups -----------------------------------------------------------


def z2(u=((1, 0), (1, 0))):
    return make_product_group([fiber(1), fiber(1)], u)


def test_unit_must_be_strictly_positive():
    with pytest.raises(ValueError):
        make_product_group([fiber(1), fiber(1)], [(1, 0), (0, 0)])
    with pytest.raises(ValueError):
        make_product_group([fiber(1)], [(-1, 0)])
    with pytest.raises(ValueError):
        make_product_group([], [])


def test_product_groups_are_equal_by_fibers_and_unit():
    g, h = z2(), z2()
    assert g is not h
    assert g == h and hash(g) == hash(h)
    assert z2(((1, 0), (2, 0))) != g
    assert make_product_group([fiber(1), fiber(2)], [(1, 0), (1, 0)]) != g


def test_componentwise_operations_match_oracle():
    # the oracle is the carry rule, read through the pair boundary
    g = make_product_group([fiber(1), fiber(2)], [(1, 0), (0, 1)])
    xs = list(window(g, 2))
    for x in xs:
        px = g.to_pairs(x)
        assert g.from_pairs(px) == x
        assert g.to_pairs(g.neg(x)) == tuple(f.neg(p) for f, p in zip(g.fibers, px))
        for y in xs:
            py = g.to_pairs(y)
            assert g.to_pairs(g.add(x, y)) == tuple(
                f.add(p, q) for f, p, q in zip(g.fibers, px, py)
            )
            assert g.leq(x, y) == all(f.leq(p, q) for f, p, q in zip(g.fibers, px, py))
            assert g.to_pairs(g.meet(x, y)) == tuple(
                p if f.leq(p, q) else q for f, p, q in zip(g.fibers, px, py)
            )


def test_from_pairs_validates_arity_and_offsets():
    g = z2()
    assert g.from_pairs([(0, 1), (2, 0)]) == (1, 2)
    with pytest.raises(ValueError, match="arity"):
        g.from_pairs([(0, 1)])
    with pytest.raises(ValueError, match="offset out of chain carrier"):
        g.from_pairs([(0, 1), (0, 2)])
    with pytest.raises(ValueError, match="one coordinate per fiber"):
        make_product_group([fiber(1)], [(1, 0), (1, 0)])


def test_window_size_single_fiber():
    g = make_product_group([fiber(1)], [(1, 0)])
    assert len(list(window(g, 4))) == 9  # integers -4..4


def test_abs_decompose_frozen_example():
    g = z2()
    pos, neg, absolute = abs_decompose(g, (1, -1))
    assert (pos, neg, absolute) == ((1, 0), (0, 1), (1, 1))


def test_abs_decompose_identities_on_window():
    g = make_product_group([fiber(2), fiber(3)], [(0, 1), (1, 0)])
    for x in window(g, 3):
        pos, neg, absolute = abs_decompose(g, x)
        assert g.sub(pos, neg) == x
        assert g.add(pos, neg) == absolute
        assert g.leq(g.zero, pos) and g.leq(g.zero, neg)
        assert g.meet(pos, neg) == g.zero


# -- segments -----------------------------------------------------------------


def test_segment_of_integers_is_a_chain():
    g = make_product_group([fiber(1)], [(3, 0)])
    seg = gamma_segment(g)
    assert seg.algebra == make_chain(3)
    assert seg.elements == ((0,), (1,), (2,), (3,))


def test_segment_of_chain_group_at_its_unit():
    g = make_product_group([fiber(2)], [(1, 0)])
    seg = gamma_segment(g)
    assert seg.algebra == make_chain(2)


def test_segment_of_z2_is_a_product_algebra():
    g = make_product_group([fiber(1), fiber(1)], [(1, 0), (2, 0)])
    seg = gamma_segment(g)
    assert seg.algebra == make_product(make_chain(1), make_chain(2))
    assert seg.index[g.zero] == 0
    assert seg.index[g.u] == seg.algebra.size - 1


def test_segment_order_agrees_with_group_order():
    g = make_product_group([fiber(2), fiber(2)], [(0, 1), (1, 1)])
    seg = gamma_segment(g)
    below = seg.algebra.below
    for i, x in enumerate(seg.elements):
        for j, y in enumerate(seg.elements):
            assert (i in below[j]) == g.leq(x, y)


def test_segment_neg_is_unit_complement():
    g = make_product_group([fiber(2), fiber(1)], [(1, 1), (2, 0)])
    seg = gamma_segment(g)
    for i, x in enumerate(seg.elements):
        assert seg.elements[int(seg.algebra.neg[i])] == g.sub(g.u, x)


def test_segment_requires_positive_endpoint():
    # the segment's endpoint is the group's unit, checked when the group is built
    with pytest.raises(ValueError, match="strictly positive in every fiber"):
        ProductLuGroup([fiber(1), fiber(1)], (1, 0))
    with pytest.raises(ValueError, match="strictly positive in every fiber"):
        make_product_group([fiber(2)], [(-1, 1)])


def test_segment_is_shared_between_equal_groups():
    g, h = z2(((1, 0), (2, 0))), z2(((1, 0), (2, 0)))
    assert g is not h
    assert gamma_segment(g) is gamma_segment(h)
    assert gamma_segment(z2()) is not gamma_segment(g)
    # the segment reads only the unit: groups over other chains with the
    # same unit (1, 2) get the same object, which names the unit
    other = ProductLuGroup([fiber(3), fiber(2)], (1, 2))
    assert other != g and other.u == g.u
    assert gamma_segment(other) is gamma_segment(g)
    for group in (g, other, z2()):
        assert gamma_segment(group).u == group.u


def test_group_spectrum_lists_fiber_kernels():
    # the primes of the unit segment are exactly the kernels of the fiber
    # projections, one per fiber
    g = make_product_group([fiber(1), fiber(2), fiber(3)], [(1, 0), (1, 0), (1, 0)])
    seg = gamma_segment(g)
    kernels = [
        frozenset(i for i, x in enumerate(seg.elements) if x[j] == 0)
        for j in range(g.k)
    ]
    assert len(set(kernels)) == 3
    assert {p.members for p in spectrum(seg.algebra).primes} == set(kernels)


# -- randomized laws -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    ms=st.lists(st.integers(min_value=-30, max_value=30), min_size=3, max_size=3),
    rs=st.lists(st.integers(min_value=0, max_value=5), min_size=3, max_size=3),
)
def test_group_laws_randomized(n, ms, rs):
    g = fiber(n)
    x, y, z = (ChangPair(m, g.by_rank[r % g.height]) for m, r in zip(ms, rs))
    assert g.add(x, y) == g.add(y, x)
    assert g.add(g.add(x, y), z) == g.add(x, g.add(y, z))
    assert g.add(x, g.neg(x)) == ChangPair(0, 0)
    assert g.neg(g.neg(x)) == x
    # translation invariance of the order
    assert g.leq(x, y) == g.leq(g.add(x, z), g.add(y, z))
