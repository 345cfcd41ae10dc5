"""Ideal lattice, primes, quotients, and the subdirect embedding."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvgamma
from mvgamma.mv_core import (
    FiniteMVAlgebra,
    MVMorphism,
    chain_rank,
    check_morphism,
    find_morphisms,
    make_chain,
    make_product,
)
from mvgamma.spectrum import (
    Ideal,
    class_values,
    enumerate_ideals,
    ideals_by_subset_filter,
    ideal_violations,
    induced_morphism,
    is_prime_ideal,
    preimage_ideal,
    prime_alignment,
    quotient,
    restrict_morphism,
    spectrum,
)
from mvgamma.equivalence import star_algebra
from mvgamma.errors import InternalInvariantError
from mvgamma.lgroup import gamma_segment
import mvgamma.sweeps as sweeps
from mvgamma.sweeps import SweepContext, generated_algebras
from fiber_oracles import canonical_embedding
from test_mv_core import chain_product, ominus, permuted_copy, relabelled

SRC = str(Path(mvgamma.__file__).resolve().parents[1])

L1 = make_chain(1)
L2 = make_chain(2)
L3 = make_chain(3)
SQ = make_product(L1, L1)  # indices: 0=(0,0) 1=(0,1) 2=(1,0) 3=(1,1)
L2xL3 = make_product(L2, L3)


def test_ideals_of_two_by_two_product_frozen():
    members = [sorted(i.members) for i in enumerate_ideals(SQ)]
    assert members == [[0], [0, 1], [0, 2], [0, 1, 2, 3]]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_chain_has_only_trivial_and_improper_ideals(n):
    c = make_chain(n)
    members = [sorted(i.members) for i in enumerate_ideals(c)]
    assert members == [[0], list(range(n + 1))]


@pytest.mark.parametrize(
    "algebra",
    [L1, L2, L3, SQ, L2xL3, make_product(L1, L3), make_product(L2, L2)],
)
def test_enumeration_matches_subset_filter(algebra):
    fast = [i.members for i in enumerate_ideals(algebra)]
    slow = [i.members for i in ideals_by_subset_filter(algebra)]
    assert fast == slow


def test_subset_filter_is_capped():
    with pytest.raises(ValueError):
        ideals_by_subset_filter(make_product(L3, L3))


def test_the_subset_filter_cap_error_is_unchanged():
    assert len(ideals_by_subset_filter(make_product(L2, L3))) == 4  # 12 elements
    for algebra in (make_chain(12), make_product(L3, L3)):
        with pytest.raises(ValueError, match=r"^subset oracle capped at size 12$"):
            ideals_by_subset_filter(algebra)


def subset_filter_oracle(algebra: FiniteMVAlgebra) -> list[Ideal]:
    """The earlier filter: every subset with 0, as a frozenset in bitmask
    order, kept when `ideal_violations` finds nothing wrong with it."""
    s = algebra.size
    subsets = (frozenset(a for a in range(s) if bits >> a & 1) for bits in range(1, 1 << s, 2))
    return [Ideal(algebra, m) for m in subsets if not ideal_violations.__wrapped__(algebra, m)]


def test_bitmask_filter_matches_the_frozenset_filter_on_the_generated_family():
    for algebra in generated_algebras(12):
        assert ideals_by_subset_filter(algebra) == subset_filter_oracle(algebra)


@st.composite
def small_tables(draw):
    """Tables of 2 to 8 elements: any cells at all, or a relabelled chain
    product with a few cells overwritten, or left lawful."""
    if draw(st.booleans()):
        s = draw(st.integers(2, 8))
        cells = st.integers(0, s - 1)
        oplus = draw(st.lists(st.lists(cells, min_size=s, max_size=s), min_size=s, max_size=s))
        return FiniteMVAlgebra(s, oplus, draw(st.lists(cells, min_size=s, max_size=s)))
    heights = draw(st.sampled_from([(1,), (3,), (7,), (1, 1), (1, 2), (1, 3), (1, 1, 1)]))
    algebra = relabelled(chain_product(heights), draw(st.integers(0, 99)))
    s, oplus = algebra.size, [list(row) for row in algebra.oplus]
    for _ in range(draw(st.integers(0, 2))):
        a, b, v = (draw(st.integers(0, s - 1)) for _ in range(3))
        oplus[a][b] = v
    return FiniteMVAlgebra(s, oplus, algebra.neg)


@settings(max_examples=200, deadline=None)
@given(small_tables())
def test_bitmask_filter_matches_the_frozenset_filter_on_any_table(algebra):
    assert ideals_by_subset_filter(algebra) == subset_filter_oracle(algebra)


def test_a_dropped_ideal_fails_the_spectrum_oracle_suite(monkeypatch):
    # the enumeration loses the ideal {0, 1} of the four-element Boolean algebra
    original = sweeps.enumerate_ideals

    def dropping(algebra):
        found = original(algebra)
        return [i for i in found if i.members != {0, 1}] if algebra is SQ else found

    monkeypatch.setattr(sweeps, "enumerate_ideals", dropping)
    result = sweeps.suite_spectrum_oracle(SweepContext(16, 4))
    assert (result.ok, result.failures) == (False, ["ideal lists disagree on a size-4 algebra"])


def test_cycling_squares_raise_instead_of_hanging():
    # a lawless table with 1 + 1 = 2 and 2 + 2 = 1: the squares of 1 never
    # reach an idempotent
    cycling = FiniteMVAlgebra(3, [[0, 1, 2], [1, 2, 2], [2, 2, 1]], [2, 1, 0])
    for build in (enumerate_ideals, spectrum):
        with pytest.raises(ValueError, match="^the squares of 1 cycle through non-idempotents"):
            build(cycling)


def test_prime_detection_in_square():
    zero = Ideal(SQ, frozenset({0}))
    assert not is_prime_ideal(SQ, zero)  # incomparable atoms separate
    assert is_prime_ideal(SQ, Ideal(SQ, frozenset({0, 1})))
    assert is_prime_ideal(SQ, Ideal(SQ, frozenset({0, 2})))


def test_prime_rejects_improper_and_non_ideal():
    with pytest.raises(ValueError):
        is_prime_ideal(SQ, Ideal(SQ, frozenset({0, 1, 2, 3})))
    with pytest.raises(ValueError):
        is_prime_ideal(SQ, Ideal(SQ, frozenset({0, 3})))


def test_spectrum_of_chain_is_singleton_zero():
    sp = spectrum(L3)
    assert len(sp.primes) == 1
    assert sp.primes[0].members == frozenset({0})


def test_spectrum_of_l2xl3_frozen_and_ordered():
    sp = spectrum(L2xL3)
    assert [sorted(p.members) for p in sp.primes] == [[0, 1, 2, 3], [0, 4, 8]]
    masks = [p.bitmask for p in sp.primes]
    assert masks == sorted(masks)


def primes_by_definition(algebra) -> list[frozenset[int]]:
    """Oracle: the proper ideals P with a ominus b or b ominus a in P for
    every pair a, b."""
    pairs = list(itertools.product(range(algebra.size), repeat=2))
    return [
        ideal.members
        for ideal in enumerate_ideals(algebra)
        if ideal.proper
        and all(
            ominus(algebra, a, b) in ideal.members or ominus(algebra, b, a) in ideal.members
            for a, b in pairs
        )
    ]


def assert_primes_by_definition(algebra):
    got = [p.members for p in spectrum(algebra).primes]
    assert got == primes_by_definition(algebra), algebra


def test_prime_test_oracle_on_products():
    assert len(primes_by_definition(L2xL3)) == 2
    generated = generated_algebras(81)
    for algebra in generated + [relabelled(a, seed) for seed, a in enumerate(generated)]:
        assert_primes_by_definition(algebra)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_prime_test_oracle_on_hypothesis_tables(data):
    product = chain_product(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    rest = data.draw(st.permutations(range(1, product.size)))
    assert_primes_by_definition(permuted_copy(product, [0, *rest]))


def test_quotient_by_zero_is_identity_indexed():
    q = quotient(L3, Ideal(L3, frozenset({0})))
    assert q.quotient == L3
    assert q.class_of == tuple(range(4))


def test_quotients_of_l2xl3_are_the_factors():
    sp = spectrum(L2xL3)
    q0 = quotient(L2xL3, sp.primes[0])  # {0}xL3 is the kernel of the map onto L2
    q1 = quotient(L2xL3, sp.primes[1])  # L2x{0} is the kernel of the map onto L3
    for q in (q0, q1):  # chain_rank raises on a non-chain
        assert sorted(chain_rank(q.quotient)) == list(range(q.quotient.size))
    # finite chains are rigid: the one morphism onto a same-size chain is an iso
    for q, chain in ((q0, L2), (q1, L3)):
        (iso,) = find_morphisms(q.quotient, chain)
        assert iso.is_injective() and iso.is_surjective()
    for q, p in ((q0, sp.primes[0]), (q1, sp.primes[1])):
        assert check_morphism(MVMorphism(L2xL3, q.quotient, q.class_of)).ok
        kernel = frozenset(a for a in range(L2xL3.size) if q.class_of[a] == 0)
        assert kernel == p.members


def reference_quotient(algebra, ideal):
    """Classes from the full relation matrix, numbered by first appearance.

    Independent of the idempotent route in `quotient`: a ~ b iff
    (a ominus b) oplus (b ominus a) lies in the ideal, decided for all pairs.
    """
    op, ng, carrier = algebra.oplus, algebra.neg, range(algebra.size)
    rel = [
        tuple(op[ominus(algebra, a, b)][ominus(algebra, b, a)] in ideal.members for b in carrier)
        for a in carrier
    ]
    first: dict[tuple, int] = {}
    for a, row in enumerate(rel):
        first.setdefault(row, a)
    reps = list(first.values())
    class_of = tuple(reps.index(first[row]) for row in rel)
    q = FiniteMVAlgebra(
        len(reps),
        [[class_of[op[r][t]] for t in reps] for r in reps],
        [class_of[ng[r]] for r in reps],
    )
    return q, class_of


def shuffled_labels(algebra):
    """The same algebra with its nonzero labels moved along one cycle (fixed
    seed), so that index order is no longer a linear extension of the
    algebra's order."""
    return relabelled(algebra, algebra.size)


def test_quotient_matches_the_relation_matrix_reference():
    ctx = SweepContext(16, 4)
    algebras = set(generated_algebras(64))
    algebras |= {gamma_segment(ctx.group(*cfg)).algebra for cfg in ctx.group_configs()}
    algebras |= {shuffled_labels(a) for a in generated_algebras(16)}
    checked = 0
    for algebra in algebras:
        for ideal in enumerate_ideals(algebra):
            if not ideal.proper:
                continue
            got = quotient(algebra, ideal)
            q, class_of = reference_quotient(algebra, ideal)
            assert got.class_of == class_of
            assert got.quotient == q
            assert check_morphism(MVMorphism(algebra, got.quotient, got.class_of)).ok
            checked += 1
    assert checked == 348


def test_quotient_is_shared_between_equal_inputs():
    a, b = make_product(L2, L3), make_product(L2, L3)
    assert a is b
    p = spectrum(a).primes[0]
    got = quotient(a, p)
    assert quotient(b, Ideal(b, frozenset(p.members))) is got
    assert spectrum(b) is spectrum(a)
    assert quotient(a, spectrum(a).primes[1]) is not got


def test_sweep_reuses_quotients():
    # In a fresh interpreter: in this one, caches warmed by other tests
    # answer a sweep before it reaches `quotient` at all.
    code = (
        "from mvgamma.spectrum import quotient\n"
        "from mvgamma.sweeps import run_all_checks\n"
        "hits = quotient.cache_info().hits\n"
        "assert all(suite.ok for suite in run_all_checks(6, 4))\n"
        "print(hits, quotient.cache_info().hits)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    before, after = map(int, proc.stdout.split())
    assert after > before


def test_quotient_rejects_non_ideal_and_improper():
    with pytest.raises(ValueError):
        quotient(SQ, Ideal(SQ, frozenset({0, 3})))
    with pytest.raises(ValueError):
        quotient(SQ, Ideal(SQ, frozenset({0, 1, 2, 3})))


@pytest.mark.parametrize("algebra", [L1, L3, SQ, L2xL3, make_product(L2, L2)])
def test_canonical_embedding_is_injective_morphism(algebra):
    emb = canonical_embedding(algebra)
    assert check_morphism(emb).ok
    assert emb.is_injective()
    assert star_algebra(algebra).injective


def test_chain_embedding_is_identity_onto_itself():
    emb = canonical_embedding(L3)
    assert emb.cod == L3
    assert emb.map == tuple(range(4))
    assert star_algebra(L3).a_circle == tuple((a,) for a in range(4))


def test_embedding_components_are_the_quotient_projections():
    # the mixed-radix oracle against iota, on natural and relabelled tables:
    # a morphism, injective exactly when iota is (always, on lawful tables),
    # and digit j of a's index is the class of a in prime j, the class that
    # fiber j of iota(a) names by its rank; a chain embeds as itself
    algebras = generated_algebras(64)
    algebras += [relabelled(a, seed) for seed, a in enumerate(generated_algebras(24))]
    for algebra in algebras:
        emb = canonical_embedding(algebra)
        star = star_algebra(algebra)
        assert check_morphism(emb).ok
        assert emb.is_injective() == star.injective
        assert star.injective
        sizes = [q.quotient.size for q in star.quotients]
        for a in range(algebra.size):
            classes = [f.by_rank[r] for f, r in zip(star.ambient.fibers, star.a_circle[a])]
            digits, index = [], emb.map[a]
            for n in reversed(sizes):
                index, digit = divmod(index, n)
                digits.insert(0, digit)
            assert digits == classes
        if len(sizes) == 1:
            assert emb.cod is algebra and emb.map == tuple(range(algebra.size))


def test_preimage_of_prime_is_prime():
    p1, _ = (
        MVMorphism(L2xL3, L2, tuple(i // 4 for i in range(12))),
        None,
    )
    assert check_morphism(p1).ok
    pre = preimage_ideal(p1, Ideal(L2, frozenset({0})))
    assert pre.members == frozenset({0, 1, 2, 3})
    assert is_prime_ideal(L2xL3, pre)


def test_restrict_morphism_along_prime():
    h = MVMorphism(L1, L2, (0, 2))
    restricted = restrict_morphism(h, Ideal(L2, frozenset({0})))
    assert restricted.map == (0, 2)
    assert check_morphism(restricted).ok

    p1 = MVMorphism(L2xL3, L2, tuple(i // 4 for i in range(12)))
    restricted = restrict_morphism(p1, Ideal(L2, frozenset({0})))
    # dom/(ker p1) is a 3-element chain mapping isomorphically onto the image
    assert restricted.dom.size == 3
    assert check_morphism(restricted).ok
    assert restricted.is_injective()


def test_class_values_in_class_order():
    q = quotient(L2xL3, Ideal(L2xL3, frozenset({0, 4, 8})))
    assert class_values(q, [10 * c for c in q.class_of]) == tuple(
        10 * c for c in range(q.quotient.size)
    )
    halves = quotient(SQ, Ideal(SQ, frozenset({0, 1})))  # classes {0, 1}, {2, 3}
    assert class_values(halves, "aabb") == ("a", "b")
    assert class_values(halves, "abbb") is None


def test_induced_morphism_rejects_incompatible_quotients():
    ident = MVMorphism(SQ, SQ, (0, 1, 2, 3))
    coarse = quotient(SQ, Ideal(SQ, frozenset({0, 1})))
    other = quotient(SQ, Ideal(SQ, frozenset({0, 2})))
    assert induced_morphism(ident, quotient(SQ, Ideal(SQ, frozenset({0}))), coarse).map == (0, 0, 1, 1)
    with pytest.raises(InternalInvariantError, match="not constant"):
        induced_morphism(ident, coarse, other)


def test_prime_alignment_matches_zero_sets_to_primes():
    a, b = frozenset({0, 1}), frozenset({0, 2})  # the primes of SQ, in order
    assert prime_alignment(SQ, (a, b)) == (0, 1)
    assert prime_alignment(SQ, (b, a)) == (1, 0)
    for zero_sets in [(a, a), (a,), (a, b, a), (a, frozenset({0})), (a, b, frozenset({0}))]:
        assert prime_alignment(SQ, zero_sets) is None


def test_ideal_violations_name_each_failure():
    assert ideal_violations(SQ, frozenset({0, 1})) == ()
    assert ideal_violations(SQ, frozenset({1})) == ("does not contain 0", "not downward closed")
    assert ideal_violations(SQ, frozenset({0, 3})) == ("not downward closed",)
