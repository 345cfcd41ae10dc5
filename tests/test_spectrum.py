"""Ideal lattice, primes, quotients, and the subdirect embedding."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mvgamma
from mvgamma.mv_core import (
    FiniteMVAlgebra,
    MVMorphism,
    check_morphism,
    find_morphisms,
    is_totally_ordered,
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
from mvgamma.lgroup import gamma_segment
from mvgamma.sweeps import SweepContext, generated_algebras
from fiber_oracles import canonical_embedding
from test_mv_core import relabelled

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


def test_prime_test_oracle_on_products():
    # oracle: P is prime iff for every pair one of the two differences is inside
    om = L2xL3.ominus
    for ideal in enumerate_ideals(L2xL3):
        if not ideal.proper:
            continue
        expected = all(
            int(om[a, b]) in ideal.members or int(om[b, a]) in ideal.members
            for a, b in itertools.product(range(L2xL3.size), repeat=2)
        )
        assert is_prime_ideal(L2xL3, ideal) == expected


def test_quotient_by_zero_is_identity_indexed():
    q = quotient(L3, Ideal(L3, frozenset({0})))
    assert q.quotient == L3
    assert q.class_of == tuple(range(4))


def test_quotients_of_l2xl3_are_the_factors():
    sp = spectrum(L2xL3)
    q0 = quotient(L2xL3, sp.primes[0])  # {0}xL3 is the kernel of the map onto L2
    q1 = quotient(L2xL3, sp.primes[1])  # L2x{0} is the kernel of the map onto L3
    assert is_totally_ordered(q0.quotient) and is_totally_ordered(q1.quotient)
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
    mask = np.zeros(algebra.size, dtype=bool)
    mask[list(ideal.members)] = True
    om = algebra.ominus
    rel = mask[algebra.oplus[om, om.T]]
    _, first, inv = np.unique(rel, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    class_of = rank[inv]
    reps = first[order]
    q = FiniteMVAlgebra(
        len(reps),
        class_of[algebra.oplus[np.ix_(reps, reps)]],
        class_of[algebra.neg[reps]],
    )
    return q, tuple(int(c) for c in class_of)


def shuffled_labels(algebra):
    """The same algebra with its nonzero labels shuffled (fixed seed), so that
    index order is no longer a linear extension of the algebra's order."""
    rng = np.random.default_rng(algebra.size)
    perm = np.concatenate([[0], 1 + rng.permutation(algebra.size - 1)])
    inv = np.argsort(perm)
    return FiniteMVAlgebra(
        algebra.size,
        perm[algebra.oplus[np.ix_(inv, inv)]],
        perm[algebra.neg[inv]],
    )


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
    assert checked == 344


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
            assert list(np.unravel_index(emb.map[a], sizes)) == classes
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
    with pytest.raises(RuntimeError, match="not constant"):
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
